package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gmm"
	"repro/internal/hist"
	"repro/internal/isomer"
	"repro/internal/modelio"
	"repro/internal/obs"
	"repro/internal/ptshist"
	"repro/internal/quicksel"
)

// Entry is one immutable registry snapshot: a model plus its provenance.
// Readers obtain an Entry and use it without locking; a hot-swap publishes
// a brand-new Entry, so an in-flight Estimate never sees a torn model.
type Entry struct {
	Model core.Model
	// Generation counts swaps of this name, starting at 1. An estimate
	// response echoes it so clients can tell which model answered.
	Generation int64
	// Source records where the model came from: "upload", "file", or
	// "retrain".
	Source string
	// LoadedAt is when the entry was published.
	LoadedAt time.Time

	// name and dim are recorded at publish so the request path keys the
	// cache and checks dimensions as is (dim 0: the model does not say).
	name string
	dim  int
}

// slot holds one name's hot-swappable entry. Readers only touch the
// atomic pointer; writers (upload, retrain) serialize on the mutex so
// generation numbers are assigned exactly once per published entry.
type slot struct {
	ptr atomic.Pointer[Entry]
	mu  sync.Mutex
	gen int64
}

// Registry maps model names to hot-swappable entries. Lookups are two
// steps: a read-locked map access to find the slot, then an atomic load of
// the current entry. Swaps store a new entry into the slot atomically, so
// the estimate path never blocks on a writer.
type Registry struct {
	mu    sync.RWMutex
	slots map[string]*slot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{slots: make(map[string]*slot)}
}

// Get returns the current entry for name, or false if the name has never
// been set.
func (r *Registry) Get(name string) (*Entry, bool) {
	return r.GetBytes([]byte(name)) // no copy: GetBytes neither keeps nor writes it
}

// GetBytes is Get keyed by raw name bytes. The map index with an inline
// string conversion compiles to a no-copy lookup, so the zero-allocation
// estimate path can resolve a model without materializing a string.
//
//selvet:zeroalloc
func (r *Registry) GetBytes(name []byte) (*Entry, bool) {
	r.mu.RLock()
	sl, ok := r.slots[string(name)]
	r.mu.RUnlock()
	if !ok {
		return nil, false
	}
	e := sl.ptr.Load()
	return e, e != nil
}

// getOrCreateSlot finds name's slot, creating it on first use.
func (r *Registry) getOrCreateSlot(name string) *slot {
	r.mu.RLock()
	sl, ok := r.slots[name]
	r.mu.RUnlock()
	if ok {
		return sl
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if sl, ok = r.slots[name]; !ok {
		sl = &slot{}
		r.slots[name] = sl
	}
	return sl
}

// Set publishes a model under name, creating the slot on first use, and
// returns the new entry. Concurrent Estimate calls keep using the entry
// they already loaded; subsequent calls see the new one.
func (r *Registry) Set(name, source string, m core.Model) *Entry {
	// Build the acceleration index before publishing (and outside the
	// slot lock) so the first estimate after the swap is already fast.
	core.Accelerate(m)
	sl := r.getOrCreateSlot(name)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.publish(name, source, m)
}

// publish stores m as the slot's next generation; the caller holds sl.mu.
func (sl *slot) publish(name, source string, m core.Model) *Entry {
	sl.gen++
	dim, _ := modelDim(m)
	e := &Entry{Model: m, Generation: sl.gen, Source: source, LoadedAt: time.Now(), name: name, dim: dim}
	sl.ptr.Store(e)
	return e
}

// CompareAndSwap publishes a model under name only if the current entry is
// still old (same pointer). It returns the new entry, or nil if the slot
// moved on — the retrainer uses this so a concurrent upload wins over a
// stale retrain.
func (r *Registry) CompareAndSwap(name, source string, old *Entry, m core.Model) *Entry {
	r.mu.RLock()
	sl, ok := r.slots[name]
	r.mu.RUnlock()
	if !ok {
		return nil
	}
	core.Accelerate(m) // pre-publish, outside the slot lock (see Set)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.ptr.Load() != old {
		return nil
	}
	return sl.publish(name, source, m)
}

// Names returns the registered model names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.slots))
	for name, sl := range r.slots {
		if sl.ptr.Load() != nil {
			names = append(names, name)
		}
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// modelTypeName returns a model's envelope tag, or its Go type for models
// modelio cannot save.
func modelTypeName(m core.Model) string {
	if name, ok := modelio.TypeName(m); ok {
		return name
	}
	return fmt.Sprintf("%T", m)
}

// modelDim returns the ambient dimensionality of a model, recorded on each
// published Entry and needed to rebuild a trainer for retraining. Not every
// model records it explicitly, so it is recovered from the bucket geometry.
func modelDim(m core.Model) (int, bool) {
	switch t := m.(type) {
	case *hist.Model:
		if len(t.Buckets) > 0 {
			return t.Buckets[0].Dim(), true
		}
	case *ptshist.Model:
		if len(t.Points) > 0 {
			return len(t.Points[0]), true
		}
	case *quicksel.Model:
		if len(t.Buckets) > 0 {
			return t.Buckets[0].Dim(), true
		}
	case *isomer.Model:
		if len(t.Buckets) > 0 {
			return t.Buckets[0].Dim(), true
		}
	case *gmm.Model:
		if len(t.Components) > 0 {
			return len(t.Components[0].Mean), true
		}
	}
	return 0, false
}

// maxRetrainBuckets caps the complexity of retrained models. Offline
// training in a maintenance window can afford the paper's 4×-sample bucket
// budget; a retrain competes with serving traffic on the same node, so its
// cost is bounded.
const maxRetrainBuckets = 512

// trainerFor builds a trainer of the same family as m, sized for a
// feedback batch of n queries, with its TrainLog attached (log may be
// nil). The retrainer refits with the same method that produced the
// serving model, per the paper's online-learning loop.
func trainerFor(m core.Model, n int, seed uint64, log *obs.TrainLog) (core.Trainer, error) {
	dim, ok := modelDim(m)
	if !ok {
		return nil, fmt.Errorf("serve: cannot infer dimensionality of empty %s model", modelTypeName(m))
	}
	buckets := min(4*n, maxRetrainBuckets)
	switch m.(type) {
	case *hist.Model:
		tr := hist.New(dim, buckets)
		tr.Log = log
		return tr, nil
	case *ptshist.Model:
		tr := ptshist.New(dim, buckets, seed)
		tr.Log = log
		return tr, nil
	case *quicksel.Model:
		tr := quicksel.New(dim, seed)
		tr.Log = log
		return tr, nil
	case *isomer.Model:
		tr := isomer.New(dim)
		tr.Log = log
		return tr, nil
	}
	return nil, fmt.Errorf("serve: no retrainer for model type %s", modelTypeName(m))
}

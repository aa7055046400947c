package serve

import (
	"sync"
	"testing"

	"repro/internal/geom"
)

// Unit tests of the benchmark-only EstimateCache (cache.go).

func TestQueryKeyCanonicalization(t *testing.T) {
	box := geom.NewBox(geom.Point{0, 0}, geom.Point{0.5, 0.25})
	sameBox := geom.NewBox(geom.Point{0, 0}, geom.Point{0.5, 0.25})
	k1, ok1 := QueryKey(box)
	k2, ok2 := QueryKey(sameBox)
	if !ok1 || !ok2 || k1 != k2 {
		t.Fatalf("identical boxes keyed differently: %q vs %q", k1, k2)
	}
	// Distinct geometries — and distinct classes over the same floats —
	// must map to distinct keys.
	keys := map[string]string{}
	for name, q := range map[string]geom.Range{
		"box":       box,
		"other box": geom.NewBox(geom.Point{0, 0}, geom.Point{0.5, 0.26}),
		"ball":      geom.NewBall(geom.Point{0, 0}, 0.5),
		"halfspace": geom.NewHalfspace(geom.Point{0, 0}, 0.5),
		"unit ball": geom.NewBall(geom.Point{0.5, 0.25}, 0),
		"1d box":    geom.NewBox(geom.Point{0}, geom.Point{0.5}),
		"flat slab": geom.NewBox(geom.Point{0, 0}, geom.Point{0.5, 0}),
	} {
		k, ok := QueryKey(q)
		if !ok {
			t.Fatalf("%s: no key", name)
		}
		if prev, dup := keys[k]; dup {
			t.Fatalf("key collision between %s and %s", prev, name)
		}
		keys[k] = name
	}
	// Unknown range classes bypass the cache rather than mis-keying.
	if _, ok := QueryKey(geom.NewDiscIntersection(0.5, 0.5, 0.25)); ok {
		t.Fatal("unexpected key for a non-wire range class")
	}
}

func TestEstimateCacheLRUEviction(t *testing.T) {
	c := NewEstimateCache(2)
	c.Put("m", 1, "a", 0.1)
	c.Put("m", 1, "b", 0.2)
	if _, ok := c.Get("m", 1, "a"); !ok {
		t.Fatal("a evicted while cache not full")
	}
	c.Put("m", 1, "c", 0.3) // evicts b (a was just touched)
	if _, ok := c.Get("m", 1, "b"); ok {
		t.Fatal("LRU did not evict the least recently used entry")
	}
	if v, ok := c.Get("m", 1, "a"); !ok || v != 0.1 {
		t.Fatalf("a lost: %v %v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("cache size %d, want 2", c.Len())
	}
	// Same query under a new generation is a distinct entry.
	if _, ok := c.Get("m", 2, "a"); ok {
		t.Fatal("generation ignored in cache key")
	}
}

// Put rewrites an existing entry's value in place, so Get must read it
// under the lock: concurrent Get and Put of one key must be race-free
// (this test is for -race).
func TestEstimateCacheConcurrentGetPut(t *testing.T) {
	c := NewEstimateCache(4)
	c.Put("m", 1, "q", 0.5)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			c.Put("m", 1, "q", 0.5)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			if v, ok := c.Get("m", 1, "q"); !ok || v != 0.5 {
				t.Errorf("Get = %v, %v", v, ok)
				return
			}
		}
	}()
	wg.Wait()
}

// TestQueryKeyPointerValueAgree: pointer ranges (the wire decoders' form)
// and value ranges (embedders' form) of one geometry key identically.
func TestQueryKeyPointerValueAgree(t *testing.T) {
	box := geom.NewBox(geom.Point{0.1, 0.2}, geom.Point{0.6, 0.9})
	half := geom.NewHalfspace(geom.Point{1, -1}, 0.1)
	ball := geom.NewBall(geom.Point{0.4, 0.6}, 0.2)
	pairs := []struct{ v, p geom.Range }{
		{box, &box}, {half, &half}, {ball, &ball},
	}
	for _, pr := range pairs {
		kv, okv := QueryKey(pr.v)
		kp, okp := QueryKey(pr.p)
		if !okv || !okp || kv != kp {
			t.Fatalf("%T: value key %q (ok=%v) != pointer key %q (ok=%v)", pr.v, kv, okv, kp, okp)
		}
	}
	if _, ok := QueryKey(nil); ok {
		t.Fatal("nil range produced a cache key")
	}
}

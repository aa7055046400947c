package modelio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/gmm"
	"repro/internal/hist"
	"repro/internal/ptshist"
)

// gridModel builds a k×k quadhist-shaped model with deterministic
// normalized weights, large enough to carry a BVH when k*k >= the
// indexing threshold.
func gridModel(k int) *hist.Model {
	m := &hist.Model{}
	total := 0.0
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			lo := geom.Point{float64(i) / float64(k), float64(j) / float64(k)}
			hi := geom.Point{float64(i+1) / float64(k), float64(j+1) / float64(k)}
			m.Buckets = append(m.Buckets, geom.Box{Lo: lo, Hi: hi})
			w := 1 + float64((i*31+j*17)%7)
			m.Weights = append(m.Weights, w)
			total += w
		}
	}
	for i := range m.Weights {
		m.Weights[i] /= total
	}
	return m
}

func snapshot(t *testing.T, m core.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveBinary(&buf, m); err != nil {
		t.Fatalf("SaveBinary: %v", err)
	}
	return buf.Bytes()
}

func randQueries(n int) []geom.Range {
	rng := rand.New(rand.NewSource(7))
	out := make([]geom.Range, n)
	for i := range out {
		lo := geom.Point{rng.Float64() * 0.8, rng.Float64() * 0.8}
		out[i] = geom.Box{Lo: lo, Hi: geom.Point{lo[0] + 0.2*rng.Float64(), lo[1] + 0.2*rng.Float64()}}
	}
	return out
}

// hugeBucketModel holds the bucket [−1e200, 1e200]², whose volume is
// +Inf: unchecked, it answers the halfspace x+y ≤ 0.5 with Inf/Inf = NaN.
func hugeBucketModel() *hist.Model {
	return &hist.Model{
		Buckets: []geom.Box{
			{Lo: geom.Point{-1e200, -1e200}, Hi: geom.Point{1e200, 1e200}},
			{Lo: geom.Point{0, 0}, Hi: geom.Point{1, 1}},
		},
		Weights: []float64{0.5, 0.5},
	}
}

// tinyBucketModel is gridModel(8), indexed, with bucket 0 shrunk to
// [0, 1e-160]²: its volume 1e-320 has the inverse +Inf, so unchecked the
// tree answers [1e-160−1e-170, 0.05]² with 0·Inf = NaN.
func tinyBucketModel() *hist.Model {
	m := gridModel(8)
	m.Buckets[0] = geom.Box{Lo: geom.Point{0, 0}, Hi: geom.Point{1e-160, 1e-160}}
	return m
}

// TestBinaryRoundTripEstimates saves and loads every model family and
// checks estimates are bit-identical to the original model's.
func TestBinaryRoundTripEstimates(t *testing.T) {
	queries := randQueries(64)

	check := func(t *testing.T, orig core.Model) {
		t.Helper()
		got, err := LoadBinary(snapshot(t, orig))
		if err != nil {
			t.Fatalf("LoadBinary: %v", err)
		}
		want, _ := TypeName(orig)
		if name, _ := TypeName(got); name != want {
			t.Fatalf("saved a %s model, loaded a %s", want, name)
		}
		for qi, q := range queries {
			a, b := orig.Estimate(q), got.Estimate(q)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("query %d: original %v, loaded %v", qi, a, b)
			}
		}
	}

	t.Run("quadhist small", func(t *testing.T) { check(t, gridModel(4)) })
	t.Run("quadhist indexed", func(t *testing.T) { check(t, gridModel(32)) })
	t.Run("quicksel", func(t *testing.T) {
		g := gridModel(16)
		check(t, &hist.Model{Buckets: g.Buckets, Weights: g.Weights, Family: hist.QuickSel})
	})
	t.Run("isomer", func(t *testing.T) {
		g := gridModel(16)
		check(t, &hist.Model{Buckets: g.Buckets, Weights: g.Weights, Family: hist.Isomer})
	})
	t.Run("ptshist", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		m := &ptshist.Model{}
		for i := 0; i < 100; i++ {
			m.Points = append(m.Points, geom.Point{rng.Float64(), rng.Float64()})
			m.Weights = append(m.Weights, 0.01)
		}
		check(t, m)
	})
	t.Run("gaussmix", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		m := &gmm.Model{}
		for i := 0; i < 8; i++ {
			m.Components = append(m.Components, gmm.Component{
				Mean:  geom.Point{rng.Float64(), rng.Float64()},
				Sigma: 0.05 + 0.1*rng.Float64(),
			})
			m.Weights = append(m.Weights, 0.125)
		}
		check(t, m)
	})
}

// TestBinaryRejectsNonFinite: a snapshot whose checksums are valid but
// whose model holds a NaN or infinite value, or a bucket whose volume or
// inverse volume is infinite, must fail as an invalid model rather than
// load and estimate NaN.
func TestBinaryRejectsNonFinite(t *testing.T) {
	halves := func() []geom.Box {
		return []geom.Box{
			{Lo: geom.Point{0, 0}, Hi: geom.Point{0.5, 1}},
			{Lo: geom.Point{0.5, 0}, Hi: geom.Point{1, 1}},
		}
	}
	infCorner := halves()
	infCorner[1].Hi[0] = math.Inf(1)
	cases := []struct {
		name string
		m    core.Model
	}{
		{"nan weight", &hist.Model{Buckets: halves(), Weights: []float64{1, math.NaN()}}},
		{"inf weight", &hist.Model{Buckets: halves(), Weights: []float64{math.Inf(1), 0}}},
		{"inf corner", &hist.Model{Buckets: infCorner, Weights: []float64{0.5, 0.5}}},
		{"infinite volume", hugeBucketModel()},
		{"uninvertible volume", tinyBucketModel()},
		{"nan point", &ptshist.Model{
			Points:  []geom.Point{{0.5, math.NaN()}},
			Weights: []float64{1},
		}},
		{"nan mean", &gmm.Model{
			Components: []gmm.Component{{Mean: geom.Point{math.NaN(), 0.5}, Sigma: 0.1}},
			Weights:    []float64{1},
		}},
		{"nan sigma", &gmm.Model{
			Components: []gmm.Component{{Mean: geom.Point{0.5, 0.5}, Sigma: math.NaN()}},
			Weights:    []float64{1},
		}},
	}
	for _, c := range cases {
		if _, err := LoadAnyBytes(snapshot(t, c.m)); !errors.Is(err, ErrInvalidModel) {
			t.Errorf("%s: LoadAnyBytes = %v, want ErrInvalidModel", c.name, err)
		}
	}
}

// TestBinaryLoadSeedsIndex checks the headline contract: a loaded
// above-threshold model already has its BVH, and Accelerate after load
// does not rebuild it.
func TestBinaryLoadSeedsIndex(t *testing.T) {
	orig := gridModel(32) // 1024 buckets, well above IndexThreshold
	data := snapshot(t, orig)
	m, err := LoadBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	hm := m.(*hist.Model)
	tree := hm.IndexTree()
	if tree == nil {
		t.Fatal("loaded model has no seeded index")
	}
	core.Accelerate(m)
	if hm.IndexTree() != tree {
		t.Fatal("Accelerate after load rebuilt the index")
	}
	if tree.Len() != len(hm.Buckets) {
		t.Fatalf("tree over %d buckets, model has %d", tree.Len(), len(hm.Buckets))
	}
}

// TestBinaryCorruption flips bytes across the snapshot and requires every
// corruption to be caught by a checksum or structural check — never a
// panic, never a silently-wrong model.
func TestBinaryCorruption(t *testing.T) {
	orig := gridModel(16)
	data := snapshot(t, orig)
	queries := randQueries(64)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		b := append([]byte(nil), data...)
		pos := rng.Intn(len(b))
		b[pos] ^= 1 << uint(rng.Intn(8))
		m, err := LoadBinary(b)
		if err == nil {
			// A flipped padding byte inside a section would change its
			// CRC, so a successful load means the flip landed in dead
			// header space; the model must answer as the original does.
			for qi, q := range queries {
				if a, b := orig.Estimate(q), m.Estimate(q); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("flip at %d loaded a model that answers query %d with %v, not %v", pos, qi, b, a)
				}
			}
			continue
		}
		if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrUnknownVersion) &&
			!errors.Is(err, ErrUnknownType) && !errors.Is(err, ErrInvalidModel) {
			t.Fatalf("flip at %d: untyped error %v", pos, err)
		}
	}

	t.Run("truncations", func(t *testing.T) {
		for n := 0; n < len(data); n += 97 {
			if _, err := LoadBinary(data[:n]); err == nil {
				t.Fatalf("truncation to %d bytes loaded successfully", n)
			}
		}
	})
}

// withOrder rewrites the ORDR section of a snapshot in place through
// edit, which gets the section's bytes (u64 count, then the ids), and
// recomputes the checksums, so only the loader's own checks stand between
// the forged order and a loaded tree.
func withOrder(t *testing.T, data []byte, edit func(sec []byte)) []byte {
	t.Helper()
	data = append([]byte(nil), data...)
	const maxSecs = 3
	for i := 0; i < maxSecs; i++ {
		e := data[16+32*i:]
		if binary.LittleEndian.Uint32(e) != secOrder {
			continue
		}
		sec := data[binary.LittleEndian.Uint64(e[8:]):][:binary.LittleEndian.Uint64(e[16:])]
		edit(sec)
		binary.LittleEndian.PutUint32(e[24:], crc32.ChecksumIEEE(sec))
		crcOff := 16 + maxSecs*32
		binary.LittleEndian.PutUint32(data[crcOff:], crc32.ChecksumIEEE(data[:crcOff]))
		return data
	}
	t.Fatal("snapshot has no leaf-order section")
	return nil
}

// TestBinaryRejectsBadOrder: a snapshot whose checksums are all valid but
// whose leaf order is no permutation of the bucket ids must fail as an
// invalid model, not load a tree that counts a bucket twice or never; a
// count the section cannot hold is malformed.
func TestBinaryRejectsBadOrder(t *testing.T) {
	data := snapshot(t, gridModel(16))
	id := func(sec []byte, k int) []byte { return sec[8+4*k:] }
	for _, c := range []struct {
		name string
		edit func(sec []byte)
		want error
	}{
		{"id twice", func(sec []byte) { copy(id(sec, 1)[:4], id(sec, 0)[:4]) }, ErrInvalidModel},
		{"id out of range", func(sec []byte) { binary.LittleEndian.PutUint32(id(sec, 3), 256) }, ErrInvalidModel},
		{"negative id", func(sec []byte) { binary.LittleEndian.PutUint32(id(sec, 3), math.MaxUint32) }, ErrInvalidModel},
		{"short order", func(sec []byte) { binary.LittleEndian.PutUint64(sec, 255) }, ErrInvalidModel},
		{"count past the section", func(sec []byte) { binary.LittleEndian.PutUint64(sec, 257) }, ErrMalformed},
	} {
		if _, err := LoadBinary(withOrder(t, data, c.edit)); !errors.Is(err, c.want) {
			t.Errorf("%s: LoadBinary = %v, want %v", c.name, err, c.want)
		}
	}
}

// readBits parses a fixture of one hex float64 bit pattern per line.
func readBits(t *testing.T, path string) []uint64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []uint64
	for _, line := range strings.Fields(string(raw)) {
		v, err := strconv.ParseUint(line, 16, 64)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	return out
}

// TestLoadsTreeArraySnapshots: snapshots written while the format stored
// the BVH's arrays in section 5 still load. testdata/grid32.snap is
// gridModel(32) and grid32.bits its answers to randQueries(200), both
// written by that format's SaveBinary; testdata/grid16_nanroot.snap is
// gridModel(16) from the same writer with its root subtree sum set to NaN
// and the checksums recomputed — that format loaded it and answered the
// unit square with NaN. The reserved section is ignored, so the tree is
// built from the buckets and weights and answers with a fresh model's
// bits. grid32.bits holds the packed box walk's answers, which summed
// bucket by bucket; the 2-D table answers by its own exact formula, so
// the saved answers hold to within 1e-12.
func TestLoadsTreeArraySnapshots(t *testing.T) {
	load := func(name string) *hist.Model {
		t.Helper()
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		m, err := LoadAnyBytes(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hm := m.(*hist.Model)
		if hm.IndexTree() != nil {
			t.Fatalf("%s: index seeded from the reserved section", name)
		}
		return hm
	}

	saved := readBits(t, filepath.Join("testdata", "grid32.bits"))
	if len(saved) != 200 {
		t.Fatalf("grid32.bits holds %d answers, want 200", len(saved))
	}
	grid32, fresh := load("grid32.snap"), gridModel(32)
	for qi, q := range randQueries(200) {
		got, want := grid32.Estimate(q), fresh.Estimate(q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("grid32 query %d: %#x, gridModel(32) %#x", qi, math.Float64bits(got), math.Float64bits(want))
		}
		if old := math.Float64frombits(saved[qi]); math.Abs(got-old) > 1e-12 {
			t.Fatalf("grid32 query %d: %v, saved %v", qi, got, old)
		}
	}

	forged, ref := load("grid16_nanroot.snap"), gridModel(16)
	queries := append(randQueries(200), geom.UnitCube(2))
	for qi, q := range queries {
		if a, b := ref.Estimate(q), forged.Estimate(q); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("forged-tree snapshot answers query %d with %v, gridModel(16) with %v", qi, b, a)
		}
	}
}

// TestLoadAnySniffsFormat checks both formats load through LoadAny.
func TestLoadAnySniffsFormat(t *testing.T) {
	orig := gridModel(8)

	var jbuf bytes.Buffer
	if err := Save(&jbuf, orig); err != nil {
		t.Fatal(err)
	}
	jm, err := LoadAny(bytes.NewReader(jbuf.Bytes()))
	if err != nil {
		t.Fatalf("LoadAny(json): %v", err)
	}
	bm, err := LoadAny(bytes.NewReader(snapshot(t, orig)))
	if err != nil {
		t.Fatalf("LoadAny(binary): %v", err)
	}
	q := geom.Box{Lo: geom.Point{0.1, 0.1}, Hi: geom.Point{0.6, 0.7}}
	if a, b := jm.Estimate(q), bm.Estimate(q); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("formats disagree: %v vs %v", a, b)
	}
	if _, err := LoadAnyBytes(jbuf.Bytes()); err != nil {
		t.Fatalf("LoadAnyBytes(json): %v", err)
	}
}

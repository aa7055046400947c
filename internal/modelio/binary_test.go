package modelio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/gmm"
	"repro/internal/hist"
	"repro/internal/isomer"
	"repro/internal/ptshist"
	"repro/internal/quicksel"
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
		check(t, &quicksel.Model{Buckets: g.Buckets, Weights: g.Weights})
	})
	t.Run("isomer", func(t *testing.T) {
		g := gridModel(16)
		check(t, &isomer.Model{Buckets: g.Buckets, Weights: g.Weights})
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
	data := snapshot(t, gridModel(16))
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		b := append([]byte(nil), data...)
		pos := rng.Intn(len(b))
		b[pos] ^= 1 << uint(rng.Intn(8))
		m, err := LoadBinary(b)
		if err == nil {
			// A flipped padding byte inside a section would change its
			// CRC, so a successful load means the flip landed in dead
			// header space; the model must still validate.
			if verr := validate(m); verr != nil {
				t.Fatalf("flip at %d: loaded invalid model: %v", pos, verr)
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

// TestBinaryRejectsTreeReachingBucketTwice: a snapshot whose checksums
// are all valid but whose tree reaches one bucket twice (leafIdx[1] =
// leafIdx[0]) must fail as an invalid model, not load a tree that counts
// that bucket's weight twice.
func TestBinaryRejectsTreeReachingBucketTwice(t *testing.T) {
	data := snapshot(t, gridModel(16))
	const maxSecs = 3
	for i := 0; i < maxSecs; i++ {
		e := data[16+32*i:]
		if binary.LittleEndian.Uint32(e) != secBVH {
			continue
		}
		sec := data[binary.LittleEndian.Uint64(e[8:]):][:binary.LittleEndian.Uint64(e[16:])]
		dim := int(binary.LittleEndian.Uint32(sec))
		nodes := int(binary.LittleEndian.Uint64(sec[8:]))
		leafIdx := sec[24+2*8*nodes*dim+4*4*nodes:]
		copy(leafIdx[4:8], leafIdx[0:4])
		binary.LittleEndian.PutUint32(e[24:], crc32.ChecksumIEEE(sec))
		crcOff := 16 + maxSecs*32
		binary.LittleEndian.PutUint32(data[crcOff:], crc32.ChecksumIEEE(data[:crcOff]))
		if _, err := LoadBinary(data); !errors.Is(err, ErrInvalidModel) {
			t.Fatalf("LoadBinary = %v, want ErrInvalidModel", err)
		}
		return
	}
	t.Fatal("snapshot has no BVH section")
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

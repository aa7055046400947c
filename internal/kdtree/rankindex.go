package kdtree

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"repro/internal/geom"
)

// rankIndex counts the points inside an axis-aligned box without a tree
// walk. For each dimension it keeps the points sorted by that coordinate,
// and prefix bitsets over point ids of that order at every step-th
// position. The points whose coordinate lies in [lo, hi] fill one run
// [i0, i1) of the sorted order. That run's bitset is the XOR of two
// checkpoints, fixed up by at most two partial blocks of single-bit
// flips. A box's count is the popcount of the AND of its dimensions'
// bitsets.
//
// In 5-D, a kd-tree of 32-point leaves splits each axis only about twice,
// so a box whose sides reach 1 straddles almost every leaf, and the walk
// is a near-full scan. The index pays O(n/64) words per dimension the box
// constrains, however large the box is.
type rankIndex struct {
	n     int // points
	words int // ⌈n/64⌉, the length of one bitset
	step  int // checkpoint spacing, a multiple of 64
	dims  []rankDim
	// pool holds *rankScratch. It is allocated apart from the index: the
	// runtime lists every used pool until the GC after next, and a pool
	// inside the index would keep the whole index alive that long.
	pool *sync.Pool
}

// rankDim is one dimension's share of the index.
type rankDim struct {
	sorted []float64 // the coordinates in ascending order
	ids    []int32   // ids[i] is the point whose coordinate is sorted[i]
	// marks holds checkpoint k = 0 … n/step in words [k·words, (k+1)·words):
	// the bitset of ids[:k·step].
	marks []uint64
}

// rankScratch is one count's working memory.
type rankScratch struct {
	acc, set []uint64 // the running AND, one dimension's bitset
	runs     []run    // the dimensions the box constrains
}

// run is the sorted positions [i0, i1) of dimension a that a box keeps.
type run struct{ a, i0, i1 int }

// checkpointsPerDim sets the checkpoint spacing to about n/64 positions,
// so a dimension's checkpoints take about as many words as it has
// points: memory stays linear in n.
const checkpointsPerDim = 64

// newRankIndex indexes the points, which all have dimension d. It returns
// nil when a coordinate is NaN: Box.Contains admits a NaN coordinate on
// every side, which no sorted order can express. It also returns nil
// for more points than an int32 id can name.
func newRankIndex(points []geom.Point, d int) *rankIndex {
	if len(points) > math.MaxInt32 {
		return nil
	}
	for _, p := range points {
		for _, v := range p {
			if math.IsNaN(v) {
				return nil
			}
		}
	}
	n := len(points)
	words := (n + 63) / 64
	step := max(64, (n/checkpointsPerDim+63)&^63)
	ix := &rankIndex{n: n, words: words, step: step, dims: make([]rankDim, d)}
	col := make([]float64, n) // coordinate a of every point, by id
	for a := range ix.dims {
		for i, p := range points {
			col[i] = p[a]
		}
		rd := &ix.dims[a]
		rd.ids = make([]int32, n)
		for i := range rd.ids {
			rd.ids[i] = int32(i)
		}
		slices.SortFunc(rd.ids, func(x, y int32) int {
			if col[x] < col[y] {
				return -1
			}
			if col[x] > col[y] {
				return 1
			}
			return 0
		})
		rd.sorted = make([]float64, n)
		for i, id := range rd.ids {
			rd.sorted[i] = col[id]
		}
		rd.marks = make([]uint64, (n/step+1)*words)
		for k := 1; k <= n/step; k++ {
			cur := rd.marks[k*words : (k+1)*words]
			copy(cur, rd.marks[(k-1)*words:k*words])
			for _, id := range rd.ids[(k-1)*step : k*step] {
				cur[id>>6] |= 1 << (uint(id) & 63)
			}
		}
	}
	ix.pool = &sync.Pool{New: func() any {
		return &rankScratch{acc: make([]uint64, words), set: make([]uint64, words), runs: make([]run, 0, d)}
	}}
	return ix
}

// count returns the number of indexed points inside b, which has the
// index's dimension. A NaN corner bounds nothing, as in Box.Contains:
// no comparison with it holds, so that side's search returns 0 (lo) or
// n (hi).
func (ix *rankIndex) count(b geom.Box) int {
	sc := ix.pool.Get().(*rankScratch)
	defer ix.pool.Put(sc)
	sc.runs = sc.runs[:0]
	for a := range ix.dims {
		s := ix.dims[a].sorted
		// The same tests as geom.Box.Contains: a point is out when
		// p < lo or p > hi.
		i0 := sort.Search(ix.n, func(i int) bool { return !(s[i] < b.Lo[a]) })
		i1 := sort.Search(ix.n, func(i int) bool { return s[i] > b.Hi[a] })
		if i1 <= i0 {
			return 0
		}
		if i0 == 0 && i1 == ix.n {
			continue
		}
		sc.runs = append(sc.runs, run{a, i0, i1})
	}
	if len(sc.runs) == 0 {
		return ix.n
	}
	ix.runSet(sc.acc, sc.runs[0])
	for _, r := range sc.runs[1:] {
		ix.runSet(sc.set, r)
		for w, x := range sc.set {
			sc.acc[w] &= x
		}
	}
	c := 0
	for _, x := range sc.acc {
		c += bits.OnesCount64(x)
	}
	return c
}

// runSet writes into dst the bitset of the points in run r: the
// checkpoints at or below each end, XORed, then the ids from the upper
// checkpoint to i1 set and those from the lower checkpoint to i0
// cleared. Setting comes first: when both ends fall in one block the XOR
// is empty, and the cleared ids are among the ones just set.
func (ix *rankIndex) runSet(dst []uint64, r run) {
	rd, i0, i1 := &ix.dims[r.a], r.i0, r.i1
	k0, k1 := i0/ix.step, i1/ix.step
	c0 := rd.marks[k0*ix.words : (k0+1)*ix.words]
	c1 := rd.marks[k1*ix.words : (k1+1)*ix.words]
	for w := range dst {
		dst[w] = c1[w] ^ c0[w]
	}
	for _, id := range rd.ids[k1*ix.step : i1] {
		dst[id>>6] |= 1 << (uint(id) & 63)
	}
	for _, id := range rd.ids[k0*ix.step : i0] {
		dst[id>>6] &^= 1 << (uint(id) & 63)
	}
}

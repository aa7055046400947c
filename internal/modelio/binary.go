package modelio

// Binary snapshot format (DESIGN.md §15). The JSON envelope is the
// interchange format; the binary snapshot is the replica cold-start
// fast-path: a versioned container (magic + CRC + section table) whose
// sections store the model's arrays in exactly the flat little-endian
// layouts the estimator consumes. Loading therefore decodes weights and
// bucket corners directly into the structure-of-arrays buffers the tree
// walks read — on little-endian machines as zero-copy views over the file
// bytes. The BVH is derived state: a snapshot stores only its leaf order,
// the one thing the bucket sort decides (the tree's shape follows from the
// bucket count), and the load rebuilds the tree from that order, the
// buckets and the weights with bvh.FromOrder, so core.Accelerate after
// LoadBinary sorts nothing and no stored array can disagree with the
// weights.
//
// Layout (all integers little-endian):
//
//	off  0  magic "SELSNP01"
//	off  8  u16 version | u8 model type tag | u8 section count | u32 zero
//	off 16  count × section entry: u32 id | u32 zero | u64 off | u64 len | u32 crc32 | u32 zero
//	then    u32 crc32 of everything above | u32 zero
//	then    sections, each 8-byte aligned, at the table's absolute offsets
//
// Section ids: BOXS (u32 dim | u32 zero | u64 count | count·dim f64 lo |
// count·dim f64 hi), WGTS (u64 count | count f64), PNTS (like BOXS with
// one coord block), GMMC (u32 dim | u32 zero | u64 count | means | sigmas),
// ORDR (u64 count | count i32 bucket ids in leaf order). Id 5 is reserved:
// older snapshots stored the tree's arrays there, and a load ignores it.
// Every f64 block begins 8-byte aligned so loads can alias the file
// buffer. CRC32 (IEEE) is checked per section and over the header before
// any section is decoded; failures wrap ErrMalformed. A leaf order that is
// not a permutation of the bucket ids is caught by bvh.FromOrder and wraps
// ErrInvalidModel.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"

	"repro/internal/bvh"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/gmm"
	"repro/internal/hist"
	"repro/internal/ptshist"
)

// BinaryMagic is the 8-byte snapshot signature; LoadAny sniffs it to
// dispatch between the binary and JSON loaders.
const BinaryMagic = "SELSNP01"

// BinaryVersion is the current snapshot container version.
const BinaryVersion = 1

// Model type tags. These are wire constants: never renumber.
const (
	tagQuadhist = 1
	tagPtshist  = 2
	tagQuicksel = 3
	tagIsomer   = 4
	tagGaussmix = 5
)

// Section ids. Wire constants: never renumber.
const (
	secBoxes = 1 // bucket corners, SoA: all los then all his
	secWgts  = 2 // model weights
	secPts   = 3 // point coordinates (ptshist)
	secGmm   = 4 // component means + sigmas (gaussmix)
	secBVH   = 5 // reserved: older snapshots' BVH arrays, ignored on load
	secOrder = 6 // the BVH's leaf order: bucket ids
)

// nativeLE reports whether this machine stores floats little-endian, the
// precondition for aliasing f64 sections instead of copying them.
var nativeLE = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// ---- writer ----

type binWriter struct {
	buf  []byte
	secs []struct {
		id     uint32
		off, n uint64
		crc    uint32
	}
}

func (w *binWriter) pad8() {
	for len(w.buf)%8 != 0 {
		w.buf = append(w.buf, 0)
	}
}

func (w *binWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *binWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

func (w *binWriter) f64s(vs []float64) {
	off := len(w.buf)
	w.buf = append(w.buf, make([]byte, 8*len(vs))...)
	for i, v := range vs {
		binary.LittleEndian.PutUint64(w.buf[off+8*i:], math.Float64bits(v))
	}
}

func (w *binWriter) i32s(vs []int32) {
	off := len(w.buf)
	w.buf = append(w.buf, make([]byte, 4*len(vs))...)
	for i, v := range vs {
		binary.LittleEndian.PutUint32(w.buf[off+4*i:], uint32(v))
	}
}

// section runs body to append one section's bytes and records its table
// entry.
func (w *binWriter) section(id uint32, body func()) {
	w.pad8()
	start := len(w.buf)
	body()
	w.secs = append(w.secs, struct {
		id     uint32
		off, n uint64
		crc    uint32
	}{id, uint64(start), uint64(len(w.buf) - start), crc32.ChecksumIEEE(w.buf[start:])})
}

// flatCorners flattens bucket corners into SoA lo/hi arrays.
func flatCorners(buckets []geom.Box) (lo, hi []float64, dim int) {
	if len(buckets) == 0 {
		return nil, nil, 0
	}
	dim = buckets[0].Dim()
	lo = make([]float64, 0, len(buckets)*dim)
	hi = make([]float64, 0, len(buckets)*dim)
	for _, b := range buckets {
		lo = append(lo, b.Lo...)
		hi = append(hi, b.Hi...)
	}
	return lo, hi, dim
}

// SaveBinary writes the model as a binary snapshot. The model is
// accelerated first (core.Accelerate), so box-bucketed models at or above
// the indexing threshold persist their BVH's leaf order and replicas skip
// the sort on load.
func SaveBinary(w io.Writer, m core.Model) error {
	_, tag, ok := kindOf(m)
	if !ok {
		return fmt.Errorf("modelio: unsupported model type %T", m)
	}
	core.Accelerate(m)

	// Reserve the fixed header; section offsets are absolute, so the
	// header size must be known up front. Section count is patched below.
	const maxSecs = 3
	headerLen := 16 + maxSecs*32 + 8
	var bw binWriter
	bw.buf = make([]byte, headerLen)

	switch t := m.(type) {
	case *hist.Model:
		lo, hi, dim := flatCorners(t.Buckets)
		bw.section(secBoxes, func() {
			bw.u32(uint32(dim))
			bw.u32(0)
			bw.u64(uint64(len(t.Buckets)))
			bw.f64s(lo)
			bw.f64s(hi)
		})
		bw.section(secWgts, func() {
			bw.u64(uint64(len(t.Weights)))
			bw.f64s(t.Weights)
		})
		if tree := t.IndexTree(); tree != nil {
			bw.section(secOrder, func() {
				bw.u64(uint64(tree.Len()))
				bw.i32s(tree.Order())
			})
		}
	case *ptshist.Model:
		dim := 0
		if len(t.Points) > 0 {
			dim = len(t.Points[0])
		}
		bw.section(secPts, func() {
			bw.u32(uint32(dim))
			bw.u32(0)
			bw.u64(uint64(len(t.Points)))
			for _, p := range t.Points {
				bw.f64s(p)
			}
		})
		bw.section(secWgts, func() {
			bw.u64(uint64(len(t.Weights)))
			bw.f64s(t.Weights)
		})
	case *gmm.Model:
		dim := 0
		if len(t.Components) > 0 {
			dim = len(t.Components[0].Mean)
		}
		bw.section(secGmm, func() {
			bw.u32(uint32(dim))
			bw.u32(0)
			bw.u64(uint64(len(t.Components)))
			for _, c := range t.Components {
				bw.f64s(c.Mean)
			}
			for _, c := range t.Components {
				bw.f64s([]float64{c.Sigma})
			}
		})
		bw.section(secWgts, func() {
			bw.u64(uint64(len(t.Weights)))
			bw.f64s(t.Weights)
		})
	}

	// Fill the header in place.
	h := bw.buf[:headerLen]
	copy(h[0:8], BinaryMagic)
	binary.LittleEndian.PutUint16(h[8:], BinaryVersion)
	h[10] = byte(tag)
	h[11] = byte(len(bw.secs))
	for i, s := range bw.secs {
		e := h[16+32*i:]
		binary.LittleEndian.PutUint32(e[0:], s.id)
		binary.LittleEndian.PutUint64(e[8:], s.off)
		binary.LittleEndian.PutUint64(e[16:], s.n)
		binary.LittleEndian.PutUint32(e[24:], s.crc)
	}
	crcOff := 16 + maxSecs*32
	binary.LittleEndian.PutUint32(h[crcOff:], crc32.ChecksumIEEE(h[:crcOff]))

	_, err := w.Write(bw.buf)
	return err
}

// ---- reader ----

// binReader is a bounds-checked cursor over one section's bytes.
type binReader struct {
	b []byte
	i int
}

func (r *binReader) u32() (uint32, error) {
	if len(r.b)-r.i < 4 {
		return 0, fmt.Errorf("%w: truncated section", ErrMalformed)
	}
	v := binary.LittleEndian.Uint32(r.b[r.i:])
	r.i += 4
	return v, nil
}

func (r *binReader) u64() (uint64, error) {
	if len(r.b)-r.i < 8 {
		return 0, fmt.Errorf("%w: truncated section", ErrMalformed)
	}
	v := binary.LittleEndian.Uint64(r.b[r.i:])
	r.i += 8
	return v, nil
}

// count validates an element count against the remaining section bytes
// (elemSize bytes each) before anything is allocated.
func (r *binReader) count(n uint64, elemSize int) (int, error) {
	if n > uint64((len(r.b)-r.i)/elemSize) {
		return 0, fmt.Errorf("%w: count exceeds section size", ErrMalformed)
	}
	return int(n), nil
}

// f64s reads n float64s. On a little-endian machine with the section
// properly aligned this is a zero-copy view over the snapshot bytes;
// otherwise it decodes into a fresh slice.
func (r *binReader) f64s(n int) ([]float64, error) {
	if n > (len(r.b)-r.i)/8 {
		return nil, fmt.Errorf("%w: truncated float block", ErrMalformed)
	}
	raw := r.b[r.i : r.i+8*n]
	r.i += 8 * n
	if n == 0 {
		return nil, nil
	}
	if nativeLE && (uintptr(unsafe.Pointer(&raw[0])))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&raw[0])), n), nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out, nil
}

// i32s reads n int32s, zero-copy when possible.
func (r *binReader) i32s(n int) ([]int32, error) {
	if n > (len(r.b)-r.i)/4 {
		return nil, fmt.Errorf("%w: truncated int block", ErrMalformed)
	}
	raw := r.b[r.i : r.i+4*n]
	r.i += 4 * n
	if n == 0 {
		return nil, nil
	}
	if nativeLE && (uintptr(unsafe.Pointer(&raw[0])))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&raw[0])), n), nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out, nil
}

// boxViews builds []geom.Box whose corners alias windows of the flat
// lo/hi arrays — the same aliasing the BVH builder's SoA layout uses.
func boxViews(lo, hi []float64, m, d int) []geom.Box {
	boxes := make([]geom.Box, m)
	for j := 0; j < m; j++ {
		boxes[j] = geom.Box{
			Lo: geom.Point(lo[j*d : (j+1)*d : (j+1)*d]),
			Hi: geom.Point(hi[j*d : (j+1)*d : (j+1)*d]),
		}
	}
	return boxes
}

// IsBinary reports whether data begins with the binary snapshot magic.
func IsBinary(data []byte) bool {
	return len(data) >= len(BinaryMagic) && string(data[:len(BinaryMagic)]) == BinaryMagic
}

// LoadBinary reads a model written by SaveBinary. On little-endian
// machines the model's float arrays are views over data, which therefore
// must not be mutated afterwards. Checksum and structural failures wrap
// ErrMalformed; a well-formed container holding an invalid model wraps
// ErrInvalidModel.
func LoadBinary(data []byte) (core.Model, error) {
	const maxSecs = 3
	const headerLen = 16 + maxSecs*32 + 8
	if len(data) < headerLen || !IsBinary(data) {
		return nil, fmt.Errorf("%w: not a binary snapshot", ErrMalformed)
	}
	if v := binary.LittleEndian.Uint16(data[8:]); v != BinaryVersion {
		return nil, fmt.Errorf("%w: snapshot version %d, want %d", ErrUnknownVersion, v, BinaryVersion)
	}
	tag := int(data[10])
	nsec := int(data[11])
	if nsec > maxSecs {
		return nil, fmt.Errorf("%w: %d sections", ErrMalformed, nsec)
	}
	crcOff := 16 + maxSecs*32
	if crc32.ChecksumIEEE(data[:crcOff]) != binary.LittleEndian.Uint32(data[crcOff:]) {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrMalformed)
	}

	secs := map[uint32]*binReader{}
	for i := 0; i < nsec; i++ {
		e := data[16+32*i:]
		id := binary.LittleEndian.Uint32(e[0:])
		off := binary.LittleEndian.Uint64(e[8:])
		n := binary.LittleEndian.Uint64(e[16:])
		crc := binary.LittleEndian.Uint32(e[24:])
		if off > uint64(len(data)) || n > uint64(len(data))-off {
			return nil, fmt.Errorf("%w: section %d out of range", ErrMalformed, id)
		}
		sec := data[off : off+n]
		if crc32.ChecksumIEEE(sec) != crc {
			return nil, fmt.Errorf("%w: section %d checksum mismatch", ErrMalformed, id)
		}
		secs[id] = &binReader{b: sec}
	}

	readWeights := func() ([]float64, error) {
		r := secs[secWgts]
		if r == nil {
			return nil, fmt.Errorf("%w: missing weights section", ErrMalformed)
		}
		n64, err := r.u64()
		if err != nil {
			return nil, err
		}
		n, err := r.count(n64, 8)
		if err != nil {
			return nil, err
		}
		return r.f64s(n)
	}

	// readBoxes decodes BOXS into aliased buckets plus the flat corner
	// arrays (handed to bvh.FromOrder so the tree shares them too).
	readBoxes := func() (buckets []geom.Box, lo, hi []float64, dim int, err error) {
		r := secs[secBoxes]
		if r == nil {
			return nil, nil, nil, 0, fmt.Errorf("%w: missing boxes section", ErrMalformed)
		}
		d32, err := r.u32()
		if err != nil {
			return nil, nil, nil, 0, err
		}
		if _, err := r.u32(); err != nil {
			return nil, nil, nil, 0, err
		}
		n64, err := r.u64()
		if err != nil {
			return nil, nil, nil, 0, err
		}
		d := int(d32)
		if d <= 0 || d > 1<<12 {
			return nil, nil, nil, 0, fmt.Errorf("%w: snapshot dimension %d", ErrMalformed, d)
		}
		m, err := r.count(n64, 16*d)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		if lo, err = r.f64s(m * d); err != nil {
			return nil, nil, nil, 0, err
		}
		if hi, err = r.f64s(m * d); err != nil {
			return nil, nil, nil, 0, err
		}
		return boxViews(lo, hi, m, d), lo, hi, d, nil
	}

	// readOrder rebuilds the BVH over a persisted leaf order and seeds it.
	// A snapshot without one (a model below the indexing threshold, or one
	// whose tree sat in the reserved section) builds its index on demand.
	readOrder := func(hm *hist.Model, lo, hi []float64) error {
		r := secs[secOrder]
		if r == nil {
			return nil
		}
		n64, err := r.u64()
		if err != nil {
			return err
		}
		n, err := r.count(n64, 4)
		if err != nil {
			return err
		}
		order, err := r.i32s(n)
		if err != nil {
			return err
		}
		t, err := bvh.FromOrder(hm.Buckets, hm.Weights, lo, hi, order)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidModel, err)
		}
		hm.SeedIndex(t)
		return nil
	}

	family, isBox := boxFamily(func(_ string, t int) bool { return t == tag })
	var m core.Model
	switch {
	case isBox:
		buckets, lo, hi, _, err := readBoxes()
		if err != nil {
			return nil, err
		}
		weights, err := readWeights()
		if err != nil {
			return nil, err
		}
		hm := &hist.Model{Buckets: buckets, Weights: weights, Family: family}
		if err := validate(hm); err != nil {
			return nil, err
		}
		if err := readOrder(hm, lo, hi); err != nil {
			return nil, err
		}
		m = hm
	case tag == tagPtshist:
		r := secs[secPts]
		if r == nil {
			return nil, fmt.Errorf("%w: missing points section", ErrMalformed)
		}
		d32, err := r.u32()
		if err != nil {
			return nil, err
		}
		if _, err := r.u32(); err != nil {
			return nil, err
		}
		n64, err := r.u64()
		if err != nil {
			return nil, err
		}
		d := int(d32)
		if d <= 0 || d > 1<<12 {
			return nil, fmt.Errorf("%w: snapshot dimension %d", ErrMalformed, d)
		}
		n, err := r.count(n64, 8*d)
		if err != nil {
			return nil, err
		}
		coords, err := r.f64s(n * d)
		if err != nil {
			return nil, err
		}
		pts := make([]geom.Point, n)
		for j := range pts {
			pts[j] = geom.Point(coords[j*d : (j+1)*d : (j+1)*d])
		}
		weights, err := readWeights()
		if err != nil {
			return nil, err
		}
		m = &ptshist.Model{Points: pts, Weights: weights}
		if err := validate(m); err != nil {
			return nil, err
		}
	case tag == tagGaussmix:
		r := secs[secGmm]
		if r == nil {
			return nil, fmt.Errorf("%w: missing components section", ErrMalformed)
		}
		d32, err := r.u32()
		if err != nil {
			return nil, err
		}
		if _, err := r.u32(); err != nil {
			return nil, err
		}
		n64, err := r.u64()
		if err != nil {
			return nil, err
		}
		d := int(d32)
		if d <= 0 || d > 1<<12 {
			return nil, fmt.Errorf("%w: snapshot dimension %d", ErrMalformed, d)
		}
		n, err := r.count(n64, 8*d+8)
		if err != nil {
			return nil, err
		}
		means, err := r.f64s(n * d)
		if err != nil {
			return nil, err
		}
		sigmas, err := r.f64s(n)
		if err != nil {
			return nil, err
		}
		comps := make([]gmm.Component, n)
		for k := range comps {
			comps[k] = gmm.Component{Mean: geom.Point(means[k*d : (k+1)*d : (k+1)*d]), Sigma: sigmas[k]}
		}
		weights, err := readWeights()
		if err != nil {
			return nil, err
		}
		m = &gmm.Model{Components: comps, Weights: weights}
		if err := validate(m); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: binary tag %d", ErrUnknownType, tag)
	}
	return m, nil
}

// LoadAny reads a model in either format, sniffing the binary magic.
func LoadAny(r io.Reader) (core.Model, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(BinaryMagic))
	if err == nil && IsBinary(head) {
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("%w: read: %v", ErrMalformed, err)
		}
		return LoadBinary(data)
	}
	return Load(br)
}

// LoadAnyBytes is LoadAny over an in-memory snapshot, avoiding the copy
// for callers that already hold the bytes.
func LoadAnyBytes(data []byte) (core.Model, error) {
	if IsBinary(data) {
		return LoadBinary(data)
	}
	return Load(bytes.NewReader(data))
}

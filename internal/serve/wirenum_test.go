package serve

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/load"
	"repro/internal/rng"
)

// TestWireNumberMatchesStrconv renders random doubles the ways a client
// may ('g', 'e' and 'f' shortest forms, and 19 significant digits) and
// random 1–19-digit mantissas with exponents up to ±25, and requires
// parseFloat to return strconv.ParseFloat's bits for every one.
func TestWireNumberMatchesStrconv(t *testing.T) {
	r := rng.New(27)
	check := func(tok []byte) {
		p := wireParser{b: tok}
		got, err := p.parseFloat()
		want, werr := strconv.ParseFloat(string(tok), 64)
		if err != nil || werr != nil || p.i != len(tok) {
			t.Fatalf("%s: parser error %v at %d, strconv error %v", tok, err, p.i, werr)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: parsed %v (bits %x), strconv says %v (bits %x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	var tok []byte
	for i := 0; i < 100000; i++ {
		var f float64
		switch i % 4 {
		case 0:
			if f = math.Float64frombits(r.Uint64()); math.IsNaN(f) || math.IsInf(f, 0) {
				continue
			}
		case 1:
			f = r.Float64()
		case 2:
			f = (r.Float64() + 0.5) * math.Pow(10, float64(r.IntN(40)-20))
		case 3:
			nd := 1 + r.IntN(19)
			tok = append(tok[:0], byte('1'+r.IntN(9)))
			for j := 1; j < nd; j++ {
				tok = append(tok, byte('0'+r.IntN(10)))
			}
			tok = append(tok, 'e')
			check(strconv.AppendInt(tok, int64(r.IntN(51)-25), 10))
			continue
		}
		for _, fmt := range []byte{'g', 'e', 'f'} {
			check(strconv.AppendFloat(tok[:0], f, fmt, -1, 64))
		}
		check(strconv.AppendFloat(tok[:0], f, 'e', 18, 64))
	}
}

// TestWireNumberPathShares counts which conversion path the numbers of
// the load harness's bodies take: the input property the scanner's speed
// rests on. The bodies are rendered by internal/load, from its own
// traffic classes and from data-driven boxes over Power-2D of the kind
// the serving benchmark sends, with feedback labeled by exact counts.
// Every number must convert with strconv's bits whichever path it takes.
func TestWireNumberPathShares(t *testing.T) {
	ds := dataset.Power(dataset.DefaultPowerSize, 1).Project([]int{0, 1})
	tree := kdtree.Build(ds.Points)
	r := rng.New(11)
	dataBoxes := func(n int) []geom.Range {
		qs := make([]geom.Range, n)
		for i := range qs {
			c := ds.Points[r.IntN(len(ds.Points))]
			qs[i] = geom.BoxFromCenter(c, []float64{r.Float64(), r.Float64()})
		}
		return qs
	}
	bodies := map[string][][]byte{}
	for i := uint64(0); i < 200; i++ {
		ev := load.Event{Seed: i + 1}
		ev.Class = load.ClassSingle
		bodies["load single"] = append(bodies["load single"], load.SingleBody("", load.EventQueries(ev)[0]))
		ev.Class = load.ClassBatch
		bodies["load batch"] = append(bodies["load batch"], load.BatchBody("", load.EventQueries(ev)))
		ev.Class = load.ClassStream
		bodies["load stream"] = append(bodies["load stream"], load.StreamBody(load.EventQueries(ev)))
		ev.Class = load.ClassFeedback
		qs, sels := load.EventFeedback(ev)
		bodies["load feedback"] = append(bodies["load feedback"], load.FeedbackBody("", qs, sels))

		bodies["data single"] = append(bodies["data single"], load.SingleBody("", dataBoxes(1)[0]))
		bodies["data batch"] = append(bodies["data batch"], load.BatchBody("", dataBoxes(load.BatchQueries)))
		bodies["data stream"] = append(bodies["data stream"], load.StreamBody(dataBoxes(load.StreamQueries)))
		qs = dataBoxes(load.FeedbackObs)
		for i, q := range qs {
			sels[i] = tree.Selectivity(q)
		}
		bodies["data feedback"] = append(bodies["data feedback"], load.FeedbackBody("", qs, sels))
	}
	names := []string{"load single", "load batch", "load stream", "load feedback", "data single", "data batch", "data stream", "data feedback"}
	var all [3]int
	for _, name := range names {
		var n [3]int
		for _, body := range bodies[name] {
			for i := 0; i < len(body); i++ {
				if c := body[i]; c != '-' && (c < '0' || c > '9') {
					continue
				}
				end, _, m, nd, e10, err := scanNumber(body, i)
				if err != nil {
					t.Fatalf("%s: %v in %s", name, err, body)
				}
				n[numberPath(m, nd, e10)]++
				p := wireParser{b: body[i:end]}
				got, _ := p.parseFloat()
				want, _ := strconv.ParseFloat(string(body[i:end]), 64)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: %s parsed %v, strconv says %v", name, body[i:end], got, want)
				}
				i = end
			}
		}
		total := n[0] + n[1] + n[2]
		t.Logf("%-13s %6d numbers: float path %5.1f%%, integer path %5.1f%%, strconv %5.2f%%", name, total,
			100*float64(n[pathFloat])/float64(total), 100*float64(n[pathInteger])/float64(total), 100*float64(n[pathStrconv])/float64(total))
		for k := range all {
			all[k] += n[k]
		}
	}
	total := all[0] + all[1] + all[2]
	t.Logf("%-13s %6d numbers: float path %5.1f%%, integer path %5.1f%%, strconv %5.2f%%", "all", total,
		100*float64(all[pathFloat])/float64(total), 100*float64(all[pathInteger])/float64(total), 100*float64(all[pathStrconv])/float64(total))
	if all[pathStrconv]*100 > total {
		t.Fatalf("%d of %d numbers fall back to strconv; the fast paths should take all but a few", all[pathStrconv], total)
	}
}

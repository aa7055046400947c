package experiments

import (
	"bytes"
	"os"
	"runtime"
	"testing"
	"time"
)

// wallClockResults are the results whose cells report training or
// prediction wall time, so their bytes change from run to run.
var wallClockResults = map[string]bool{
	"ext_predtime": true,
	"fig12":        true,
	"fig19":        true,
	"fig21":        true,
	"fig23":        true,
	"fig33":        true,
	"fig36":        true,
	"fig39":        true,
	"fig42":        true,
	"fig45":        true,
	"fig48":        true,
	"fig51":        true,
}

// TestRenderGolden runs every registered experiment at a tiny fixed-seed
// config and compares the rendered tables, less the wall-clock results,
// with testdata/render_tiny.golden. A change that moves any estimate,
// trained weight or table cell shows here as a diff. On a mismatch the
// full render is written to a temporary file whose path the failure
// prints, so a deliberate change replaces the golden with one cp. The
// bits are recorded on amd64, which never fuses a multiply-add.
func TestRenderGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("rendered bits are recorded for amd64, which never fuses a multiply-add")
	}
	if raceEnabled {
		t.Skip("the render takes about 30 s under -race; its bytes are checked without it")
	}
	cfg := Config{
		Seed:             1,
		TrainSizes:       []int{30, 60},
		TestQueries:      60,
		DataSize:         2000,
		BucketMultiplier: 4,
		IsomerMaxTrain:   30,
		IsomerBudget:     time.Second,
		Dims:             []int{2, 3},
		Fig9Buckets:      []int{10, 40},
	}
	var got bytes.Buffer
	for _, id := range IDs() {
		rs, err := Run(id, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, r := range rs {
			if wallClockResults[r.ID] {
				continue
			}
			if err := r.Render(&got); err != nil {
				t.Fatalf("%s: render: %v", r.ID, err)
			}
		}
	}
	want, err := os.ReadFile("testdata/render_tiny.golden")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	f, err := os.CreateTemp("", "render_tiny-*.golden")
	if err != nil {
		t.Fatal(err)
	}
	_, werr := f.Write(got.Bytes())
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		t.Fatal(werr)
	}
	g := bytes.Split(got.Bytes(), []byte("\n"))
	w := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if i >= len(g) || i >= len(w) || !bytes.Equal(gl, wl) {
			t.Fatalf("render differs from testdata/render_tiny.golden at line %d:\n  got:  %s\n  want: %s\nfull render: %s", i+1, gl, wl, f.Name())
		}
	}
}

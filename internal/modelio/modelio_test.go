package modelio

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/gmm"
	"repro/internal/hist"
	"repro/internal/isomer"
	"repro/internal/ptshist"
	"repro/internal/quicksel"
	"repro/internal/workload"
)

func fixture(t *testing.T) ([]core.LabeledQuery, []core.LabeledQuery) {
	t.Helper()
	ds := dataset.Power(4000, 1).Project([]int{0, 1})
	g := workload.NewGenerator(ds, 42)
	spec := workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}
	return g.TrainTest(spec, 60, 80)
}

func roundTrip(t *testing.T, m core.Model) core.Model {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestRoundTripAllModelTypes(t *testing.T) {
	train, test := fixture(t)
	trainers := []core.Trainer{
		hist.New(2, 200),
		ptshist.New(2, 200, 3),
		quicksel.New(2, 5),
		isomer.New(2),
		gmm.New(2, 30, 7),
	}
	for _, tr := range trainers {
		m, err := tr.Train(train)
		if err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		got := roundTrip(t, m)
		// A loader that dropped the family would still estimate the same.
		want, _ := TypeName(m)
		if name, _ := TypeName(got); name != want {
			t.Fatalf("%s: saved as %s, loaded as %s", tr.Name(), want, name)
		}
		// Identical estimates on every test query.
		for _, z := range test {
			a, b := m.Estimate(z.R), got.Estimate(z.R)
			if math.Abs(a-b) > 1e-12 {
				t.Fatalf("%s: estimate drift after round trip: %v vs %v", tr.Name(), a, b)
			}
		}
		if m.NumBuckets() != got.NumBuckets() {
			t.Fatalf("%s: bucket count drift", tr.Name())
		}
	}
}

func TestRoundTripNonBoxQueries(t *testing.T) {
	train, _ := fixture(t)
	m, err := ptshist.New(2, 100, 3).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, m)
	queries := []geom.Range{
		geom.NewBall(geom.Point{0.3, 0.3}, 0.2),
		geom.NewHalfspace(geom.Point{1, -1}, 0),
	}
	for _, q := range queries {
		if math.Abs(m.Estimate(q)-got.Estimate(q)) > 1e-12 {
			t.Fatalf("estimate drift for %v", q)
		}
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"garbage", "not json"},
		{"bad version", `{"version":99,"type":"quadhist","payload":{}}`},
		{"unknown type", `{"version":1,"type":"neuralnet","payload":{}}`},
		{"weight mismatch", `{"version":1,"type":"ptshist","payload":{"Points":[[0.5,0.5]],"Weights":[0.5,0.5]}}`},
		{"negative weight", `{"version":1,"type":"ptshist","payload":{"Points":[[0.5,0.5],[0.1,0.1]],"Weights":[1.5,-0.5]}}`},
		{"weights not normalized", `{"version":1,"type":"ptshist","payload":{"Points":[[0.5,0.5]],"Weights":[0.2]}}`},
		{"bad sigma", `{"version":1,"type":"gaussmix","payload":{"Components":[{"Mean":[0.5],"Sigma":0}],"Weights":[1]}}`},
		{"inverted bucket", `{"version":1,"type":"quadhist","payload":{"Buckets":[{"Lo":[0.6,0.6],"Hi":[0.4,0.4]}],"Weights":[1]}}`},
		{"ragged bucket", `{"version":1,"type":"quicksel","payload":{"Buckets":[{"Lo":[0.1],"Hi":[0.4,0.4]}],"Weights":[1]}}`},
		{"zero-dimension bucket", `{"version":1,"type":"quadhist","payload":{"Buckets":[{"Lo":[],"Hi":[]}],"Weights":[1]}}`},
		{"ragged points", `{"version":1,"type":"ptshist","payload":{"Points":[[0.5],[0.1,0.2]],"Weights":[0.5,0.5]}}`},
		{"ragged means", `{"version":1,"type":"gaussmix","payload":{"Components":[{"Mean":[0.5],"Sigma":0.1},{"Mean":[0.5,0.5],"Sigma":0.1}],"Weights":[0.5,0.5]}}`},
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c.input)); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
	// Buckets the estimator cannot evaluate: an infinite volume and an
	// infinite inverse volume.
	for _, c := range []struct {
		name string
		m    *hist.Model
	}{
		{"bucket outside the unit cube", hugeBucketModel()},
		{"uninvertible volume", tinyBucketModel()},
	} {
		var buf bytes.Buffer
		if err := Save(&buf, c.m); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); !errors.Is(err, ErrInvalidModel) {
			t.Fatalf("%s: Load = %v, want ErrInvalidModel", c.name, err)
		}
	}
}

func TestSaveRejectsForeignModel(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, fakeModel{}); err == nil {
		t.Fatal("foreign model type accepted")
	}
}

type fakeModel struct{}

func (fakeModel) Estimate(geom.Range) float64 { return 0 }
func (fakeModel) NumBuckets() int             { return 0 }

func TestLoadTypedErrors(t *testing.T) {
	// A valid envelope, then truncated at various points: every prefix
	// must fail as malformed, never panic, never succeed.
	var buf bytes.Buffer
	train, _ := fixture(t)
	m, err := ptshist.New(2, 50, 3).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	full := buf.String()
	for _, cut := range []int{0, 1, len(full) / 2, len(full) - 2} {
		_, err := Load(strings.NewReader(full[:cut]))
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("truncated at %d: got %v, want ErrMalformed", cut, err)
		}
	}

	cases := []struct {
		name  string
		input string
		want  error
	}{
		{"future version", `{"version":2,"type":"quadhist","payload":{}}`, ErrUnknownVersion},
		{"zero version", `{"version":0,"type":"quadhist","payload":{}}`, ErrUnknownVersion},
		{"unknown type", `{"version":1,"type":"neuralnet","payload":{}}`, ErrUnknownType},
		{"bad payload json", `{"version":1,"type":"quadhist","payload":"nope"}`, ErrMalformed},
		{"invalid weights", `{"version":1,"type":"ptshist","payload":{"Points":[[0.5,0.5]],"Weights":[0.2]}}`, ErrInvalidModel},
	}
	for _, c := range cases {
		_, err := Load(strings.NewReader(c.input))
		if !errors.Is(err, c.want) {
			t.Fatalf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
}

package load

import (
	"bytes"
	"sync"
	"testing"
)

// fillCollector records a fixed synthetic workload into c, spread across
// the given number of concurrently running goroutines. The observation
// set is identical regardless of goroutines — only the interleaving
// changes.
func fillCollector(c *Collector, goroutines int) {
	const n = 6000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += goroutines {
				cl := Class(i % int(NumClasses))
				cs := c.Class(cl)
				cs.Sent.Add(1)
				if i%500 == 0 {
					cs.Errors.Add(1)
					continue
				}
				v := float64(i%1000+1) * 1e-6
				cs.Intended.Observe(v * 2)
				cs.Actual.Observe(v)
			}
		}(g)
	}
	wg.Wait()
}

// TestReporterByteIdentity is the shared-reporter determinism gate: the
// same observations produce the same table and exposition bytes no matter
// how many goroutines recorded them (obs histograms and counters are
// order-independent, so a fixed seed renders identically at any worker
// count).
func TestReporterByteIdentity(t *testing.T) {
	var want []byte
	for _, goroutines := range []int{1, 4, 8} {
		c := NewCollector()
		fillCollector(c, goroutines)

		var table bytes.Buffer
		r := NewReporter(&table)
		r.ClassTable(c)
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		var expo bytes.Buffer
		if err := c.Registry().WritePrometheus(&expo); err != nil {
			t.Fatal(err)
		}
		got := append(table.Bytes(), expo.Bytes()...)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("goroutines=%d: reporter output diverged:\n--- want ---\n%s\n--- got ---\n%s",
				goroutines, want, got)
		}
	}
}

func TestCollectorTotals(t *testing.T) {
	c := NewCollector()
	c.Class(ClassSingle).Sent.Add(10)
	c.Class(ClassSingle).Errors.Add(2)
	c.Class(ClassBin).Sent.Add(5)
	if got := c.TotalSent(); got != 15 {
		t.Fatalf("TotalSent = %d, want 15", got)
	}
	if got := c.TotalErrors(); got != 2 {
		t.Fatalf("TotalErrors = %d, want 2", got)
	}
}

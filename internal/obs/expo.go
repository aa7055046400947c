package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Output is deterministic: families are sorted by
// name, series by their canonical (key-sorted) label string, and every
// value is formatted by the same shortest-round-trip rules — two
// registries holding the same values render byte-identical pages
// regardless of registration or observation order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Registration may add a family or a series at any time, so both maps
	// are read under the lock; rendering and writing happen outside it.
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	rows := make([][]*series, len(names))
	for i, name := range names {
		f := r.families[name]
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fams[i], rows[i] = f, make([]*series, len(keys))
		for j, k := range keys {
			rows[i][j] = f.series[k]
		}
	}
	r.mu.RUnlock()

	ew := &errWriter{w: w}
	for i, f := range fams {
		ew.printf("# HELP %s %s\n", f.name, escapeHelp(f.help))
		ew.printf("# TYPE %s %s\n", f.name, f.kind)
		for _, s := range rows[i] {
			writeSeries(ew, f, s)
		}
	}
	return ew.err
}

// writeSeries renders one series' sample lines.
func writeSeries(ew *errWriter, f *family, s *series) {
	switch f.kind {
	case kindCounter:
		v := s.counter.Value()
		if s.counterFn != nil {
			v = s.counterFn()
		}
		ew.printf("%s%s %d\n", f.name, s.labels, v)
	case kindGauge:
		v := s.gauge.Value()
		if s.gaugeFn != nil {
			v = s.gaugeFn()
		}
		ew.printf("%s%s %s\n", f.name, s.labels, formatValue(v))
	case kindHistogram:
		h := s.hist
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			ew.printf("%s_bucket%s %d\n", f.name, bucketLabels(s.labels, formatValue(b)), cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		ew.printf("%s_bucket%s %d\n", f.name, bucketLabels(s.labels, "+Inf"), cum)
		ew.printf("%s_sum%s %s\n", f.name, s.labels, formatValue(h.Sum()))
		ew.printf("%s_count%s %d\n", f.name, s.labels, cum)
	}
}

// bucketLabels splices the le label into a pre-rendered label string.
func bucketLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// formatValue renders a float with shortest-round-trip precision, the
// same bytes for the same bits on every run and platform.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(h string) string {
	var out []byte
	for i := 0; i < len(h); i++ {
		switch h[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, h[i])
		}
	}
	return string(out)
}

// errWriter latches the first write error so exposition code can stay
// linear; the caller checks err once at the end.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) printf(format string, args ...any) {
	if ew.err != nil {
		return
	}
	_, ew.err = fmt.Fprintf(ew.w, format, args...)
}

// Handler returns the GET /metrics endpoint for this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// A failed write means the scraper hung up; nothing to do.
		_ = r.WritePrometheus(w)
	})
}

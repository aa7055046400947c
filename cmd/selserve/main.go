// Command selserve runs the selectivity-estimation server: it preloads
// trained models (as written by seltrain -out; JSON envelopes and binary
// snapshots are both accepted), serves estimate requests over HTTP — and,
// with -listen-bin, over the compact binary protocol (internal/wirebin) —
// buffers observed-selectivity feedback, and periodically retrains and
// hot-swaps the serving models. SIGINT/SIGTERM trigger a graceful drain.
//
// Usage:
//
//	selgen -dataset power -workload data-driven -queries 1000 > wl.csv
//	seltrain -model quadhist -class range -out m.json < wl.csv
//	selserve -addr :8080 -model m.json
//
//	curl -s localhost:8080/v1/estimate -d '{"query":{"lo":[0,0],"hi":[0.3,0.3]}}'
//	curl -s localhost:8080/v1/feedback -d '{"observations":[{"lo":[0,0],"hi":[0.3,0.3],"sel":0.11}]}'
//	curl -s localhost:8080/statz     # model inventory, last retrain
//	curl -s localhost:8080/metrics
//	curl -s "localhost:8080/debug/trace" > trace.json   # chrome://tracing
//
// A -model flag may be repeated and may carry a name prefix: either
// "m.json" (registered as "default") or "power=m.json".
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/modelio"
	"repro/internal/online"
	"repro/internal/serve"
)

// modelFlags collects repeated -model arguments.
type modelFlags []string

func (m *modelFlags) String() string { return strings.Join(*m, ",") }

func (m *modelFlags) Set(v string) error {
	if v == "" {
		return fmt.Errorf("empty -model value")
	}
	*m = append(*m, v)
	return nil
}

func main() {
	var models modelFlags
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		addrBin     = flag.String("listen-bin", "", "binary-protocol listen address (e.g. :8081; empty disables)")
		feedbackCap = flag.Int("feedback-cap", 4096, "feedback ring capacity per model")
		minRetrain  = flag.Int("min-retrain", 32, "buffered observations required before a retrain")
		interval    = flag.Duration("retrain-interval", 15*time.Second, "background retrain period")
		tolerance   = flag.Float64("retrain-tolerance", 0, "max held-out RMS regression a retrained model may introduce and still be swapped in")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
		workers     = flag.Int("estimate-workers", 0, "workers for batched estimate requests (0 = all CPUs); responses are identical for any value")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		logJSON     = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		traceSample = flag.Int("trace-sample", 0, "trace one request in N for GET /debug/trace (0 disables, 1 traces all)")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		onlineOn    = flag.Bool("online", false, "fold feedback into serving weights online (microsecond updates; retrainer stays on as structural fallback)")
		onlineBatch = flag.Int("online-batch", 1, "observations per online update batch (1 = publish every observation)")
		onlineRate  = flag.Float64("online-rate", online.DefaultRate, "online learning rate")
		onlineRule  = flag.String("online-rule", "gradient", "online update rule: gradient or multiplicative")
	)
	flag.Var(&models, "model", "model file to preload, optionally name=path (repeatable)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "selserve: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "selserve: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	hopts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, hopts)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, hopts)
	}
	logger := slog.New(handler)

	rule, err := online.ParseRule(*onlineRule)
	if err != nil {
		fmt.Fprintf(os.Stderr, "selserve: bad -online-rule: %v\n", err)
		os.Exit(2)
	}

	srv := serve.NewServer(serve.Options{
		FeedbackCapacity:  *feedbackCap,
		MinRetrainSamples: *minRetrain,
		RetrainInterval:   *interval,
		RetrainTolerance:  *tolerance,
		DrainTimeout:      *drain,
		EstimateWorkers:   *workers,
		TraceSample:       *traceSample,
		EnablePprof:       *pprofOn,
		OnlineUpdates:     *onlineOn,
		OnlineBatchSize:   *onlineBatch,
		OnlineRate:        *onlineRate,
		OnlineRule:        rule,
		Logger:            logger,
	})
	for _, spec := range models {
		name, path := serve.DefaultModelName, spec
		if i := strings.IndexByte(spec, '='); i >= 0 {
			name, path = spec[:i], spec[i+1:]
			if name == "" || path == "" {
				fatal(logger, fmt.Errorf("malformed -model %q, want name=path", spec))
			}
		}
		// One read at the file's size: growing a buffer through
		// io.ReadAll costs a megabyte snapshot a GC cycle at start-up.
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(logger, err)
		}
		m, err := modelio.LoadAnyBytes(data)
		if err != nil {
			fatal(logger, fmt.Errorf("%s: %w", path, err))
		}
		entry := srv.Registry().Set(name, "file", m)
		logger.Info("model loaded",
			slog.String("model", name),
			slog.String("path", path),
			slog.Int("buckets", m.NumBuckets()),
			slog.Int64("generation", entry.Generation),
		)
	}

	// Bind both listeners before serving on either: a port that cannot be
	// bound ends start-up instead of leaving a server that answers on one
	// listener and reports the other only at shutdown.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(logger, err)
	}
	var lnBin net.Listener
	if *addrBin != "" {
		if lnBin, err = net.Listen("tcp", *addrBin); err != nil {
			fatal(logger, err)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	logger.Info("selserve listening",
		slog.String("addr", *addr),
		slog.String("addr_bin", *addrBin),
		slog.Int("models", len(models)),
		slog.Int("trace_sample", *traceSample),
		slog.Bool("pprof", *pprofOn),
		slog.Bool("online", *onlineOn),
	)
	// The binary listener runs beside HTTP; model lifecycle (retrainer,
	// registry) lives with the HTTP Serve loop, so ServeBin only serves
	// frames. Both drain on the same signal context.
	errc := make(chan error, 1)
	if lnBin != nil {
		go func() { errc <- srv.ServeBin(ctx, lnBin) }()
	}
	if err := srv.Serve(ctx, ln); err != nil {
		fatal(logger, err)
	}
	if lnBin != nil {
		if err := <-errc; err != nil {
			fatal(logger, err)
		}
	}
	logger.Info("selserve drained cleanly")
}

func fatal(logger *slog.Logger, err error) {
	logger.Error("fatal", slog.String("error", err.Error()))
	os.Exit(1)
}

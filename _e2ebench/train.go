package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hist"
	"repro/internal/modelio"
	"repro/internal/obs"
	"repro/internal/ptshist"
	"repro/internal/workload"
)

// qerrFloor floors both sides of a q-error at 0.1% selectivity, so the
// tail measures estimation error instead of single-tuple rounding on
// near-empty queries (with the floor at one tuple, the p95 of the same
// pipeline swings 3× between seeds).
const qerrFloor = 1e-3

// trainResult is what the training child reports. Training is
// deterministic, so a repetition on the same inputs must reproduce its
// accuracy and iteration counts exactly; the child fails otherwise.
type trainResult struct {
	SetupS    []float64            `json:"setup_s"` // datasets + the first input set, per build
	LabelS    []float64            `json:"label_s"` // the first input set's kd-tree labeling, per build
	TrainS    []float64            `json:"train_s"` // both Train calls, per repetition
	Stages    map[string][]float64 `json:"stages"`  // "hist.solve" → seconds per repetition
	HistIters float64              `json:"hist_iterations"`
	PtsIters  float64              `json:"ptshist_iterations"`
	HistBkts  int                  `json:"hist_buckets"`
	RMS       float64              `json:"rms"`
	QErrP95   float64              `json:"qerr_p95"`
	SetRMS    []float64            `json:"set_rms"` // per input set
	SetQErr   []float64            `json:"set_qerr_p95"`
	Evaluated int                  `json:"evaluated"` // test queries scored
	RSSMB     float64              `json:"-"`
}

// trainInputs is one labeled input set.
type trainInputs struct {
	histTrain, histTest []core.LabeledQuery
	ptsTrain, ptsTest   []core.LabeledQuery
}

// makeTrainInputs builds input set k: data-driven range workloads over the
// datasets, labeled through kd-trees.
func makeTrainInputs(tc trainCfg, seed uint64, k int, power, forest *dataset.Dataset) trainInputs {
	spec := workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}
	s := seed*1000 + uint64(k)*2
	var in trainInputs
	in.histTrain, in.histTest = workload.NewGenerator(power, s+1).TrainTest(spec, tc.histQueries, tc.testQueries)
	in.ptsTrain, in.ptsTest = workload.NewGenerator(forest, s+2).TrainTest(spec, tc.ptsQueries, tc.testQueries)
	return in
}

// outcome is what one training of one input set produced.
type outcome struct {
	histIters, ptsIters int
	rms, qerr           float64
}

// trainChild is the training process. It builds tc.inputSets input sets
// (the first one tc.setupReps times, for a steady set-up time) and prints
// "ready". Each line it then reads is a chunk: a duration in nanoseconds to
// keep training, round-robin over the sets, at least one repetition; it
// prints "ok" and the repetitions done so far after each. The chunk marked
// "last" also trains on until every set has been trained and the first one
// retrained. At the end of its input it prints its report.
// A retraining must reproduce the set's first outcome. Accuracy and
// iteration counts are medians over the sets: a small training set now and
// then yields a model twice as far off, and the median keeps one such set
// from moving the result. With modelOut it writes the QUADHIST model of
// set 0 as a binary snapshot, after the first repetition.
func trainChild(cfg workloadCfg, seed uint64, modelOut string, in io.Reader, out io.Writer) error {
	tc := cfg.train
	res := &trainResult{Stages: make(map[string][]float64)}
	// Set-up is building the datasets and the first input set, timed
	// tc.setupReps times; the other sets reuse the datasets.
	sets := make([]trainInputs, tc.inputSets)
	var power, forest *dataset.Dataset
	for i := 0; i < tc.setupReps; i++ {
		t0 := time.Now()
		power, forest = power2D(), forest5D()
		tl := time.Now()
		sets[0] = makeTrainInputs(tc, seed, 0, power, forest)
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
		res.LabelS = append(res.LabelS, time.Since(tl).Seconds())
	}
	for k := 1; k < len(sets); k++ {
		sets[k] = makeTrainInputs(tc, seed, k, power, forest)
	}
	seen := make([]*outcome, len(sets))
	rep := 0
	trainOne := func() error {
		k := rep % len(sets)
		rep++
		in := sets[k]
		runtime.GC() // the peak heap is one repetition's, not the last one's garbage
		hlog, plog := obs.NewTrainLog(obs.Span{}), obs.NewTrainLog(obs.Span{})
		h := hist.New(in.histTrain[0].R.Dim(), tc.histBuckets)
		h.Log = hlog
		p := ptshist.New(in.ptsTrain[0].R.Dim(), tc.ptsPoints, seed)
		p.Log = plog
		t0 := time.Now()
		hm, err := h.Train(in.histTrain)
		if err != nil {
			return err
		}
		pm, err := p.Train(in.ptsTrain)
		if err != nil {
			return err
		}
		res.TrainS = append(res.TrainS, time.Since(t0).Seconds())
		for prefix, st := range map[string]*obs.TrainStats{"hist": hlog.Stats(), "ptshist": plog.Stats()} {
			for _, s := range st.Stages {
				res.Stages[prefix+"."+s.Name] = append(res.Stages[prefix+"."+s.Name], s.Seconds)
			}
		}
		o := &outcome{
			histIters: hlog.Stats().SolverIterations,
			ptsIters:  plog.Stats().SolverIterations,
			rms:       rmsError(hm, in.histTest),
			qerr:      qerrP95(pm, in.ptsTest),
		}
		if prev := seen[k]; prev != nil {
			if *prev != *o {
				return fmt.Errorf("training is not deterministic: input set %d gave %+v, then %+v", k, *prev, *o)
			}
			return nil
		}
		seen[k] = o
		if k == 0 {
			res.HistBkts = hm.NumBuckets()
			if modelOut != "" {
				var buf bytes.Buffer
				if err := modelio.SaveBinary(&buf, hm); err != nil {
					return err
				}
				return os.WriteFile(modelOut, buf.Bytes(), 0o644)
			}
		}
		return nil
	}

	if _, err := fmt.Fprintln(out, "ready"); err != nil {
		return err
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return fmt.Errorf("bad chunk %q: %w", sc.Text(), err)
		}
		last := len(f) > 1 && f[1] == "last"
		start := time.Now()
		for first := true; first || time.Since(start) < time.Duration(ns) || (last && rep <= len(sets)); first = false {
			if err := trainOne(); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(out, "ok", rep); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if rep <= len(sets) {
		return fmt.Errorf("input ended after %d repetitions, before the last chunk", rep)
	}
	var hi, pi []float64
	for _, o := range seen {
		hi, pi = append(hi, float64(o.histIters)), append(pi, float64(o.ptsIters))
		res.SetRMS = append(res.SetRMS, o.rms)
		res.SetQErr = append(res.SetQErr, o.qerr)
		res.Evaluated += tc.testQueries * 2
	}
	res.HistIters, res.PtsIters = median(hi), median(pi)
	res.RMS, res.QErrP95 = median(res.SetRMS), median(res.SetQErr)
	return json.NewEncoder(out).Encode(res)
}

// rmsError recomputes the root-mean-square error of the model's
// estimates against the kd-tree truth.
func rmsError(m core.Model, test []core.LabeledQuery) float64 {
	est := core.Estimates(m, test)
	s := 0.0
	for i, z := range test {
		d := est[i] - z.Sel
		s += d * d
	}
	return math.Sqrt(s / float64(len(test)))
}

// qerrP95 recomputes the nearest-rank p95 q-error of the model's
// estimates against the kd-tree truth, both floored at qerrFloor.
func qerrP95(m core.Model, test []core.LabeledQuery) float64 {
	est := core.Estimates(m, test)
	q := make([]float64, len(test))
	for i, z := range test {
		e, t := math.Max(est[i], qerrFloor), math.Max(z.Sel, qerrFloor)
		q[i] = math.Max(e/t, t/e)
	}
	return pct(q, 0.95)
}

// trainer drives the training child: a process of its own, so its peak
// memory is the trainer's alone, told chunk by chunk when to train so that
// training interleaves with the serving passes.
type trainer struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// startTrainer launches the child and waits until its inputs are built.
func startTrainer(opt options, modelOut string) (*trainer, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-train-child",
		"-workload", opt.workload, "-seed", strconv.FormatUint(opt.seed, 10), "-model-out", modelOut)
	cmd.SysProcAttr = childAttr()
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	t := &trainer{cmd: cmd, in: in, out: bufio.NewReader(out)}
	if _, err := t.expect("ready"); err != nil {
		t.kill()
		return nil, err
	}
	return t, nil
}

// expect reads one line of the child, which must start with want, and
// returns the rest.
func (t *trainer) expect(want string) (string, error) {
	line, err := t.out.ReadString('\n')
	rest, ok := strings.CutPrefix(strings.TrimSpace(line), want)
	if err != nil || !ok {
		return "", fmt.Errorf("training child: got %q (%v), want %q", line, err, want)
	}
	return strings.TrimSpace(rest), nil
}

// chunk has the child train for about d, at least one repetition, and
// returns how many repetitions it has done in all. The last chunk also
// completes the child's coverage of its input sets.
func (t *trainer) chunk(d time.Duration, last bool) (int, error) {
	cmd := strconv.FormatInt(d.Nanoseconds(), 10)
	if last {
		cmd += " last"
	}
	if _, err := fmt.Fprintln(t.in, cmd); err != nil {
		return 0, fmt.Errorf("training child: %w", err)
	}
	rest, err := t.expect("ok")
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(rest)
}

// finish ends the child's input and returns its report.
func (t *trainer) finish() (*trainResult, error) {
	_ = t.in.Close()
	b, readErr := io.ReadAll(t.out)
	if err := t.cmd.Wait(); err != nil {
		return nil, fmt.Errorf("training child: %w", err)
	}
	if readErr != nil {
		return nil, readErr
	}
	var res trainResult
	if err := json.Unmarshal(bytes.TrimSpace(b), &res); err != nil {
		return nil, fmt.Errorf("training child report: %w", err)
	}
	if ru, ok := t.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.RSSMB = float64(ru.Maxrss) / 1024 // KiB on Linux
	}
	return &res, nil
}

// kill stops the child on an error path and waits for it.
func (t *trainer) kill() {
	_ = t.in.Close()
	_ = t.cmd.Process.Kill()
	_ = t.cmd.Wait() // killed on purpose; the exit status carries nothing
}

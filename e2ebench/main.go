// Command e2ebench is the repository's end-to-end benchmark. It runs the
// paper's iterative apps under core.Executor — the step loop, periodic
// checkpoints and recovery — on three workloads, verifies every run's
// final iterate against a failure-free local reference, and prints the
// end-to-end metrics (untraced runs) or the per-layer split (traced runs).
//
// Usage, from the root of the repository:
//
//	bash e2ebench/run.sh --workload linreg-local --seed 1 --seconds 20 --trace 0
//	bash e2ebench/run.sh --workload pagerank-recover --seed 1 --seconds 20 --trace 1
//	bash e2ebench/run.sh --workload all --seconds 10
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Each run is a closed loop: one
// executor run at a time, each set up from scratch, for --seconds seconds.
// All timing comes from this package, around the calls into each layer;
// nothing is traced inside the program.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/rgml/rgml/internal/apgas/transport/tcp"
	"github.com/rgml/rgml/internal/la"
)

func main() {
	// tcp workers re-execute this binary with a worker environment; they
	// serve their place and exit here.
	tcp.MaybeWorker()
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a completed benchmark whose runs failed
// verification; the result line has already been printed.
var errIncorrect = errors.New("some runs failed or did not verify")

// traceDir is where --trace 1 writes its Chrome trace-event files,
// relative to the root of the checkout.
var traceDir = filepath.Join(".bench_build", "e2ebench", "traces")

// options are the settings of one benchmark process.
type options struct {
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Uint64("seed", 1, "workload seed: selects the generated inputs")
	seconds := fs.Float64("seconds", 10, "measurement window per workload; at least one run always completes")
	trace := fs.Int("trace", 0, "0: untraced runs, end-to-end metrics; 1: traced runs, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if !(*seconds > 0) {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	list := workloads()
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		list = []workload{w}
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: traceDir}

	res := result{Correct: true, Metrics: make(map[string]metricValue)}
	for _, w := range list {
		s, err := measure(w, opt, stdout, stderr)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		prefix := ""
		if len(list) > 1 {
			prefix = w.Name + "."
		}
		res.add(s, opt.trace, prefix)
		printTable(stdout, w, s, opt.trace)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// measure runs one workload: the reference, the verifier self-test, the
// serial baseline (traced mode), a warm-up run, then closed-loop runs
// until the window closes. In traced mode traced and untraced runs
// alternate, so the tracing overhead compares runs made under the same
// conditions.
func measure(w workload, opt options, stdout, stderr io.Writer) (*summary, error) {
	printConfig(stdout, w.config(opt.seed))

	ref, err := w.computeReference(opt.seed)
	if err != nil {
		return nil, err
	}
	if err := w.verify(ref, w.perturb(ref)); !errors.Is(err, errMismatch) {
		return nil, fmt.Errorf("verification self-test: a perturbed iterate was not rejected (%v)", err)
	}
	return measureAgainst(w, opt, ref, stdout, stderr)
}

// measureAgainst measures the workload, verifying every run against ref.
func measureAgainst(w workload, opt options, ref la.Vector, stdout, stderr io.Writer) (*summary, error) {
	s := &summary{}
	var tr *tracer
	minRuns := 1
	if opt.trace {
		tr = newTracer()
		minRuns = 2
		s.attempted++
		b, err := w.baseline(opt.seed, ref)
		if err != nil {
			s.failed++
			fmt.Fprintf(stderr, "%s: %v\n", w.Name, err)
		}
		s.baseline = b
	}

	// One discarded run of the workload itself lets the heap grow and
	// the checkpoint, compression and restore paths warm up before
	// timing; it is verified and counted like any other run.
	s.attempted++
	if _, err := w.runOnce(opt.seed, ref, nil); err != nil {
		s.failed++
		fmt.Fprintf(stderr, "%s: warm-up run failed: %v\n", w.Name, err)
	}

	window := time.Duration(opt.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; i < minRuns || time.Since(start) < window; i++ {
		var runTr *tracer
		if opt.trace && i%2 == 0 {
			runTr = tr
		}
		r, err := w.runOnce(opt.seed, ref, runTr)
		s.attempted++
		if err != nil {
			s.failed++
			fmt.Fprintf(stderr, "%s: run %d failed: %v\n", w.Name, i, err)
			continue
		}
		fmt.Fprintf(stderr, "%s: run %d traced=%v setup %.4fs solve %.4fs step p50 %.3fms p90 %.3fms peak RSS %.1fMB\n",
			w.Name, i, r.traced, r.setup, r.solve, percentile(r.stepsMS, 0.5), percentile(r.stepsMS, 0.9), r.peakRSS)
		if r.traced {
			s.traced = append(s.traced, r)
		} else {
			s.untraced = append(s.untraced, r)
		}
	}
	if opt.trace && len(s.traced) > 0 {
		path := filepath.Join(opt.traceDir, fmt.Sprintf("%s-seed%d.json", w.Name, opt.seed))
		if err := tr.write(path, w.config(opt.seed)); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "trace: %s (Chrome trace-event JSON; open in Perfetto)\n", path)
	}
	return s, nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// add folds one workload's summary into the result: the end-to-end
// metrics untraced, the per-layer metrics traced. A run that failed, or a
// metric left without a successful run to measure it, makes the result
// incorrect.
func (res *result) add(s *summary, traced bool, prefix string) {
	res.Attempted += s.attempted
	res.Failed += s.failed
	defs := endToEnd
	var values map[string]float64
	if traced {
		defs = perLayer
		if len(s.traced) > 0 && len(s.untraced) > 0 {
			values = s.perLayerValues()
		}
	} else if len(s.untraced) > 0 {
		values = s.endToEndValues()
	}
	if s.failed > 0 || values == nil {
		res.Correct = false
	}
	for _, m := range defs {
		v, ok := values[m.Name]
		if !ok {
			res.Correct = false
		}
		res.Metrics[prefix+m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
}

package main

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/apgas/transport/tcp"
	"github.com/rgml/rgml/internal/apps"
	"github.com/rgml/rgml/internal/chaos"
	"github.com/rgml/rgml/internal/codec"
	"github.com/rgml/rgml/internal/core"
	"github.com/rgml/rgml/internal/la"
	"github.com/rgml/rgml/internal/obs"
	"github.com/rgml/rgml/internal/par"
)

// kill is one scheduled place failure: place Place dies after iteration
// After has completed (before the step that would start at After).
type kill struct {
	After int64
	Place int
}

// workload is one benchmark configuration: an app, its problem size and
// the executor settings it runs under. Every run of a workload is a closed
// loop — one executor run at a time from one benchmark process — with no
// modeled network (NetModel zero) and no ledger cost.
type workload struct {
	Name string
	Why  string

	App       string // "linreg" or "pagerank"
	Transport string // "local" or "tcp"
	Places    int
	PerPlace  int // examples (linreg) or nodes (pagerank) per place
	Features  int // linreg only
	OutDegree int // pagerank only
	Iters     int
	Ckpt      int
	Mode      core.RestoreMode
	Compress  codec.Spec
	Kills     []kill
	// Exact demands a bitwise match with the failure-free local reference;
	// otherwise the iterate must agree to a 1e-9 relative tolerance.
	Exact bool
}

// workloads are the benchmark's three long runs. Each stresses a different
// set of layers, so that an optimisation of one layer shows on one
// workload and reads unchanged on the others.
func workloads() []workload {
	return []workload{
		{
			Name: "linreg-local",
			Why:  "dense CG on local: la gemv/tgemv, the par pool and dist reductions dominate; checkpoints are tiny and nothing fails",
			App:  "linreg", Transport: "local", Places: 4, PerPlace: 50000, Features: 64,
			Iters: 100, Ckpt: 10, Mode: core.Shrink, Exact: true,
		},
		{
			Name: "pagerank-tcp",
			Why:  "light sparse compute over 3 OS processes: transport frames, worker kernel dispatch and finish bookkeeping dominate",
			App:  "pagerank", Transport: "tcp", Places: 3, PerPlace: 20000, OutDegree: 16,
			Iters: 100, Ckpt: 10, Mode: core.Shrink, Exact: true,
		},
		{
			Name: "pagerank-recover",
			Why:  "three kills with shrink-rebalance and lossless compression: snapshot and codec work in both directions, restore and replay",
			App:  "pagerank", Transport: "local", Places: 6, PerPlace: 15000, OutDegree: 16,
			Iters: 100, Ckpt: 2, Mode: core.ShrinkRebalance,
			Compress: codec.Spec{Mode: codec.CompressLossless},
			// Odd iterations: each kill rolls back to the checkpoint one
			// step earlier and forces a one-step replay.
			Kills: []kill{{25, 1}, {51, 2}, {75, 3}},
		},
	}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(names, ", "))
}

// size is the app's global problem size.
func (w workload) size() int { return w.PerPlace * w.Places }

// chaosSchedule renders the kills in the chaos schedule language.
func (w workload) chaosSchedule() string {
	rules := make([]string, len(w.Kills))
	for i, k := range w.Kills {
		rules[i] = fmt.Sprintf("kill(point=step,iter=%d,place=%d)", k.After, k.Place)
	}
	return strings.Join(rules, ";")
}

// reference is the workload stripped to a failure-free local run without
// checkpoints: the run every measured iterate is compared against.
func (w workload) reference() workload {
	w.Transport = "local"
	w.Ckpt = 0
	w.Kills = nil
	w.Compress = codec.Spec{}
	return w
}

// instance is one set-up run: the runtime, the executor and the app, plus
// the accessor for the app's final iterate.
type instance struct {
	rt      *apgas.Runtime
	exec    *core.Executor
	app     core.IterativeApp
	iterate func() (la.Vector, error)
}

// setup builds the runtime, the executor and the app for one run. reg is
// nil for an untraced run; tr (nil-safe) records one span per layer call.
func (w workload) setup(seed uint64, reg *obs.Registry, tr *tracer) (*instance, error) {
	opts := []apgas.Option{
		apgas.WithPlaces(w.Places),
		apgas.WithResilient(true),
		apgas.WithObs(reg),
	}
	if !w.Compress.IsZero() {
		opts = append(opts, apgas.WithCompression(w.Compress))
	}
	switch w.Transport {
	case "local":
	case "tcp":
		opts = append(opts, apgas.WithTransport(tcp.New(tcp.WithObs(reg))))
	default:
		return nil, fmt.Errorf("unknown transport %q", w.Transport)
	}
	sp := tr.begin("apgas.start", -1)
	rt, err := apgas.New(opts...)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("apgas.New: %w", err)
	}
	in := &instance{rt: rt}

	sp = tr.begin("core.new", -1)
	in.exec, err = w.newExecutor(rt, seed, reg)
	tr.end(sp)
	if err != nil {
		rt.Shutdown()
		return nil, err
	}

	sp = tr.begin("apps.build", -1)
	err = w.newApp(in, seed)
	tr.end(sp)
	if err != nil {
		rt.Shutdown()
		return nil, fmt.Errorf("apps.New: %w", err)
	}
	return in, nil
}

func (w workload) newExecutor(rt *apgas.Runtime, seed uint64, reg *obs.Registry) (*core.Executor, error) {
	opts := []core.Option{
		core.WithCheckpointInterval(w.Ckpt),
		core.WithRestoreMode(w.Mode),
	}
	if reg != nil {
		opts = append(opts, core.WithObs(reg))
	}
	if len(w.Kills) > 0 {
		sched, err := chaos.Parse(w.chaosSchedule())
		if err != nil {
			return nil, fmt.Errorf("chaos schedule: %w", err)
		}
		eng, err := chaos.New(rt, sched, chaos.WithSeed(seed))
		if err != nil {
			return nil, fmt.Errorf("chaos.New: %w", err)
		}
		opts = append(opts, core.WithChaos(eng))
	}
	exec, err := core.New(rt, opts...)
	if err != nil {
		return nil, fmt.Errorf("core.New: %w", err)
	}
	return exec, nil
}

func (w workload) newApp(in *instance, seed uint64) error {
	pg := in.exec.ActiveGroup()
	switch w.App {
	case "linreg":
		a, err := apps.NewLinReg(in.rt, apps.LinRegConfig{
			Examples: w.size(), Features: w.Features, Iterations: w.Iters, Seed: seed,
		}, pg)
		if err != nil {
			return err
		}
		in.app, in.iterate = a, a.Weights
	case "pagerank":
		a, err := apps.NewPageRank(in.rt, apps.PageRankConfig{
			Nodes: w.size(), OutDegree: w.OutDegree, Iterations: w.Iters, Seed: seed,
		}, pg)
		if err != nil {
			return err
		}
		in.app, in.iterate = a, a.Ranks
	default:
		return fmt.Errorf("unknown app %q", w.App)
	}
	return nil
}

// computeReference runs the failure-free local reference to completion
// and returns its final iterate.
func (w workload) computeReference(seed uint64) (la.Vector, error) {
	in, err := w.reference().setup(seed, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	defer in.rt.Shutdown()
	if err := in.exec.Run(in.app); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	ref, err := in.iterate()
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return ref.Clone(), nil
}

// errMismatch marks a run whose iterate disagrees with the reference.
var errMismatch = errors.New("iterate mismatch")

// verify compares a run's final iterate with the reference: bitwise where
// the repo guarantees it (cross-backend results, failure-free runs), else
// within 1e-9 relative error per element, the tolerance of the repo's
// chaos campaign for shrink-rebalance recoveries. PageRank ranks must also
// sum to 1.
func (w workload) verify(ref, got la.Vector) error {
	if len(ref) != len(got) {
		return fmt.Errorf("%w: length %d, want %d", errMismatch, len(got), len(ref))
	}
	for i := range ref {
		if w.Exact {
			if math.Float64bits(ref[i]) != math.Float64bits(got[i]) {
				return fmt.Errorf("%w: element %d is %v, want bitwise %v", errMismatch, i, got[i], ref[i])
			}
		} else if math.Abs(ref[i]-got[i]) > 1e-9*(1+math.Abs(ref[i])) || math.IsNaN(got[i]) {
			return fmt.Errorf("%w: element %d is %v, want %v within 1e-9", errMismatch, i, got[i], ref[i])
		}
	}
	if w.App == "pagerank" {
		if s := got.Sum(); math.Abs(s-1) > 1e-9 {
			return fmt.Errorf("%w: ranks sum to %v, want 1", errMismatch, s)
		}
	}
	return nil
}

// perturb returns a copy of v with one element moved by the smallest step
// that verify must reject.
func (w workload) perturb(v la.Vector) la.Vector {
	out := v.Clone()
	i := len(out) / 2
	if w.Exact {
		out[i] = math.Nextafter(out[i], math.Inf(1))
	} else {
		out[i] += 1e-6 * (1 + math.Abs(out[i]))
	}
	return out
}

// baseline times the non-resilient variant of the same problem on one
// place with one kernel worker: the step loop alone, no runtime set-up.
// One place reduces in another order than the workload's places, so its
// iterate is checked against the reference within the 1e-9 tolerance.
func (w workload) baseline(seed uint64, ref la.Vector) (float64, error) {
	prev := par.Workers()
	defer par.SetWorkers(prev)
	rt, err := apgas.New(apgas.WithPlaces(1), apgas.WithKernelWorkers(1))
	if err != nil {
		return 0, fmt.Errorf("baseline: %w", err)
	}
	defer rt.Shutdown()
	pg := rt.World()
	var app interface {
		IsFinished() bool
		Step() error
	}
	var iterate func() (la.Vector, error)
	switch w.App {
	case "linreg":
		a, err := apps.NewLinRegNonResilient(rt, apps.LinRegConfig{
			Examples: w.size(), Features: w.Features, Iterations: w.Iters, Seed: seed,
		}, pg)
		if err != nil {
			return 0, fmt.Errorf("baseline: %w", err)
		}
		app, iterate = a, a.Weights
	case "pagerank":
		a, err := apps.NewPageRankNonResilient(rt, apps.PageRankConfig{
			Nodes: w.size(), OutDegree: w.OutDegree, Iterations: w.Iters, Seed: seed,
		}, pg)
		if err != nil {
			return 0, fmt.Errorf("baseline: %w", err)
		}
		app, iterate = a, a.Ranks
	default:
		return 0, fmt.Errorf("baseline: unknown app %q", w.App)
	}
	t0 := time.Now()
	for !app.IsFinished() {
		if err := app.Step(); err != nil {
			return 0, fmt.Errorf("baseline: %w", err)
		}
	}
	elapsed := time.Since(t0).Seconds()
	got, err := iterate()
	if err != nil {
		return 0, fmt.Errorf("baseline: %w", err)
	}
	loose := w
	loose.Exact = false
	if err := loose.verify(ref, got); err != nil {
		return 0, fmt.Errorf("baseline: %w", err)
	}
	return elapsed, nil
}

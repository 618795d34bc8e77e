package main

import (
	"context"
	"fmt"
	"time"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/core"
	"github.com/rgml/rgml/internal/la"
	"github.com/rgml/rgml/internal/obs"
	"github.com/rgml/rgml/internal/par"
)

// runTimeout bounds one executor run, so a hung run is counted as failed
// instead of stalling the benchmark.
const runTimeout = 60 * time.Second

// runResult is what one executor run measured. Times are in seconds
// unless the name says otherwise.
type runResult struct {
	traced   bool
	setup    float64
	solve    float64
	stepsMS  []float64 // every completed Step call, replays included
	recovery float64   // restore plus replayed steps
	restores int64
	peakRSS  float64 // MB, this run only
	layers   map[string]float64
}

// timedApp wraps the app's IterativeApp methods — the only places the
// executor hands control to the application — with timers and, on a
// traced run, spans that carry the runtime counter deltas of each call.
type timedApp struct {
	core.IterativeApp
	rt  *apgas.Runtime
	reg *obs.Registry
	tr  *tracer

	iter, high int64 // completed iterations now, and the most ever reached
	stepsMS    []float64
	step       time.Duration // first executions, failed attempts included
	replay     time.Duration
	checkpoint time.Duration
	restore    time.Duration
}

func (a *timedApp) Step() error {
	replay := a.iter < a.high
	name := "core.step"
	if replay {
		name = "core.replay"
	}
	sp := a.tr.begin(name, a.iter)
	before := a.counters()
	t0 := time.Now()
	err := a.IterativeApp.Step()
	d := time.Since(t0)
	a.tr.endWith(sp, a.delta(before))
	if replay {
		a.replay += d
	} else {
		a.step += d
	}
	if err == nil {
		a.stepsMS = append(a.stepsMS, float64(d)/float64(time.Millisecond))
		a.iter++
		a.high = max(a.high, a.iter)
	}
	return err
}

func (a *timedApp) Checkpoint(store *core.AppResilientStore) error {
	sp := a.tr.begin("core.checkpoint", a.iter)
	before := a.counters()
	t0 := time.Now()
	err := a.IterativeApp.Checkpoint(store)
	a.checkpoint += time.Since(t0)
	a.tr.endWith(sp, a.delta(before))
	return err
}

func (a *timedApp) Restore(pg apgas.PlaceGroup, store *core.AppResilientStore, snapshotIter int64, rebalance bool) error {
	sp := a.tr.begin("core.restore", snapshotIter)
	before := a.counters()
	t0 := time.Now()
	err := a.IterativeApp.Restore(pg, store, snapshotIter, rebalance)
	a.restore += time.Since(t0)
	a.tr.endWith(sp, a.delta(before))
	if err == nil {
		a.iter = snapshotIter
	}
	return err
}

// counters reads the counters only on a traced run.
func (a *timedApp) counters() map[string]int64 {
	if a.tr == nil {
		return nil
	}
	return readCounters(a.rt, a.reg)
}

func (a *timedApp) delta(before map[string]int64) map[string]int64 {
	if a.tr == nil {
		return nil
	}
	return delta(readCounters(a.rt, a.reg), before)
}

// registryCounters are the obs counters the per-layer metrics derive from.
var registryCounters = []string{
	"apgas.tasks.kernel_fallback",
	"transport.tcp.frames",
	"transport.tcp.wire_bytes",
	"par.runs.serial",
	"par.runs.parallel",
	"snapshot.save.bytes",
	"snapshot.replicas.bytes",
	"snapshot.load.bytes",
	"snapshot.pool.hits",
	"snapshot.pool.misses",
	"snapshot.compress.bytes_in",
	"snapshot.compress.bytes_out",
	"snapshot.compress.time_us",
}

// laKernels are the la kernel histograms. They time coordinator-side calls
// only: kernels that run inside tcp worker processes are not seen.
var laKernels = []string{
	"la.kernel.gemm", "la.kernel.gemv", "la.kernel.tgemv",
	"la.kernel.gram", "la.kernel.accum_tds", "la.kernel.accum_sdt",
}

// readCounters reads the runtime's activity counters and, when reg is
// non-nil, the registry's layer counters and histogram sums (in ns).
func readCounters(rt *apgas.Runtime, reg *obs.Registry) map[string]int64 {
	st := rt.Stats()
	c := map[string]int64{
		"apgas.msgs":          st.Messages,
		"apgas.bytes":         st.Bytes,
		"apgas.tasks":         st.TasksSpawned,
		"apgas.ledger_events": st.LedgerEvents,
		"kernel.worker_tasks": st.WorkerTasks,
	}
	if reg == nil {
		return c
	}
	for _, name := range registryCounters {
		c[name] = reg.CounterValue(name)
	}
	// apgas.net.simulated_ns is modeled time on local, but on tcp it sums
	// real Send blocking: name the reading by what it measures.
	net := "apgas.net.modeled_ns"
	if rt.TransportName() == "tcp" {
		net = "transport.send_block_ns"
	}
	c[net] = reg.CounterValue("apgas.net.simulated_ns")
	var kernel time.Duration
	for _, name := range laKernels {
		kernel += reg.Histogram(name).Sum()
	}
	c["la.kernel_ns"] = int64(kernel)
	c["apgas.finish_ns"] = int64(reg.Histogram("apgas.finish.duration").Sum())
	return c
}

// delta returns after-before for every counter that moved.
func delta(after, before map[string]int64) map[string]int64 {
	d := make(map[string]int64)
	for k, v := range after {
		if v != before[k] {
			d[k] = v - before[k]
		}
	}
	return d
}

// detachObs stops the process-wide la and par instrumentation from
// recording into the registry of an earlier traced run.
func detachObs() {
	la.SetObs(nil)
	par.SetObs(nil)
}

// runOnce sets up, runs and verifies one executor run, then shuts the
// runtime down. tr is nil for an untraced run. A returned error means the
// run counts as failed; the result still holds what was measured.
func (w workload) runOnce(seed uint64, ref la.Vector, tr *tracer) (runResult, error) {
	res := runResult{traced: tr != nil}
	var reg *obs.Registry
	if res.traced {
		reg = obs.NewRegistry()
	} else {
		detachObs()
	}
	if err := resetPeakRSS(); err != nil {
		return res, err
	}
	tr.startRun()
	root := tr.begin("run", -1)
	defer tr.end(root)

	sp := tr.begin("setup", -1)
	t0 := time.Now()
	in, err := w.setup(seed, reg, tr)
	res.setup = time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return res, err
	}

	app := &timedApp{IterativeApp: in.app, rt: in.rt, reg: reg, tr: tr}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	before := readCounters(in.rt, reg)
	sp = tr.begin("core.run", -1)
	t1 := time.Now()
	err = in.exec.RunContext(ctx, app)
	solve := time.Since(t1)
	moved := delta(readCounters(in.rt, reg), before)
	tr.endWith(sp, moved)
	res.solve = solve.Seconds()
	res.stepsMS = app.stepsMS
	res.recovery = (app.restore + app.replay).Seconds()
	res.restores = in.exec.Metrics().Restores

	if err == nil {
		sp = tr.begin("verify", -1)
		err = w.check(in, ref, res.restores, moved, res.traced)
		tr.end(sp)
	}
	if rss, rerr := peakRSS(); rerr == nil {
		res.peakRSS = rss
	} else if err == nil {
		err = rerr
	}

	sp = tr.begin("apgas.shutdown", -1)
	in.rt.Shutdown()
	tr.end(sp)

	if res.traced {
		res.layers = w.layers(tr, app, solve, moved, res)
	}
	return res, err
}

// check is the run's verification: the final iterate against the
// reference, the restore count against the kill schedule, kernels
// executed inside the tcp workers, and no modeled network time.
func (w workload) check(in *instance, ref la.Vector, restores int64, moved map[string]int64, traced bool) error {
	got, err := in.iterate()
	if err != nil {
		return fmt.Errorf("read final iterate: %w", err)
	}
	if err := w.verify(ref, got); err != nil {
		return err
	}
	if restores != int64(len(w.Kills)) {
		return fmt.Errorf("%d restores, want %d (one per scheduled kill)", restores, len(w.Kills))
	}
	if w.Transport == "tcp" && moved["kernel.worker_tasks"] == 0 {
		return fmt.Errorf("no kernel executed inside a worker process: the run measured coordinator fallback")
	}
	// The workloads model no network, so no modeled time may appear.
	if traced && moved["apgas.net.modeled_ns"] != 0 {
		return fmt.Errorf("apgas.net.simulated_ns moved by %d ns on local: modeled time leaked into the run", moved["apgas.net.modeled_ns"])
	}
	return nil
}

// layers derives the per-layer metrics of one traced run from its spans
// and the counter deltas over the executor run.
func (w workload) layers(tr *tracer, app *timedApp, solve time.Duration, d map[string]int64, res runResult) map[string]float64 {
	steps := float64(len(app.stepsMS))
	perStep := func(name string) float64 { return float64(d[name]) / steps }
	frac := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	compressRatio := 1.0 // stored as is when nothing was compressed
	if in := d["snapshot.compress.bytes_in"]; in > 0 {
		compressRatio = float64(d["snapshot.compress.bytes_out"]) / float64(in)
	}
	fallback := d["apgas.tasks.kernel_fallback"]
	worker := d["kernel.worker_tasks"]
	accounted := app.step + app.replay + app.checkpoint + app.restore
	return map[string]float64{
		"core.step_s":                   app.step.Seconds(),
		"core.replay_s":                 app.replay.Seconds(),
		"core.checkpoint_s":             app.checkpoint.Seconds(),
		"core.restore_s":                app.restore.Seconds(),
		"core.leftover_s":               (solve - accounted).Seconds(),
		"core.restores":                 float64(res.restores),
		"trace.solve_s":                 solve.Seconds(),
		"recovery_s":                    res.recovery,
		"apgas.start_s":                 tr.total("apgas.start").Seconds(),
		"core.new_s":                    tr.total("core.new").Seconds(),
		"apps.build_s":                  tr.total("apps.build").Seconds(),
		"apgas.shutdown_s":              tr.total("apgas.shutdown").Seconds(),
		"la.kernel_s":                   float64(d["la.kernel_ns"]) / 1e9,
		"par.parallel_frac":             frac(d["par.runs.parallel"], d["par.runs.parallel"]+d["par.runs.serial"]),
		"apgas.msgs_per_step":           perStep("apgas.msgs"),
		"apgas.bytes_per_step":          perStep("apgas.bytes"),
		"apgas.tasks_per_step":          perStep("apgas.tasks"),
		"apgas.ledger_events_per_step":  perStep("apgas.ledger_events"),
		"apgas.finish_s":                float64(d["apgas.finish_ns"]) / 1e9,
		"transport.frames_per_step":     perStep("transport.tcp.frames"),
		"transport.wire_bytes_per_step": perStep("transport.tcp.wire_bytes"),
		"transport.send_block_s":        float64(d["transport.send_block_ns"]) / 1e9,
		"kernel.worker_tasks":           float64(worker),
		"kernel.worker_frac":            frac(worker, worker+fallback),
		"snapshot.save_bytes":           float64(d["snapshot.save.bytes"]),
		"snapshot.replica_bytes":        float64(d["snapshot.replicas.bytes"]),
		"snapshot.load_bytes":           float64(d["snapshot.load.bytes"]),
		"snapshot.pool_hit_frac":        frac(d["snapshot.pool.hits"], d["snapshot.pool.hits"]+d["snapshot.pool.misses"]),
		"codec.compress_ratio":          compressRatio,
		"codec.compress_s":              float64(d["snapshot.compress.time_us"]) / 1e6,
	}
}

package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json at the root of the
// repository lists the same metrics; the smoke test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the framework sees, measured on
// untraced runs (medians over the runs of one benchmark process).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},      // apgas.New + core.New + apps.New*
	{"solve_s", "s", "lower"},      // executor run to the fixed iteration count
	{"step_p50_ms", "ms", "lower"}, // median Step call of the typical run (stepProfile)
	{"step_p90_ms", "ms", "lower"}, // p90 Step call of the typical run (>= 10 of its >= 100 steps beyond it)
	{"peak_rss_mb", "MB", "lower"}, // coordinator peak RSS of one run (mean over runs)
}

// perLayer are the per-layer metrics of the traced runs, named after the
// module that does the work.
var perLayer = []metricDef{
	{"core.step_s", "s", "lower"},
	{"core.replay_s", "s", "lower"},
	{"core.checkpoint_s", "s", "lower"},
	{"core.restore_s", "s", "lower"},
	{"core.leftover_s", "s", "lower"},
	{"core.restores", "count", "lower"},
	{"recovery_s", "s", "lower"},
	{"trace.solve_s", "s", "lower"},
	{"trace.overhead_s", "s", "lower"},
	{"apgas.start_s", "s", "lower"},
	{"core.new_s", "s", "lower"},
	{"apps.build_s", "s", "lower"},
	{"apgas.shutdown_s", "s", "lower"},
	{"la.kernel_s", "s", "lower"},
	{"par.parallel_frac", "frac", "higher"},
	{"apgas.msgs_per_step", "count/step", "lower"},
	{"apgas.bytes_per_step", "B/step", "lower"},
	{"apgas.tasks_per_step", "count/step", "lower"},
	{"apgas.ledger_events_per_step", "count/step", "lower"},
	{"apgas.finish_s", "s", "lower"},
	{"transport.frames_per_step", "count/step", "lower"},
	{"transport.wire_bytes_per_step", "B/step", "lower"},
	{"transport.send_block_s", "s", "lower"},
	{"kernel.worker_tasks", "count", "higher"},
	{"kernel.worker_frac", "frac", "higher"},
	{"snapshot.save_bytes", "B", "lower"},
	{"snapshot.replica_bytes", "B", "lower"},
	{"snapshot.load_bytes", "B", "lower"},
	{"snapshot.pool_hit_frac", "frac", "higher"},
	{"codec.compress_ratio", "frac", "lower"},
	{"codec.compress_s", "s", "lower"},
	{"baseline.serial_s", "s", "lower"},
	{"runs_failed_frac", "frac", "lower"},
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile of xs (0 < p <= 1), so
// at least len(xs)·(1-p) samples lie at or beyond it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(k, 0)]
}

// summary is everything one benchmark process measured on one workload.
type summary struct {
	attempted, failed int
	untraced, traced  []runResult // successful runs only
	baseline          float64
}

func (s *summary) failedFrac() float64 { return float64(s.failed) / float64(s.attempted) }

// medianOf returns the median of f over runs.
func medianOf(runs []runResult, f func(runResult) float64) float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = f(r)
	}
	return median(xs)
}

// meanOf returns the mean of f over runs. Peak RSS uses it: it depends
// on where the concurrent GC happens to run, so its per-run values
// cluster in a few modes, and a median jumps between them.
func meanOf(runs []runResult, f func(runResult) float64) float64 {
	sum := 0.0
	for _, r := range runs {
		sum += f(r)
	}
	return sum / float64(len(runs))
}

// stepProfile returns the step times of a typical run: for each Step
// call of the run, in order, its median over runs. Every successful run
// of a workload makes the same sequence of calls (its replays included),
// so position k is the same iteration in each. Step percentiles are taken
// over this profile rather than over all runs' steps pooled: steal from
// a shared host stretches a random few steps of every run, and a pooled
// tail follows how often that happened in the window, while the median
// over runs keeps only what the program does at each iteration.
func stepProfile(runs []runResult) []float64 {
	if len(runs) == 0 {
		return nil
	}
	n := len(runs[0].stepsMS)
	for _, r := range runs {
		n = min(n, len(r.stepsMS))
	}
	profile := make([]float64, n)
	col := make([]float64, len(runs))
	for k := range profile {
		for i, r := range runs {
			col[i] = r.stepsMS[k]
		}
		profile[k] = median(col)
	}
	return profile
}

// endToEndValues computes the end-to-end metrics from the untraced runs,
// plus the two figures the table prints beside them: recovery_s (restore
// plus replayed steps, 0 on workloads without kills) and runs_failed_frac.
func (s *summary) endToEndValues() map[string]float64 {
	u := s.untraced
	steps := stepProfile(u)
	return map[string]float64{
		"setup_s":          medianOf(u, func(r runResult) float64 { return r.setup }),
		"solve_s":          medianOf(u, func(r runResult) float64 { return r.solve }),
		"step_p50_ms":      percentile(steps, 0.5),
		"step_p90_ms":      percentile(steps, 0.9),
		"peak_rss_mb":      meanOf(u, func(r runResult) float64 { return r.peakRSS }),
		"recovery_s":       medianOf(u, func(r runResult) float64 { return r.recovery }),
		"runs_failed_frac": s.failedFrac(),
	}
}

// perLayerValues computes the per-layer metrics: the median of each over
// the traced runs, the tracing overhead as traced minus untraced solve
// time, the serial baseline and the failed-run share.
func (s *summary) perLayerValues() map[string]float64 {
	out := make(map[string]float64)
	for _, m := range perLayer {
		name := m.Name
		if _, ok := s.traced[0].layers[name]; ok {
			out[name] = medianOf(s.traced, func(r runResult) float64 { return r.layers[name] })
		}
	}
	out["trace.overhead_s"] = out["trace.solve_s"] - medianOf(s.untraced, func(r runResult) float64 { return r.solve })
	out["baseline.serial_s"] = s.baseline
	out["runs_failed_frac"] = s.failedFrac()
	return out
}

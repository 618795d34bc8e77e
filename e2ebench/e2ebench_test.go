package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/rgml/rgml/internal/apgas/transport/tcp"
)

// TestMain lets the test binary serve as a tcp worker process: the tcp
// transport re-executes the running binary for each worker place.
func TestMain(m *testing.M) {
	tcp.MaybeWorker()
	os.Exit(m.Run())
}

// tiny shrinks a workload to smoke-test size while keeping its shape:
// transport, places, restore mode, compression and three kills at odd
// iterations between checkpoints.
func tiny(w workload) workload {
	w.PerPlace = 300
	w.Iters = 12
	if len(w.Kills) > 0 {
		w.Kills = []kill{{3, 1}, {5, 2}, {9, 3}}
	}
	return w
}

func tinyOptions(t *testing.T, trace bool) options {
	return options{seed: 7, seconds: 1e-3, trace: trace, traceDir: t.TempDir()}
}

func TestVerifyRejectsPerturbedIterate(t *testing.T) {
	for _, w := range workloads() {
		w := tiny(w)
		t.Run(w.Name, func(t *testing.T) {
			ref, err := w.computeReference(7)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.verify(ref, ref); err != nil {
				t.Fatalf("reference rejected against itself: %v", err)
			}
			if err := w.verify(ref, w.perturb(ref)); !errors.Is(err, errMismatch) {
				t.Fatalf("perturbed iterate: got %v, want %v", err, errMismatch)
			}
			// A run measured against a perturbed reference must be
			// counted as failed, and the result must say so.
			s, err := measureAgainst(w, tinyOptions(t, false), w.perturb(ref), io.Discard, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if s.attempted == 0 || s.failed != s.attempted {
				t.Fatalf("%d of %d runs counted as failed, want all", s.failed, s.attempted)
			}
			res := result{Correct: true, Metrics: make(map[string]metricValue)}
			res.add(s, false, "")
			if res.Correct || res.Failed != s.attempted {
				t.Fatalf("result correct=%v failed=%d, want incorrect with %d failed", res.Correct, res.Failed, s.attempted)
			}
		})
	}
}

func TestSmoke(t *testing.T) {
	for _, w := range workloads() {
		w := tiny(w)
		t.Run(w.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				opt := tinyOptions(t, traced)
				s, err := measure(w, opt, io.Discard, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				res := result{Correct: true, Metrics: make(map[string]metricValue)}
				res.add(s, traced, "")
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("traced=%v: correct=%v, %d of %d runs failed", traced, res.Correct, res.Failed, res.Attempted)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(defs))
				}
				for _, m := range defs {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Fatalf("traced=%v: metric %s = %+v, want unit %q", traced, m.Name, got, m.Unit)
					}
				}
				if !traced {
					continue
				}
				if w.Transport == "tcp" && res.Metrics["kernel.worker_tasks"].Value <= 0 {
					t.Fatalf("kernel.worker_tasks = %v: the tcp workload measured coordinator fallback", res.Metrics["kernel.worker_tasks"].Value)
				}
				if got, want := res.Metrics["core.restores"].Value, float64(len(w.Kills)); got != want {
					t.Fatalf("core.restores = %v, want %v", got, want)
				}
				checkTraceFile(t, filepath.Join(opt.traceDir, w.Name+"-seed7.json"))
			}
		})
	}
}

// checkTraceFile checks the Chrome trace-event output: complete events
// with a span id, a parent and a run id, and iterations on step spans.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"cpus", "gomaxprocs", "go", "kernel_workers", "transport", "finish", "store", "compression", "seed", "commit"} {
		if doc.OtherData[key] == "" {
			t.Errorf("trace metadata lacks %q", key)
		}
	}
	steps := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		for _, key := range []string{"span_id", "parent", "run"} {
			if _, ok := ev.Args[key]; !ok {
				t.Fatalf("span %s lacks %q", ev.Name, key)
			}
		}
		if ev.Name == "core.step" {
			steps++
			if _, ok := ev.Args["iter"]; !ok {
				t.Fatalf("step span lacks its iteration")
			}
		}
	}
	if steps == 0 {
		t.Fatal("no core.step span in the trace")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads this package reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.Name+": "+w.Why)
	}
	var listed []string
	for _, w := range b.Workloads {
		listed = append(listed, w.Name+": "+w.Why)
	}
	if strings.Join(names, "\n") != strings.Join(listed, "\n") {
		t.Errorf("workloads differ:\nBENCHMARK.json:\n%s\npackage:\n%s", strings.Join(listed, "\n"), strings.Join(names, "\n"))
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, package has %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, package has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// A step stretched in one run only must not reach the typical run's
// profile, while a step slow in every run must.
func TestStepProfileKeepsOnlyTypicalSteps(t *testing.T) {
	runs := []runResult{
		{stepsMS: []float64{50, 1, 1, 90}},
		{stepsMS: []float64{60, 1, 1, 1}},
		{stepsMS: []float64{40, 1, 70, 1, 1}},
	}
	got := stepProfile(runs)
	want := []float64{50, 1, 1, 1}
	if len(got) != len(want) {
		t.Fatalf("profile %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("profile %v, want %v", got, want)
		}
	}
}

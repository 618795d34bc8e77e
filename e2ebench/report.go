package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"

	"github.com/rgml/rgml/internal/apgas"
	"github.com/rgml/rgml/internal/par"
)

// config records the host and the run configuration, so every report and
// trace file says what produced it.
func (w workload) config(seed uint64) map[string]string {
	kills := w.chaosSchedule()
	if kills == "" {
		kills = "none"
	}
	return map[string]string{
		"workload":         w.Name,
		"seed":             strconv.FormatUint(seed, 10),
		"commit":           commit(),
		"cpus":             strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs":       strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":               runtime.Version(),
		"kernel_workers":   strconv.Itoa(par.Workers()),
		"transport":        w.Transport,
		"finish":           apgas.FinishCentral.String(),
		"store":            apgas.StorePolicy{}.String(),
		"compression":      w.Compress.String(),
		"app":              w.App,
		"places":           strconv.Itoa(w.Places),
		"size":             strconv.Itoa(w.size()),
		"iterations":       strconv.Itoa(w.Iters),
		"checkpoint_every": strconv.Itoa(w.Ckpt),
		"restore_mode":     w.Mode.String(),
		"kills":            kills,
		"net_model":        "zero (nothing modeled)",
		"ledger_cost":      "unset",
		"loop":             "closed: one executor run at a time",
	}
}

// commit names the checked-out commit, or says why it cannot. The search
// stops at the current directory, so a checkout that is not a git work
// tree never reports the commit of a repository around it.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown (not a git work tree)"
	}
	return strings.TrimSpace(string(out))
}

func printConfig(out io.Writer, meta map[string]string) {
	b, _ := json.Marshal(meta) // a map of strings always marshals
	fmt.Fprintf(out, "config %s\n", b)
}

// layerOrder groups the per-layer table by module.
var layerOrder = []struct {
	layer   string
	metrics []string
}{
	{"core", []string{"core.step_s", "core.replay_s", "core.checkpoint_s", "core.restore_s", "core.leftover_s", "core.restores", "recovery_s", "trace.solve_s", "trace.overhead_s"}},
	{"setup", []string{"apgas.start_s", "core.new_s", "apps.build_s", "apgas.shutdown_s"}},
	{"la, par", []string{"la.kernel_s", "par.parallel_frac"}},
	{"apgas", []string{"apgas.msgs_per_step", "apgas.bytes_per_step", "apgas.tasks_per_step", "apgas.ledger_events_per_step", "apgas.finish_s"}},
	{"apgas/transport, apgas/kernel", []string{"transport.frames_per_step", "transport.wire_bytes_per_step", "transport.send_block_s", "kernel.worker_tasks", "kernel.worker_frac"}},
	{"snapshot, codec", []string{"snapshot.save_bytes", "snapshot.replica_bytes", "snapshot.load_bytes", "snapshot.pool_hit_frac", "codec.compress_ratio", "codec.compress_s"}},
	{"baseline", []string{"baseline.serial_s", "runs_failed_frac"}},
}

// blindSpots are the costs the benchmark's spans cannot see; they are
// listed rather than estimated.
var blindSpots = []string{
	"la kernels that run inside tcp worker processes (la.kernel_s counts coordinator-side calls only)",
	"the sparse CSR mat-vec of PageRank (no la.kernel histogram covers it)",
	"apgas.finish_s sums nested finishes, which overlap: it can exceed the time it covers",
	"la.kernel_s and codec.compress_s sum work that runs concurrently on several places or pool workers: they can exceed wall time",
	"dist collectives have no counter of their own: their time is inside core.step_s",
}

// printTable prints the workload's metrics by name with their units.
func printTable(out io.Writer, w workload, s *summary, traced bool) {
	fmt.Fprintf(out, "%s: %d runs attempted, %d failed (%d untraced, %d traced ok)\n",
		w.Name, s.attempted, s.failed, len(s.untraced), len(s.traced))
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	defer tw.Flush()
	if !traced {
		if len(s.untraced) == 0 {
			return
		}
		v := s.endToEndValues()
		rows := append(append([]metricDef(nil), endToEnd...),
			metricDef{"recovery_s", "s", "lower"}, metricDef{"runs_failed_frac", "frac", "lower"})
		for _, m := range rows {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t(%d runs)\n", m.Name, v[m.Name], m.Unit, len(s.untraced))
		}
		return
	}
	if len(s.traced) == 0 || len(s.untraced) == 0 {
		return
	}
	v := s.perLayerValues()
	units := make(map[string]string)
	for _, m := range perLayer {
		units[m.Name] = m.Unit
	}
	for _, g := range layerOrder {
		fmt.Fprintf(tw, "  [%s]\t\t\t\n", g.layer)
		for _, name := range g.metrics {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t\n", name, v[name], units[name])
		}
	}
	tw.Flush()
	solve := v["trace.solve_s"]
	fmt.Fprintf(out, "  leftover: %.6g s of %.6g s traced solve (%.1f%%) is outside Step, Checkpoint and Restore\n",
		v["core.leftover_s"], solve, 100*v["core.leftover_s"]/solve)
	fmt.Fprintf(out, "  tracing overhead: %+.6g s (traced minus untraced solve_s, medians of %d and %d runs)\n",
		v["trace.overhead_s"], len(s.traced), len(s.untraced))
	fmt.Fprintln(out, "  blind spots:")
	for _, b := range blindSpots {
		fmt.Fprintf(out, "    - %s\n", b)
	}
}

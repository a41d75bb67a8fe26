// Command uotsperf is the repository's benchmark. It drives the shipped
// serving binaries (uotsserve, uotsshard) over loopback HTTP with
// seeded, pre-rendered request streams, checks every answer it can
// against in-process oracles, and prints each metric by name with its
// unit and sample count. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root, after run.sh has built the binaries):
//
//	uotsperf --workload search-heavy --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	search-heavy  2 closed-loop clients against uotsserve -landmarks 16,
//	              |O| in 1..4 zipf-hot sources, half with 1–2 keywords;
//	              then, untimed for the reads, a write phase on
//	              uotsserve -ingest -fsync always (see e2e.go) whose WAL
//	              the recovery restarts replay
//	fleet-light   1 closed-loop client, router over 2 uotsshard hash
//	              partitions, |O| = 1, no keywords
//
// --trace 0 measures the end-to-end metrics against the binaries.
// --trace 1 composes the same configuration in-process from the
// packages' constructors, records spans and counts around their public
// seams from this package's own code, and reports the per-layer
// metrics (see traced.go).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one traffic mix. clients is the number of closed-loop
// clients of the timed reads, chosen so that the serving processes never
// have more searches to run at once than the two-core host the workloads
// were sized on has cores: two monolithic searches, or one routed search
// whose two partitions run side by side. Past that, the figures measure
// how the scheduler interleaves the processes more than the program.
type workload struct {
	topo    string // topoSpec kind of the timed reads: "mono" or "fleet"
	shape   shape
	clients int
	ingest  bool // followed by the write phase on a live server
	why     string
}

var workloads = map[string]workload{
	"search-heavy": {topo: "mono", shape: heavyShape, clients: 2, ingest: true,
		why: "core expansion and probe corridor searches dominate; the write phase after them drives the WAL, group commit and MVCC snapshot path"},
	"fleet-light": {topo: "fleet", shape: lightShape, clients: 1,
		why: "shard scatter/merge, the gob RPC hop and HTTP encode/decode dominate"},
}

// Set-up and restart repetitions per run; the median is reported.
// warmUp is the untimed load, of the measured phase's shape, that runs
// before it: connection set-up, the servers' lazy first-query work and
// their collectors' pacing settle there.
const (
	warmUp       = 3 * time.Second
	setupReps    = 7
	recoveryReps = 5
)

// metric is one reported figure. n is the sample count behind it (0 for
// a plain count or ratio); p is its percentile, for the beyond-check.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	p     float64
}

// result accumulates one run's output.
type result struct {
	attempted, failed int
	checks            []string
	metrics           []metric
}

func (r *result) add(name string, value float64, unit string) {
	r.addCounted(name, value, unit, 0)
}

func (r *result) addCounted(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, n: n})
}

// addDist adds a latency distribution's p50 and p99, in milliseconds.
func (r *result) addDist(prefix string, d dist) {
	r.metrics = append(r.metrics,
		metric{name: prefix + "_p50_ms", value: d.p50, unit: "ms", n: d.n, p: 0.50},
		metric{name: prefix + "_p99_ms", value: d.p99, unit: "ms", n: d.n, p: 0.99})
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "uotsperf:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("uotsperf", flag.ContinueOnError)
	name := fs.String("workload", "", "search-heavy or fleet-light")
	seed := fs.Uint64("seed", 1, "seed of every request stream")
	seconds := fs.Int("seconds", 20, "measured seconds per phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from the binaries; 1: per-layer metrics from the traced in-process run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	env, err := newEnv(*name, *seed)
	if err != nil {
		return err
	}
	if wl.ingest {
		env.prov["fsync"] = "always"
		env.prov["write_phase"] = fmt.Sprintf("%d writes/s for %v", writesPerSec, writePhase)
	}
	dur := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = runTraced(env, wl, dur)
	} else {
		res, err = runEndToEnd(env, wl, dur)
	}
	if err != nil {
		return err
	}
	report(stdout, env, wl, *trace == 1, res)
	return nil
}

// env is the per-run context: paths inside the checkout, the corpus and
// its streams.
type env struct {
	workload string
	seed     uint64
	binDir   string
	runDir   string
	data     string
	prov     map[string]any
}

func newEnv(name string, seed uint64) (*env, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	binDir := filepath.Join(build, "bin")
	for _, bin := range []string{"uotsdgen", "uotsserve", "uotsshard"} {
		if !fileExists(filepath.Join(binDir, bin)) {
			return nil, fmt.Errorf("%s missing from %s: build with uotsperf/run.sh", bin, binDir)
		}
	}
	runDir := filepath.Join(build, "run", fmt.Sprintf("%s-s%d-%d", name, seed, os.Getpid()))
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	data, err := corpusPrefix(binDir, filepath.Join(build, "data"))
	if err != nil {
		return nil, err
	}
	e := &env{workload: name, seed: seed, binDir: binDir, runDir: runDir, data: data}
	e.prov = provenance(root, seed)
	return e, nil
}

// provenance records what a wall-clock number depends on.
func provenance(root string, seed uint64) map[string]any {
	return map[string]any{
		"commit":     gitCommit(root),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"seed":       seed,
		"corpus": fmt.Sprintf("uotsdgen -city %s -scale %g -trajs %d -mean %d -seed %d",
			corpusShape.City, corpusShape.Scale, corpusShape.Trajs, corpusShape.Mean, corpusShape.Seed),
	}
}

// gitCommit reads HEAD without running git; a source export that is not
// a repository reports "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
		return strings.TrimSpace(string(id))
	}
	return "unknown"
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// report prints the human-readable table (every metric with unit and
// sample count, flagging percentiles with fewer than 10 samples beyond
// them), then the one-line JSON result.
func report(w io.Writer, e *env, wl workload, traced bool, r *result) {
	prov, _ := json.Marshal(e.prov)
	mode := "end-to-end (binaries, untraced)"
	if traced {
		mode = "per-layer (in-process, traced)"
	}
	fmt.Fprintf(w, "uotsperf %s: %s — %s\n", e.workload, mode, wl.why)
	fmt.Fprintf(w, "provenance %s\n", prov)
	for _, c := range r.checks {
		fmt.Fprintf(w, "check %s\n", c)
	}
	out := map[string]any{}
	for _, m := range r.metrics {
		line := fmt.Sprintf("metric %-42s %14.4f %-6s", m.name, m.value, m.unit)
		if m.p > 0 && m.n == 0 {
			line += " n=0 (this workload has no such layer)"
		}
		if m.n > 0 {
			line += fmt.Sprintf(" n=%d", m.n)
			if m.p > 0 {
				if b := beyond(m.n, m.p); b < 10 {
					line += fmt.Sprintf(" (only %d samples beyond p%02.0f)", b, m.p*100)
				}
			}
		}
		fmt.Fprintln(w, line)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	fmt.Fprintf(w, "attempted %d, failed %d (failed_share %.6f)\n", r.attempted, r.failed,
		float64(r.failed)/float64(max(1, r.attempted)))
	line, _ := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	fmt.Fprintln(w, string(line))
}

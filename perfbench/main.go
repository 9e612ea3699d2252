// Command perfbench is the cliffedge benchmark. One invocation runs one
// workload for a fixed time, checks that every output it produced is
// correct, and prints its metrics: a table for people, then one JSON
// object as the last line of standard output.
//
//	python3 perfbench/run.py --workload cascade --seed 1 --seconds 10 --trace 0
//
// run.py builds this package from the checkout and runs it from the
// checkout's root. The workloads (cascade, daemon, fleet), their metrics and
// the layers each one isolates are described in perfbench/README.md.
//
// With --trace 0 the JSON carries the end-to-end metrics, measured with no
// instrumentation. With --trace 1 the same timed phase runs twice, plain and
// then under a CPU profile, obs counter diffs and client spans, and the JSON
// carries the per-layer metrics; the profile is written under --out when
// the traced phase ends, the spans when the benchmark ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is what one invocation was asked to do.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	out      string // directory for the profile, the spans and temporary stores
}

// workloads maps each workload name to the function that runs it: its
// set-up, the timed phase (twice when traced), the correctness checks and
// the teardown, recording what it measured in the bench.
var workloads = map[string]func(config, *bench) error{
	"cascade": runCascade,
	"daemon":  runDaemon,
	"fleet":   runFleet,
}

// maxSeed bounds --seed so that the seed ranges derived from it, a
// million seeds per workload seed, stay far from int64 overflow.
const maxSeed = 1 << 40

// quiet discards the program's operational logs, which would otherwise
// interleave with the benchmark's output.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: cascade, daemon or fleet")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; every generated input derives from it")
	flag.Float64Var(&seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1: also run a traced timed phase and report per-layer metrics")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench-out"), "directory for profiles, spans and temporary stores")
	flag.Parse()
	drive, ok := workloads[cfg.workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) || cfg.seed < 0 || cfg.seed >= maxSeed {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload cascade|daemon|fleet --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.traced = trace == 1
	// A hung server or client must fail the run, not stall it.
	time.AfterFunc(2*time.Minute+4*cfg.seconds, func() {
		fmt.Fprintln(os.Stderr, "perfbench: timed out")
		os.Exit(1)
	})

	dir, err := os.MkdirTemp(mkdir(cfg.out), fmt.Sprintf("%s-seed%d-*", cfg.workload, cfg.seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.out = dir
	b := newBench()
	if cfg.traced {
		b.tr = newTracer(cfg.out)
	}
	err = drive(cfg, b)
	if err != nil {
		b.fail("%s: %v", cfg.workload, err)
	}
	if cfg.traced && err == nil {
		if werr := b.tr.write(); werr != nil {
			b.fail("writing trace output: %v", werr)
		}
	}
	// Temporary stores are large; only a traced run's profile and spans
	// are kept.
	if cfg.traced {
		os.RemoveAll(filepath.Join(cfg.out, "stores"))
	} else {
		os.RemoveAll(cfg.out)
	}
	os.Exit(b.print(os.Stdout, cfg))
}

func mkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	return dir
}

// bench collects one invocation's metrics, operation counts and failures.
type bench struct {
	e2e       map[string]value
	layer     map[string]value
	attempted int
	failures  []string
	tr        *tracer // nil until a traced phase starts
}

// value is one reported metric with the number of samples behind it.
type value struct {
	v    float64
	unit string
	n    int
}

func newBench() *bench {
	return &bench{e2e: map[string]value{}, layer: map[string]value{}}
}

func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.failures = append(b.failures, msg)
	fmt.Fprintln(os.Stderr, "FAIL:", msg)
}

// check records one attempted operation and whether it failed.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.fail(format, args...)
	}
}

// print writes the table and the JSON result line and returns the exit
// code: 0 only when every metric is present and every check passed.
func (b *bench) print(w io.Writer, cfg config) int {
	want, got := endToEnd, b.e2e
	if cfg.traced {
		want, got = perLayer, b.layer
	}
	for _, m := range want {
		if _, ok := got[m.name]; !ok && len(b.failures) == 0 {
			b.fail("metric %s was not measured", m.name)
		}
	}
	for _, set := range []map[string]value{b.e2e, b.layer} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			v := set[n]
			fmt.Fprintf(w, "%-28s %16.6g %-6s n=%d\n", n, v.v, v.unit, v.n)
		}
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(b.failures) == 0, Attempted: b.attempted, Failed: len(b.failures), Metrics: map[string]metric{}}
	if out.Attempted < out.Failed {
		out.Attempted = out.Failed
	}
	if out.Attempted == 0 {
		out.Attempted = 1
		out.Failed = 1
	}
	for _, m := range want {
		if v, ok := got[m.name]; ok {
			out.Metrics[m.name] = metric{Value: v.v, Unit: m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cliffedge/internal/obs"
)

// metricSpec names one metric as BENCHMARK.json lists it.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed with
// --trace 0. Every workload reports each of them; README.md gives each
// one's meaning per workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_ms_per_run", "ms"},
	{"peak_rss_mb", "MB"},
	{"allocs_per_run", "count"},
	{"alloc_bytes_per_run", "B"},
}

// modules are the layers CPU-profile samples are charged to: the
// repository's packages that the workloads exercise, the repository root
// package ("cliffedge"), the benchmark's own code ("harness"), net/http
// work with no repository frame ("http") and everything else ("other").
var modules = []string{
	"core", "sim", "region", "graph", "netem", "gen", "trace", "check",
	"cliffedge", "campaign", "serve", "store", "fleet", "obs",
	"http", "harness", "other",
}

// perLayer are the metrics of single layers, printed with --trace 1.
var perLayer = func() []metricSpec {
	out := []metricSpec{
		{"runs_per_s", "1/s"},
		{"campaign_p50_s", "s"},
		{"campaign_p90_s", "s"},
		{"tracing_overhead_s", "s"},
		{"total.cpu_s", "s"},
	}
	for _, m := range modules {
		out = append(out, metricSpec{m + ".cpu_s", "s"})
	}
	return append(out,
		metricSpec{"core.handler_s", "s"},
		metricSpec{"core.handler_calls", "count"},
		metricSpec{"sim.kernel_s", "s"},
		metricSpec{"sim.events", "count"},
		metricSpec{"sim.messages", "count"},
		metricSpec{"sim.ns_per_event", "ns"},
		metricSpec{"netem.sent", "count"},
		metricSpec{"netem.retransmits", "count"},
		metricSpec{"netem.dropped", "count"},
		metricSpec{"serve.jobs_committed", "count"},
		metricSpec{"serve.submit_p50_s", "s"},
		metricSpec{"serve.first_result_p50_s", "s"},
		metricSpec{"serve.first_result_p90_s", "s"},
		metricSpec{"serve.report_p50_s", "s"},
		metricSpec{"store.appends", "count"},
		metricSpec{"store.bytes_per_run", "B"},
		metricSpec{"store.replay_s", "s"},
		metricSpec{"store.replay_records", "count"},
		metricSpec{"fleet.sync_batches", "count"},
		metricSpec{"fleet.records_fetched", "count"},
		metricSpec{"fleet.records_merged", "count"},
		metricSpec{"fleet.fetched_per_merged", "ratio"},
		metricSpec{"fleet.results_get_p50_s", "s"},
		metricSpec{"http.requests", "count"},
		metricSpec{"runtime.gc_cpu_s", "s"},
		metricSpec{"runtime.gc_cycles", "count"},
		metricSpec{"runtime.sched_wait_p90_s", "s"},
	)
}()

// minBeyond is how many samples must lie beyond a reported percentile.
// With it, a median needs 20 samples and a p90 needs 100.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs. It refuses
// when fewer than minBeyond samples lie beyond that rank, since such a
// tail is one or two outliers, not a percentile.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle of xs (the mean of the middle two when even), for
// repeated measurements of one thing, such as set-up, rather than a
// latency distribution.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// pct stores the p-th percentile of xs under name, or 0 with the reason
// on standard error when the sample is too small to support it.
func (b *bench) pct(name string, xs []float64, p float64) {
	v, err := percentile(xs, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v; reported as 0\n", name, err)
	}
	b.layer[name] = value{v, "s", len(xs)}
}

// phase measures the end-to-end cost of one timed phase: process CPU,
// heap allocations and peak resident memory.
type phase struct {
	cpu time.Duration
	ms  runtime.MemStats

	// What exclude left out.
	skipCPU            time.Duration
	skipMallocs, skipB uint64
}

func beginPhase() *phase {
	runtime.GC()
	resetPeakRSS()
	p := &phase{cpu: cpuTime()}
	runtime.ReadMemStats(&p.ms)
	return p
}

// exclude runs f inside the phase and leaves its CPU time and heap
// allocations out of the phase's cost metrics.
func (p *phase) exclude(f func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu := cpuTime()
	err := f()
	p.skipCPU += cpuTime() - cpu
	runtime.ReadMemStats(&after)
	p.skipMallocs += after.Mallocs - before.Mallocs
	p.skipB += after.TotalAlloc - before.TotalAlloc
	return err
}

// end records the e2e cost metrics of the phase for runs completed runs.
func (p *phase) end(b *bench, runs int) {
	cpu := cpuTime() - p.cpu - p.skipCPU
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r := float64(max(runs, 1))
	b.e2e["cpu_ms_per_run"] = value{float64(cpu) / 1e6 / r, "ms", runs}
	b.e2e["allocs_per_run"] = value{float64(ms.Mallocs-p.ms.Mallocs-p.skipMallocs) / r, "count", runs}
	b.e2e["alloc_bytes_per_run"] = value{float64(ms.TotalAlloc-p.ms.TotalAlloc-p.skipB) / r, "B", runs}
	b.e2e["peak_rss_mb"] = value{peakRSSMB(), "MB", 1}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so
// peak_rss_mb covers the timed phase rather than set-up and reference
// runs. Where the kernel refuses, the mark covers the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// scrape renders the process-wide obs registry, which is what GET
// /metrics serves, and parses it back with obs.ParseText.
func scrape() (map[string]float64, error) { return scrapeFrom(obs.Default) }

func scrapeFrom(r *obs.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return obs.ParseText(&buf)
}

// counterDiff is after minus before for one series key (labels included,
// exactly as exposed). A series absent before counts from zero.
func counterDiff(before, after map[string]float64, key string) float64 {
	return after[key] - before[key]
}

// familyDiff sums the diffs of every series of a family whose labels
// contain all of the given label pairs, such as `route="GET /x"`.
func familyDiff(before, after map[string]float64, family string, labels ...string) float64 {
	sum := 0.0
	for key, v := range after {
		if !seriesOf(key, family) || !hasLabels(key, labels) {
			continue
		}
		sum += v - before[key]
	}
	return sum
}

func seriesOf(key, family string) bool {
	return key == family || strings.HasPrefix(key, family+"{")
}

func hasLabels(key string, labels []string) bool {
	for _, l := range labels {
		if !strings.Contains(key, l) {
			return false
		}
	}
	return true
}

// histDiffPercentile is the p-th percentile, in the histogram's own unit,
// of the observations a cumulative-bucket histogram family (as obs
// exposes it) gained between the two scrapes, restricted to the series
// carrying the given labels. The value is the upper bound of the bucket
// holding that rank.
func histDiffPercentile(before, after map[string]float64, family string, p float64, labels ...string) (float64, int, error) {
	type bucket struct{ le, cum float64 }
	counts := func(m map[string]float64) []bucket {
		var out []bucket
		for key, v := range m {
			if !strings.HasPrefix(key, family+"_bucket{") || !hasLabels(key, labels) {
				continue
			}
			i := strings.Index(key, `le="`)
			if i < 0 {
				continue
			}
			s := key[i+4:]
			s = s[:strings.IndexByte(s, '"')]
			le := math.Inf(1)
			if s != "+Inf" {
				le, _ = strconv.ParseFloat(s, 64)
			}
			out = append(out, bucket{le, v})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
		return out
	}
	// De-cumulate each scrape into per-bucket counts keyed by bound; a
	// bucket first seen after the first scrape held nothing before.
	per := func(bs []bucket) map[float64]float64 {
		m := map[float64]float64{}
		prev := 0.0
		for _, b := range bs {
			m[b.le] = b.cum - prev
			prev = b.cum
		}
		return m
	}
	b0, b1 := per(counts(before)), per(counts(after))
	var bounds []float64
	total := 0.0
	for le, c := range b1 {
		if d := c - b0[le]; d > 0 {
			bounds = append(bounds, le)
			total += d
		}
	}
	sort.Float64s(bounds)
	n := int(total)
	rank := int(math.Ceil(p / 100 * total))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, n, fmt.Errorf("p%g of %d observations has %d beyond it, want at least %d", p, n, n-rank, minBeyond)
	}
	seen := 0.0
	for _, le := range bounds {
		seen += b1[le] - b0[le]
		if seen >= float64(rank) {
			return le, n, nil
		}
	}
	return bounds[len(bounds)-1], n, nil
}

// runtimeSample reads the runtime/metrics the traced run reports.
type runtimeSample struct {
	gcCPU    float64
	gcCycles uint64
	sched    *metrics.Float64Histogram
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		r.sched = s[2].Value.Float64Histogram()
	}
	return r
}

// schedWaitPercentile is the p-th percentile of goroutine scheduling
// latency between two samples: the upper bound of the bucket holding that
// rank (the lower bound for the open-ended last bucket).
func schedWaitPercentile(a, b runtimeSample, p float64) (float64, int, error) {
	if a.sched == nil || b.sched == nil || len(a.sched.Counts) != len(b.sched.Counts) {
		return 0, 0, fmt.Errorf("runtime scheduler latency histogram unavailable")
	}
	total := uint64(0)
	d := make([]uint64, len(b.sched.Counts))
	for i := range d {
		d[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += d[i]
	}
	rank := uint64(math.Ceil(p / 100 * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if total-min(rank, total) < minBeyond {
		return 0, int(total), fmt.Errorf("p%g of %d scheduling latencies has too few beyond it", p, total)
	}
	seen := uint64(0)
	for i, c := range d {
		seen += c
		if seen >= rank {
			hi := b.sched.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.sched.Buckets[i]
			}
			return hi, int(total), nil
		}
	}
	return 0, int(total), fmt.Errorf("rank beyond histogram")
}

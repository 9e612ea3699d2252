package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"cliffedge/internal/obs"
	"cliffedge/internal/scenario"
)

func TestAttributeChargesInnermostRepositoryFrame(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // innermost first
		want   string
	}{
		{"own frame", []string{
			"cliffedge/internal/sim.(*lane).dispatch",
			"cliffedge/internal/sim.(*Runner).RunContext",
		}, "sim"},
		{"stdlib charged to its caller", []string{
			"runtime.mallocgc",
			"encoding/json.(*decodeState).object",
			"encoding/json.Unmarshal",
			"cliffedge/internal/store.DecodeRecords",
			"cliffedge/internal/fleet.(*workerClient).Results",
		}, "store"},
		{"innermost of several modules", []string{
			"cliffedge/internal/core.(*Node).OnMessage",
			"cliffedge/internal/sim.(*lane).handleDeliver",
			"cliffedge.(*Campaign).runJob",
		}, "core"},
		{"repository root package", []string{
			"sort.Slice",
			"cliffedge.summarize",
		}, "cliffedge"},
		{"generic instantiation", []string{
			"cliffedge/internal/check.AutomataViolations[go.shape.*uint8]",
		}, "check"},
		{"closure", []string{
			"cliffedge/internal/serve.(*Server).Handler.InstrumentHTTP.func1",
		}, "serve"},
		{"benchmark harness", []string{
			"encoding/json.Unmarshal",
			"main.(*submission).follow",
		}, "harness"},
		{"net/http with no repository frame", []string{
			"syscall.Syscall",
			"net/http.(*persistConn).readLoop",
		}, "http"},
		{"runtime only", []string{
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker",
		}, "other"},
		{"unlisted repository module", []string{
			"cliffedge/internal/dsu.(*DSU).Find",
		}, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("%s: attribute = %q, want %q", c.name, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestParseTraces(t *testing.T) {
	const text = `File: perfbench
Type: cpu
Duration: 1s, Total samples = 40ms ( 4.00%)
-----------+-------------------------------------------------------
      30ms   encoding/json.(*decodeState).object
             encoding/json.Unmarshal
             cliffedge/internal/fleet.(*Fleet).syncShard (inline)
             cliffedge/internal/fleet.(*Fleet).driveShard
-----------+-------------------------------------------------------
     1.5ms   runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`
	samples, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []cpuSample{
		{[]string{"encoding/json.(*decodeState).object", "encoding/json.Unmarshal",
			"cliffedge/internal/fleet.(*Fleet).syncShard", "cliffedge/internal/fleet.(*Fleet).driveShard"}, 30e6},
		{[]string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}, 1.5e6},
	}
	if !reflect.DeepEqual(samples, want) {
		t.Fatalf("parseTraces = %v, want %v", samples, want)
	}
	if got := cpuByModule(samples); got["fleet"] != 0.03 || got["other"] != 0.0015 {
		t.Errorf("cpuByModule = %v, want fleet 0.03 and other 0.0015", got)
	}
	if _, err := parseTraces("-----------+---\n  ten   runtime.main\n"); err == nil {
		t.Error("parseTraces accepted a sample line with no duration")
	}
}

func TestReadCPUProfileAttributesHarness(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	samples, err := readCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	byModule := cpuByModule(samples)
	total := 0.0
	for _, s := range byModule {
		total += s
	}
	if total <= 0 {
		t.Fatalf("no CPU samples in a 300 ms spin: %v", byModule)
	}
	if byModule["harness"] < total/2 {
		t.Errorf("spin is in package main, yet harness got %.2fs of %.2fs: %v", byModule["harness"], total, byModule)
	}
}

func TestCounterDiffsThroughParseText(t *testing.T) {
	r := obs.NewRegistry()
	runs := r.Counter("x_runs_total", "runs")
	reqs := r.CounterVec("x_requests_total", "requests", "route", "code")
	lat := r.HistogramVec("x_duration_us", "latency", "route")
	const results = "GET /api/v1/campaigns/{id}/results"

	runs.Add(5)
	reqs.With(results, "200").Add(3)
	reqs.With("POST /api/v1/campaigns", "201").Inc()
	before, err := scrapeFrom(r)
	if err != nil {
		t.Fatal(err)
	}
	runs.Add(7)
	reqs.With(results, "200").Add(4)
	reqs.With(results, "404").Add(2) // a series first seen after the first scrape
	reqs.With("POST /api/v1/campaigns", "201").Add(10)
	for i := 1; i <= 100; i++ {
		lat.With(results).Observe(int64(i * 10))
	}
	lat.With("GET /healthz").Observe(1 << 20)
	after, err := scrapeFrom(r)
	if err != nil {
		t.Fatal(err)
	}

	if got := counterDiff(before, after, "x_runs_total"); got != 7 {
		t.Errorf("x_runs_total diff = %v, want 7", got)
	}
	if got := counterDiff(before, after, `x_requests_total{route="GET /api/v1/campaigns/{id}/results",code="200"}`); got != 4 {
		t.Errorf("labelled series diff = %v, want 4", got)
	}
	if got := familyDiff(before, after, "x_requests_total", `route="`+results+`"`); got != 6 {
		t.Errorf("route family diff = %v, want 6", got)
	}
	if got := familyDiff(before, after, "x_requests_total"); got != 16 {
		t.Errorf("whole family diff = %v, want 16", got)
	}
	p50, n, err := histDiffPercentile(before, after, "x_duration_us", 50, `route="`+results+`"`)
	if err != nil {
		t.Fatal(err)
	}
	// 100 observations 10..1000: the median, 500, lies in the bucket
	// whose upper bound is reported; obs buckets are at most 1/16 wide.
	if n != 100 || p50 < 500 || p50 > 500*17/16 {
		t.Errorf("p50 = %v over %d observations, want 500..531 over 100", p50, n)
	}
	if _, _, err := histDiffPercentile(before, after, "x_duration_us", 50, `route="GET /healthz"`); err == nil {
		t.Error("p50 of one observation was not refused")
	}
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{19, 50, 0, false},
		{20, 50, 10, true},
		{99, 90, 0, false},
		{100, 90, 90, true},
		{1000, 90, 900, true},
		{109, 99, 0, false},
	} {
		got, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok=%v", c.p, c.n, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("p%g of %d samples = %v, want %v", c.p, c.n, got, c.want)
		}
	}
}

func TestTimingProxyIsTransparent(t *testing.T) {
	spec := scenario.CascadeSpec(24, 24, 6, 4, 25, 7)
	plain, err := newRunner(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	clock := &handlerClock{}
	wrapped, err := newRunner(spec, clock.install)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wrapped.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want.Stats || got.EndTime != want.EndTime {
		t.Errorf("wrapped run: %+v end %d; plain run: %+v end %d", got.Stats, got.EndTime, want.Stats, want.EndTime)
	}
	if want.Stats.Messages == 0 || want.Stats.Decisions == 0 {
		t.Errorf("cascade did no work: %+v", want.Stats)
	}
	if clock.calls < int64(want.Stats.Deliveries) || clock.ns <= 0 {
		t.Errorf("proxy timed %d calls (%d ns) for %d deliveries", clock.calls, clock.ns, want.Stats.Deliveries)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which the runner
// reads, and the metric tables here, which produce the output, in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	same := func(kind string, listed []struct{ Name, Unit string }, code []metricSpec) {
		if len(listed) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(listed), len(code))
			return
		}
		for i, m := range listed {
			if m.Name != code[i].name || m.Unit != code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, m.Name, m.Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

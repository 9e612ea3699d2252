package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"
)

// span is one timed step the benchmark saw from outside the program.
// Spans of one client campaign, fleet or cascade share a trace ID; Parent
// is the ID of the span that caused this one (0 for a root).
type span struct {
	Trace  string  `json:"trace"`
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the benchmark started
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory and owns the traced phase's CPU profile
// and counter snapshots. Its methods are no-ops on a nil tracer, so the
// workloads call them unconditionally and an untraced invocation records
// nothing.
type tracer struct {
	t0  time.Time
	dir string // where the profile and the spans are written

	mu     sync.Mutex
	on     bool
	spans  []span
	nextID int

	prof bytes.Buffer
	obs0 map[string]float64
	rt0  runtimeSample
}

func newTracer(dir string) *tracer { return &tracer{t0: time.Now(), dir: dir, on: true} }

// span records a finished step and returns its ID for children to cite.
func (t *tracer) span(trace, name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	t.nextID++
	t.spans = append(t.spans, span{
		Trace: trace, ID: t.nextID, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
	})
	return t.nextID
}

func (t *tracer) setOn(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// beginTraced starts the traced phase: every per-layer metric not yet
// measured starts at zero (a layer the workload does not reach reads 0),
// then counters and runtime metrics are snapshotted and the CPU profile
// starts.
func (b *bench) beginTraced() error {
	for _, m := range perLayer {
		if _, ok := b.layer[m.name]; !ok {
			b.layer[m.name] = value{0, m.unit, 0}
		}
	}
	t := b.tr
	t.setOn(true)
	var err error
	if t.obs0, err = scrape(); err != nil {
		return err
	}
	t.rt0 = readRuntime()
	t.prof.Reset()
	return pprof.StartCPUProfile(&t.prof)
}

// endTraced stops the profile and records the layer metrics every
// workload shares.
func (b *bench) endTraced() error {
	t := b.tr
	pprof.StopCPUProfile()
	rt1 := readRuntime()
	after, err := scrape()
	if err != nil {
		return err
	}
	before := t.obs0
	path := filepath.Join(t.dir, "cpu.pprof")
	if err := os.WriteFile(path, t.prof.Bytes(), 0o644); err != nil {
		return err
	}
	samples, err := readCPUProfile(path)
	if err != nil {
		return err
	}
	total := 0.0
	for m, s := range cpuByModule(samples) {
		b.layer[m+".cpu_s"] = value{s, "s", len(samples)}
		total += s
	}
	b.layer["total.cpu_s"] = value{total, "s", len(samples)}

	count := func(name, series string) {
		b.layer[name] = value{counterDiff(before, after, series), "count", 1}
	}
	count("sim.events", "cliffedge_sim_events_total")
	count("sim.messages", "cliffedge_sim_messages_total")
	count("netem.sent", "cliffedge_netem_sent_total")
	count("netem.retransmits", "cliffedge_netem_retransmits_total")
	count("netem.dropped", "cliffedge_netem_dropped_total")
	count("serve.jobs_committed", "cliffedge_serve_jobs_committed_total")
	count("store.appends", "cliffedge_store_appends_total")
	count("fleet.sync_batches", "cliffedge_fleet_sync_batches_total")
	count("fleet.records_merged", "cliffedge_fleet_records_merged_total")
	b.layer["http.requests"] = value{familyDiff(before, after, "cliffedge_http_requests_total"), "count", 1}

	if appends := b.layer["store.appends"].v; appends > 0 {
		bytes := counterDiff(before, after, "cliffedge_store_append_bytes_total")
		b.layer["store.bytes_per_run"] = value{bytes / appends, "B", int(appends)}
	}
	merged := b.layer["fleet.records_merged"].v
	fetched := merged + counterDiff(before, after, "cliffedge_fleet_records_deduped_total")
	b.layer["fleet.records_fetched"] = value{fetched, "count", 1}
	if merged > 0 {
		b.layer["fleet.fetched_per_merged"] = value{fetched / merged, "ratio", int(merged)}
	}
	if us, n, err := histDiffPercentile(before, after, "cliffedge_http_request_duration_us", 50,
		`route="GET /api/v1/campaigns/{id}/results"`); err == nil {
		b.layer["fleet.results_get_p50_s"] = value{us / 1e6, "s", n}
	} else if n > 0 {
		fmt.Fprintln(os.Stderr, "fleet.results_get_p50_s:", err)
	}

	b.layer["runtime.gc_cpu_s"] = value{rt1.gcCPU - t.rt0.gcCPU, "s", 1}
	b.layer["runtime.gc_cycles"] = value{float64(rt1.gcCycles - t.rt0.gcCycles), "count", 1}
	if p90, n, err := schedWaitPercentile(t.rt0, rt1, 90); err == nil {
		b.layer["runtime.sched_wait_p90_s"] = value{p90, "s", n}
	} else {
		fmt.Fprintln(os.Stderr, "runtime.sched_wait_p90_s:", err)
	}
	return nil
}

// write saves the spans next to the CPU profile, which endTraced wrote.
func (t *tracer) write() error {
	f, err := os.Create(filepath.Join(t.dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "profile and spans written to %s\n", t.dir)
	return nil
}

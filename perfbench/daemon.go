package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"cliffedge"
	"cliffedge/internal/serve"
	"cliffedge/internal/store"
)

const (
	// daemonClients closed-loop clients share the daemon: one per core.
	daemonClients = 2
	// daemonWorkers is the daemon's scheduler pool, one per core.
	daemonWorkers = 2
	// sweepSeeds × 2 regimes is the interrupted sweep's grid (60k cheap
	// runs); sweepCommitted of them are in the store when the daemon
	// restarts, which the restart replays. The sweep's share of the
	// scheduler runs ~1200 of its runs a second on two cores, so the
	// remaining 40k keep it competing with the clients for the whole timed
	// phase, with room for a daemon twice as fast.
	sweepSeeds     = 30000
	sweepCommitted = 20000
	// daemonSetups restarts are timed per invocation; setup_s is their
	// median.
	daemonSetups = 5
	// minCampaigns client campaigns complete in every timed phase, so the
	// p90 campaign latency has ten samples beyond it.
	minCampaigns = 100
	// campaignSeeds × 3 topologies × 2 regimes = 96 runs per client campaign.
	campaignSeeds = 16
)

// sweepSpec is the interrupted background sweep: cheap ring runs.
func sweepSpec(seed int64) cliffedge.CampaignSpec {
	return cliffedge.CampaignSpec{
		Topologies: []string{"ring"},
		Regimes:    []string{"quiescent", "lossy"},
		Engines:    []string{"sim"},
		SeedStart:  seed*1_000_000 + 1,
		Seeds:      sweepSeeds,
		Repeats:    1,
	}
}

// clientSpec is client c's i-th campaign: every topology family a
// small-graph user would mix, over both fault regimes.
func clientSpec(seed int64, c, i int) cliffedge.CampaignSpec {
	return cliffedge.CampaignSpec{
		Topologies: []string{"ring", "grid", "smallworld"},
		Regimes:    []string{"quiescent", "lossy"},
		Engines:    []string{"sim"},
		SeedStart:  seed*1_000_000 + 500_000 + int64(c)*100_000 + int64(i)*campaignSeeds + 1,
		Seeds:      campaignSeeds,
		Repeats:    1,
	}
}

// buildInterrupted writes the store a crashed daemon leaves behind: the
// sweep's manifest still "running" with its first sweepCommitted jobs in
// the result log. It returns the sweep's campaign ID.
func buildInterrupted(dir string, spec cliffedge.CampaignSpec) (string, error) {
	st, err := store.Open(dir)
	if err != nil {
		return "", err
	}
	id, err := serve.AllocateID(st)
	if err != nil {
		return "", err
	}
	sw, err := serve.Create(st, id, "sweeper", time.Unix(0, 0).UTC(), spec)
	if err != nil {
		return "", err
	}
	jobs := sw.Remaining()[:sweepCommitted]
	var next atomic.Int64
	errs := make(chan error, daemonWorkers)
	var wg sync.WaitGroup
	for w := 0; w < daemonWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if err := sw.Commit(jobs[i], sw.RunJob(context.Background(), jobs[i]), true); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		sw.Close()
		return "", err
	}
	return id, sw.Close()
}

// daemon is one in-process cliffedged on loopback.
type daemon struct {
	srv *serve.Server
	l   *listener
}

// restart is the daemon's set-up: serve.NewServer replays the store,
// folds the sweep's aggregate and resumes it, then the listener comes up
// and /healthz answers.
func restart(dir string) (*daemon, error) {
	srv, err := serve.NewServer(dir, serve.Config{Workers: daemonWorkers, Logger: quiet})
	if err != nil {
		return nil, err
	}
	l, err := listen(srv.Handler(), "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	d := &daemon{srv, l}
	if err := waitHealthy(l.URL); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) stop() {
	d.srv.Shutdown()
	d.l.stop()
}

func runDaemon(cfg config, b *bench) error {
	stores := filepath.Join(cfg.out, "stores")
	template := filepath.Join(stores, "template")
	start := time.Now()
	sweepID, err := buildInterrupted(template, sweepSpec(cfg.seed))
	if err != nil {
		return fmt.Errorf("building the interrupted store: %w", err)
	}
	b.tr.span("setup", "build_store", 0, start, time.Now())

	copies := 0
	fresh := func() (string, error) {
		copies++
		dir := filepath.Join(stores, fmt.Sprintf("copy%d", copies))
		return dir, copyDir(template, dir)
	}
	if cfg.traced {
		if err := measureReplay(b, fresh, sweepID); err != nil {
			return err
		}
	}

	// Each restart runs on its own copy of the interrupted store; all but
	// the last are stopped as soon as they answer.
	var setups []float64
	var d *daemon
	for i := 0; i < daemonSetups; i++ {
		dir, err := fresh()
		if err != nil {
			return err
		}
		runtime.GC() // the previous restart's garbage is not this one's cost
		start := time.Now()
		if d, err = restart(dir); err != nil {
			return err
		}
		end := time.Now()
		b.tr.span("setup", "restart", 0, start, end)
		setups = append(setups, end.Sub(start).Seconds())
		if i < daemonSetups-1 {
			d.stop()
		}
	}
	b.e2e["setup_s"] = value{median(setups), "s", len(setups)}

	b.tr.setOn(false)
	p := beginPhase()
	plain, runs, err := clientPhase(cfg, b, d, 0)
	d.stop()
	if err != nil {
		return err
	}
	p.end(b, runs)
	b.e2e["wall_s"] = value{mean(latencies(plain)), "s", len(plain)}
	if err := checkAgainstLocal(b, clientSpec(cfg.seed, 0, 0), plain[0]); err != nil {
		return err
	}
	if !cfg.traced {
		return nil
	}

	// The traced phase starts from the same interrupted store, so the
	// resumed sweep competes exactly as it did in the plain phase.
	dir, err := fresh()
	if err != nil {
		return err
	}
	if d, err = restart(dir); err != nil {
		return err
	}
	defer d.stop()
	if err := b.beginTraced(); err != nil {
		return err
	}
	start = time.Now()
	traced, runs, err := clientPhase(cfg, b, d, 1)
	elapsed := time.Since(start).Seconds()
	if err != nil {
		pprof.StopCPUProfile()
		return err
	}
	if err := b.endTraced(); err != nil {
		return err
	}
	b.layer["runs_per_s"] = value{float64(runs) / elapsed, "1/s", runs}
	b.layer["tracing_overhead_s"] = value{mean(latencies(traced)) - mean(latencies(plain)), "s", len(traced)}
	clientLayers(b, traced)
	return nil
}

// measureReplay times store.OpenResults on a fresh copy of the
// interrupted log: the store's share of a restart.
func measureReplay(b *bench, fresh func() (string, error), id string) error {
	dir, err := fresh()
	if err != nil {
		return err
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	start := time.Now()
	res, recs, err := st.OpenResults(id)
	end := time.Now()
	if err != nil {
		return err
	}
	b.tr.span("setup", "store_replay", 0, start, end)
	b.layer["store.replay_s"] = value{end.Sub(start).Seconds(), "s", 1}
	b.layer["store.replay_records"] = value{float64(len(recs)), "count", 1}
	return res.Close()
}

// clientPhase runs the closed-loop clients against d until cfg.seconds
// have passed and at least minCampaigns campaigns have completed. It
// returns every completed campaign, client 0's first one first, and the
// runs the daemon committed meanwhile, the resumed sweep's included.
func clientPhase(cfg config, b *bench, d *daemon, phase int) ([]*submission, int, error) {
	before, err := scrape()
	if err != nil {
		return nil, 0, err
	}
	deadline := time.Now().Add(cfg.seconds)
	var completed atomic.Int64
	var mu sync.Mutex
	perClient := make([][]*submission, daemonClients)
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := fmt.Sprintf("client-%d", c)
			for i := 0; time.Now().Before(deadline) || completed.Load() < minCampaigns; i++ {
				spec := clientSpec(cfg.seed, c, i)
				s, err := submit(d.l.URL, "/api/v1/campaigns", client, spec)
				mu.Lock()
				ok := err == nil && checkReport(s, spec)
				b.check(ok, "%s campaign %d: %v", client, i, describe(s, err))
				if ok {
					perClient[c] = append(perClient[c], s)
					s.spans(b.tr, fmt.Sprintf("campaign-p%d-%s-%d", phase, client, i))
				}
				mu.Unlock()
				if !ok {
					return
				}
				completed.Add(1)
			}
		}()
	}
	wg.Wait()
	after, err := scrape()
	if err != nil {
		return nil, 0, err
	}
	var all []*submission
	for _, subs := range perClient {
		all = append(all, subs...)
	}
	if len(perClient[0]) == 0 {
		return nil, 0, fmt.Errorf("client-0 completed no campaign")
	}
	runs := int(counterDiff(before, after, "cliffedge_serve_jobs_committed_total"))
	return all, runs, nil
}

// checkReport: the report covers every job of the spec and no run errored.
func checkReport(s *submission, spec cliffedge.CampaignSpec) bool {
	want := len(spec.Topologies) * len(spec.Regimes) * len(spec.Engines) * spec.Seeds * spec.Repeats
	var rep cliffedge.CampaignReport
	if err := json.Unmarshal(s.report, &rep); err != nil {
		return false
	}
	return s.total == want && s.results == want && s.errored == 0 &&
		rep.Totals.Runs == want && rep.Totals.Errors == 0
}

func describe(s *submission, err error) string {
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("total %d, %d result events, %d errored, report %d bytes", s.total, s.results, s.errored, len(s.report))
}

// checkAgainstLocal byte-compares a served report.json with a
// single-box, untimed Campaign.Run of the same spec.
func checkAgainstLocal(b *bench, spec cliffedge.CampaignSpec, s *submission) error {
	camp, err := cliffedge.NewCampaignFromSpec(spec, cliffedge.WithWorkers(daemonWorkers))
	if err != nil {
		return err
	}
	rep, err := camp.Run(context.Background())
	if err != nil {
		return err
	}
	var local bytes.Buffer
	if err := rep.WriteJSON(&local); err != nil {
		return err
	}
	b.check(bytes.Equal(local.Bytes(), s.report), "report.json of %s (seeds %d+%d) differs from a single-box Campaign.Run",
		s.id, spec.SeedStart, spec.Seeds)
	return nil
}

func latencies(subs []*submission) []float64 {
	out := make([]float64, len(subs))
	for i, s := range subs {
		out[i] = s.latency()
	}
	return out
}

// clientLayers records the client-side latency breakdown of the traced
// phase's campaigns.
func clientLayers(b *bench, subs []*submission) {
	var submitS, firstS, reportS []float64
	for _, s := range subs {
		submitS = append(submitS, s.submitted.Sub(s.start).Seconds())
		firstS = append(firstS, s.firstResult.Sub(s.start).Seconds())
		reportS = append(reportS, s.reported.Sub(s.done).Seconds())
	}
	b.pct("campaign_p50_s", latencies(subs), 50)
	b.pct("campaign_p90_s", latencies(subs), 90)
	b.pct("serve.submit_p50_s", submitS, 50)
	b.pct("serve.first_result_p50_s", firstS, 50)
	b.pct("serve.first_result_p90_s", firstS, 90)
	b.pct("serve.report_p50_s", reportS, 50)
}

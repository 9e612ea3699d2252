package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cliffedge"
	"cliffedge/internal/campaign"
	"cliffedge/internal/fleet"
	"cliffedge/internal/serve"
	"cliffedge/internal/store"
)

const (
	// fleetWorkers cliffedged workers, one scheduler worker each: one per
	// core.
	fleetWorkers = 2
	// fleetShards splits each fleet in two 1500-run shards. Large shards
	// are the point: the coordinator re-fetches a shard's whole result log
	// every SyncEvery results, so its merge cost grows with shard size.
	fleetShards = 2
	// fleetSeeds × 2 regimes = 3000 cheap runs per fleet.
	fleetSeeds = 1500
	// fleetSecondsPerFleet sizes the timed phase: one fleet (~4–6 s) per
	// five requested seconds. The fleets are fixed by --seed and --seconds
	// alone, so two builds compared on the same arguments merge the same
	// runs, and the coordinator holds the same state at its peak.
	fleetSecondsPerFleet = 5
	// fleetSetups restarts are timed per invocation; setup_s is their
	// median.
	fleetSetups = 15
	// interruptedFleet numbers the fleet whose interrupted stores the
	// restarts replay; the timed fleets count up from 0, far below it.
	interruptedFleet = 500
	// interruptedAt of its runs, the first interruptedAt/fleetShards of
	// each shard in grid order, are what the interrupted fleet's stores
	// hold: two thirds.
	interruptedAt = 2000
)

// fleetSpec is the i-th fleet one invocation submits.
func fleetSpec(seed int64, i int) cliffedge.CampaignSpec {
	return cliffedge.CampaignSpec{
		Topologies: []string{"ring"},
		Regimes:    []string{"quiescent", "lossy"},
		Engines:    []string{"sim"},
		SeedStart:  seed*1_000_000 + int64(i)*fleetSeeds + 1,
		Seeds:      fleetSeeds,
		Repeats:    1,
	}
}

// cluster is an in-process coordinator with its workers, each on its own
// loopback port and store.
type cluster struct {
	workers []*daemon
	co      *fleet.Coordinator
	l       *listener
}

// bringUp starts the coordinator and the workers on the stores under dir
// and waits until each answers /healthz. The workers listen on addrs when
// given, else on fresh ports. On the stores and addresses of a stopped
// fleet, that is the fleet's restart: the coordinator replays its merged
// log and resumes the fleet, and each worker replays and resumes its
// shard's campaign.
//
// The processes start one at a time, each once the one before answers,
// coordinator first. A worker runs its resumed shard as soon as it is up,
// and those runs would otherwise take the cores from the other replays,
// making their time a matter of scheduling.
func bringUp(dir string, addrs []string) (*cluster, error) {
	c := &cluster{}
	var bound []*listener
	fail := func(err error) (*cluster, error) {
		c.stop()
		for _, l := range bound[len(c.workers):] {
			l.stop()
		}
		return nil, err
	}
	var urls []string
	for i := 0; i < fleetWorkers; i++ {
		addr := "127.0.0.1:0"
		if addrs != nil {
			addr = addrs[i]
		}
		l, err := bind(addr)
		if err != nil {
			return fail(err)
		}
		bound = append(bound, l)
		urls = append(urls, l.URL)
	}
	co, err := fleet.NewCoordinator(filepath.Join(dir, "coordinator"), fleet.Config{
		Workers:   urls,
		Shards:    fleetShards,
		PerWorker: 1,
		Logger:    quiet,
	})
	if err != nil {
		return fail(err)
	}
	c.co = co
	if c.l, err = listen(fleet.NewServer(co).Handler(), "127.0.0.1:0"); err != nil {
		return fail(err)
	}
	if err := waitHealthy(c.l.URL); err != nil {
		return fail(err)
	}
	for i, l := range bound {
		srv, err := serve.NewServer(filepath.Join(dir, fmt.Sprintf("worker%d", i)),
			serve.Config{Workers: 1, Logger: quiet})
		if err != nil {
			return fail(err)
		}
		l.serve(srv.Handler())
		c.workers = append(c.workers, &daemon{srv, l})
		if err := waitHealthy(l.URL); err != nil {
			return fail(err)
		}
	}
	return c, nil
}

func (c *cluster) stop() {
	if c.co != nil {
		c.co.Shutdown()
	}
	if c.l != nil {
		c.l.stop()
	}
	for _, w := range c.workers {
		w.stop()
	}
}

// buildInterruptedFleet runs one fleet on a fresh cluster under dir and
// stops every process once the coordinator has merged every job of
// interruptedJobs, leaving the fleet, and both shards on the workers,
// "running" in their stores. Work done after that point varies from one
// invocation to the next, so every result log is then cut back to those
// jobs alone: each restart, in every invocation, replays the same records
// and resumes the same remaining work. It returns the fleet's ID and the
// workers' addresses, which a restart must reuse for the coordinator to
// find its shards again.
func buildInterruptedFleet(dir string, spec cliffedge.CampaignSpec) (string, []string, error) {
	keep, err := interruptedJobs(spec)
	if err != nil {
		return "", nil, err
	}
	c, err := bringUp(dir, nil)
	if err != nil {
		return "", nil, err
	}
	var addrs []string
	for _, w := range c.workers {
		addrs = append(addrs, strings.TrimPrefix(w.l.URL, "http://"))
	}
	s := &submission{}
	merged := 0
	err = s.post(c.l.URL, "/api/v1/fleets", "client-0", spec, func(ev serve.Event) bool {
		if ev.Job != nil && keep[*ev.Job] {
			merged++
		}
		return merged == len(keep)
	})
	c.stop()
	if err != nil {
		return "", nil, err
	}
	if err := trimStore(filepath.Join(dir, "coordinator"), keep, interruptedAt); err != nil {
		return "", nil, err
	}
	for i := range c.workers {
		if err := trimStore(filepath.Join(dir, fmt.Sprintf("worker%d", i)), keep, interruptedAt/fleetShards); err != nil {
			return "", nil, err
		}
	}
	return s.id, addrs, nil
}

// interruptedJobs is the set of jobs the interrupted fleet's stores keep:
// the first interruptedAt/fleetShards jobs of each shard in grid order,
// the order a one-worker shard runs them in.
func interruptedJobs(spec cliffedge.CampaignSpec) (map[campaign.Job]bool, error) {
	keep := map[campaign.Job]bool{}
	for _, sh := range fleet.Split(spec, fleetShards) {
		shard := spec
		shard.SeedStart, shard.Seeds = sh.SeedStart, sh.Seeds
		camp, err := cliffedge.NewCampaignFromSpec(shard)
		if err != nil {
			return nil, err
		}
		for _, j := range camp.Jobs()[:interruptedAt/fleetShards] {
			keep[j] = true
		}
	}
	return keep, nil
}

// trimStore rewrites the result log of every campaign in the store at dir
// to hold only the records of keep's jobs, in their order, and fails
// unless each then holds exactly want records. A worker may have finished
// its shard before the coordinator merged the other shard's share of
// keep; its campaign is set back to running, its report removed, so that
// every restart resumes both shards.
func trimStore(dir string, keep map[campaign.Job]bool, want int) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	ms, err := st.List()
	if err != nil {
		return err
	}
	for _, m := range ms {
		res, recs, err := st.OpenResults(m.ID)
		if err != nil {
			return err
		}
		if err := res.Close(); err != nil {
			return err
		}
		path, err := st.File(m.ID, "results.log")
		if err != nil {
			return err
		}
		if err := os.Remove(path); err != nil {
			return err
		}
		if res, _, err = st.OpenResults(m.ID); err != nil {
			return err
		}
		n := 0
		for _, r := range recs {
			if keep[r.Job()] {
				n++
				if err := res.Append(r); err != nil {
					res.Close()
					return err
				}
			}
		}
		if err := res.Close(); err != nil {
			return err
		}
		if n != want {
			return fmt.Errorf("store %s, campaign %s: %d of the interrupted fleet's records, want %d", dir, m.ID, n, want)
		}
		if m.Status != store.StatusRunning {
			if err := st.SetStatus(m.ID, store.StatusRunning); err != nil {
				return err
			}
			report, err := st.File(m.ID, "report.json")
			if err != nil {
				return err
			}
			if err := os.Remove(report); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return nil
}

func runFleet(cfg config, b *bench) error {
	stores := filepath.Join(cfg.out, "stores")
	template := filepath.Join(stores, "template")
	start := time.Now()
	resumedSpec := fleetSpec(cfg.seed, interruptedFleet)
	resumedID, addrs, err := buildInterruptedFleet(template, resumedSpec)
	if err != nil {
		return fmt.Errorf("building the interrupted fleet: %w", err)
	}
	b.tr.span("setup", "build_stores", 0, start, time.Now())

	// Each restart runs on its own copy of the interrupted stores; all but
	// the last are stopped as soon as every process answers.
	restarts := 0
	restart := func() (*cluster, time.Duration, error) {
		dir := filepath.Join(stores, fmt.Sprintf("restart%d", restarts))
		restarts++
		if err := copyDir(template, dir); err != nil {
			return nil, 0, err
		}
		runtime.GC() // the previous restart's garbage is not this one's cost
		start := time.Now()
		c, err := bringUp(dir, addrs)
		end := time.Now()
		b.tr.span("setup", "restart", 0, start, end)
		return c, end.Sub(start), err
	}
	var setups []float64
	var c *cluster
	for i := 0; i < fleetSetups; i++ {
		var d time.Duration
		if c, d, err = restart(); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if i < fleetSetups-1 {
			c.stop()
		}
	}
	b.e2e["setup_s"] = value{median(setups), "s", len(setups)}

	// The resumed fleet runs to completion before the timed phase: it
	// warms the cluster up, as a coordinator's first fleet after a restart
	// would, and its report must match a run that was never interrupted.
	if err := finishResumed(b, c, resumedID, resumedSpec); err != nil {
		c.stop()
		return err
	}
	b.tr.setOn(false)
	p := beginPhase()
	plain, err := fleetPhase(cfg, b, c)
	c.stop()
	if err != nil {
		return err
	}
	p.end(b, mergedRuns(plain))
	b.e2e["wall_s"] = value{mean(latencies(plain)), "s", len(plain)}
	if err := checkFleets(b, cfg.seed, plain); err != nil {
		return err
	}
	if !cfg.traced {
		return nil
	}

	// The traced phase starts from the same state as the plain one and
	// submits the same fleets.
	if c, _, err = restart(); err != nil {
		return err
	}
	defer c.stop()
	if err := finishResumed(b, c, resumedID, resumedSpec); err != nil {
		return err
	}
	if err := b.beginTraced(); err != nil {
		return err
	}
	traced, err := fleetPhase(cfg, b, c)
	if err != nil {
		pprof.StopCPUProfile()
		return err
	}
	if err := b.endTraced(); err != nil {
		return err
	}
	lat := latencies(traced)
	b.layer["runs_per_s"] = value{float64(mergedRuns(traced)) / (mean(lat) * float64(len(lat))), "1/s", len(traced)}
	b.layer["tracing_overhead_s"] = value{mean(lat) - mean(latencies(plain)), "s", len(traced)}
	clientLayers(b, traced)
	return checkFleets(b, cfg.seed, traced)
}

// finishResumed follows the restarted coordinator's resumed fleet to done
// and checks its report against a single-box run of the whole spec.
func finishResumed(b *bench, c *cluster, id string, spec cliffedge.CampaignSpec) error {
	s := &submission{id: id}
	err := s.follow(c.l.URL+"/api/v1/fleets/"+id+"/events", nil)
	if err == nil {
		s.report, err = get(c.l.URL + "/api/v1/fleets/" + id + "/report.json")
	}
	b.check(err == nil, "resumed fleet %s: %v", id, err)
	if err != nil {
		return nil
	}
	return checkAgainstLocal(b, spec, s)
}

// fleetPhase submits fleets 0, 1, … one at a time, one per
// fleetSecondsPerFleet requested seconds (at least one). Each must merge
// every run of its spec with no run errored.
func fleetPhase(cfg config, b *bench, c *cluster) ([]*submission, error) {
	n := max(1, int(math.Round(cfg.seconds.Seconds()/fleetSecondsPerFleet)))
	var out []*submission
	for i := 0; i < n; i++ {
		spec := fleetSpec(cfg.seed, i)
		s, err := submit(c.l.URL, "/api/v1/fleets", "client-0", spec)
		ok := err == nil && checkReport(s, spec)
		b.check(ok, "fleet %d: %v", i, describe(s, err))
		if !ok {
			return nil, fmt.Errorf("fleet %d failed", i)
		}
		s.spans(b.tr, fmt.Sprintf("fleet-%d", i))
		out = append(out, s)
	}
	return out, nil
}

// checkFleets byte-compares the i-th merged report.json with a
// single-box, untimed Campaign.Run of fleet i's spec.
func checkFleets(b *bench, seed int64, subs []*submission) error {
	for i, s := range subs {
		if err := checkAgainstLocal(b, fleetSpec(seed, i), s); err != nil {
			return err
		}
	}
	return nil
}

func mergedRuns(subs []*submission) int {
	n := 0
	for _, s := range subs {
		n += s.total
	}
	return n
}

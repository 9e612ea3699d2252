package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"cliffedge/internal/check"
	"cliffedge/internal/graph"
	"cliffedge/internal/proto"
	"cliffedge/internal/scenario"
	"cliffedge/internal/sim"
	"cliffedge/internal/trace"
)

const (
	// cascadeSecondsPerSeed sizes the timed phase: one cascade runs per
	// two requested seconds (each takes ~1.5–2 s), each of a different
	// seed. The cascades are fixed by --seed and --seconds alone, so two
	// builds compared on the same arguments run exactly the same work.
	// Cascade sizes differ by up to ±8% from seed to seed, which the
	// run's several seeds average down.
	cascadeSecondsPerSeed = 2
	// setupsPerCascade set-ups are timed before each plain timed cascade,
	// so setup_s is the median of many ~10 ms builds spread over the
	// whole timed phase. Timed in one burst, the same builds' median moved
	// by a third from burst to burst within one process, while a
	// register-only loop kept its speed: the machine's memory-bound speed
	// drifts over seconds, and only samples spread as wide as wall_s's
	// see the same average.
	setupsPerCascade = 4
	// referenceWorkers run the untimed reference cascades, one per core.
	referenceWorkers = 2
)

// cascadeSpec is the 64×64 grid cascade of BenchmarkKernelCascade64: the
// centre 16×16 block crashes at once, then eight more nodes one by one.
func cascadeSpec(seed int64) scenario.Spec {
	return scenario.CascadeSpec(64, 64, 16, 8, 25, seed)
}

// cascadeSeedsFor derives the invocation's cascade seeds from its seed.
func cascadeSeedsFor(seed int64, seconds time.Duration) []int64 {
	n := max(2, int(math.Ceil(seconds.Seconds()/cascadeSecondsPerSeed)))
	out := make([]int64, n)
	for i := range out {
		out[i] = seed*1000 + int64(i) + 1
	}
	return out
}

// newRunner is the set-up of one cascade: the graph build and
// sim.NewRunner on the sequential kernel with the trace discarded. adjust,
// if non-nil, amends the configuration first: the reference run adds its
// checker, the traced run wraps the automaton factory.
func newRunner(spec scenario.Spec, adjust func(*sim.Config)) (*sim.Runner, error) {
	cfg := sim.Config{
		Graph:         spec.Graph,
		Factory:       scenario.CoreFactory(spec.Graph),
		Seed:          spec.Seed,
		Crashes:       spec.Crashes,
		DiscardEvents: true,
	}
	if adjust != nil {
		adjust(&cfg)
	}
	return sim.NewRunner(cfg)
}

// timeSetup times one cascade set-up, the spec's graph build included,
// with the garbage collector off, so that only the build's own work is
// timed: whether a GC cycle falls into a 10 ms build depends on the heap
// the timed phase left behind.
func timeSetup(seed int64) (time.Duration, error) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	start := time.Now()
	_, err := newRunner(cascadeSpec(seed), nil)
	return time.Since(start), err
}

// cascadeOutcome is what a timed cascade must reproduce exactly.
type cascadeOutcome struct {
	stats   trace.Stats
	endTime int64
}

// referenceCascade runs one cascade untimed under the online CD1–CD7
// checker and the automata's internal invariants.
func referenceCascade(seed int64) (cascadeOutcome, error) {
	spec := cascadeSpec(seed)
	online := check.NewOnline(spec.Graph)
	r, err := newRunner(spec, func(c *sim.Config) { c.Observer = online.Observe })
	if err != nil {
		return cascadeOutcome{}, err
	}
	res, err := r.Run()
	if err != nil {
		return cascadeOutcome{}, err
	}
	rep := online.Report()
	rep.Violations = append(rep.Violations, check.AutomataViolations(res.Automata)...)
	if !rep.Ok() {
		return cascadeOutcome{}, fmt.Errorf("reference cascade seed %d: %s", seed, rep)
	}
	return cascadeOutcome{res.Stats, res.EndTime}, nil
}

func runCascade(cfg config, b *bench) error {
	seeds := cascadeSeedsFor(cfg.seed, cfg.seconds)
	refs, errs := references(b, seeds)
	for _, err := range errs {
		b.check(err == nil, "%v", err)
	}
	if len(refs) < len(seeds) {
		return nil
	}

	b.tr.setOn(false)
	var setups, peaks []float64
	p := beginPhase()
	// The set-ups are left out of the phase's cost metrics, which are
	// per cascade.
	timeSetups := func(seed int64) error {
		return p.exclude(func() error {
			for i := 0; i < setupsPerCascade; i++ {
				d, err := timeSetup(seed)
				if err != nil {
					return err
				}
				setups = append(setups, d.Seconds())
			}
			return nil
		})
	}
	plain, err := timedCascades(b, seeds, refs, nil, timeSetups, &peaks)
	if err != nil {
		return err
	}
	p.end(b, len(plain))
	// One cascade's heap is ~300 MB of garbage; whether a GC cycle lands
	// just before or after a cascade's peak moves its VmHWM by a quarter,
	// so the metric is the median cascade's peak.
	b.e2e["peak_rss_mb"] = value{median(peaks), "MB", len(peaks)}
	b.e2e["setup_s"] = value{median(setups), "s", len(setups)}
	b.e2e["wall_s"] = value{mean(plain), "s", len(plain)}
	if !cfg.traced {
		return nil
	}

	clock := &handlerClock{}
	if err := b.beginTraced(); err != nil {
		return err
	}
	traced, err := timedCascades(b, seeds, refs, clock.install, nil, nil)
	if err != nil {
		pprof.StopCPUProfile()
		return err
	}
	if err := b.endTraced(); err != nil {
		return err
	}
	runS := mean(traced) * float64(len(traced))
	handler := float64(clock.ns) / 1e9
	b.layer["runs_per_s"] = value{float64(len(traced)) / runS, "1/s", len(traced)}
	b.layer["tracing_overhead_s"] = value{mean(traced) - mean(plain), "s", len(traced)}
	b.layer["core.handler_s"] = value{handler, "s", int(clock.calls)}
	b.layer["core.handler_calls"] = value{float64(clock.calls), "count", 1}
	b.layer["sim.kernel_s"] = value{runS - handler, "s", len(traced)}
	if ev := b.layer["sim.events"].v; ev > 0 {
		b.layer["sim.ns_per_event"] = value{(runS - handler) * 1e9 / ev, "ns", int(ev)}
	}
	return nil
}

// references runs every seed's reference cascade, untimed, spread over
// referenceWorkers goroutines. It returns the outcomes that passed and
// one entry per seed in errs (nil for a pass).
func references(b *bench, seeds []int64) (map[int64]cascadeOutcome, []error) {
	refs := make(map[int64]cascadeOutcome, len(seeds))
	errs := make([]error, len(seeds))
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < referenceWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(seeds); i = int(next.Add(1)) - 1 {
				start := time.Now()
				ref, err := referenceCascade(seeds[i])
				b.tr.span(fmt.Sprintf("reference-%d", seeds[i]), "reference", 0, start, time.Now())
				mu.Lock()
				if errs[i] = err; err == nil {
					refs[seeds[i]] = ref
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return refs, errs
}

// timedCascades runs each seed's cascade once, in order, and returns the
// time each spent inside Run. Each cascade's Stats must equal its
// reference run's. adjust is passed to newRunner. When non-nil, before
// runs ahead of each cascade, and peaks collects each cascade's peak RSS.
func timedCascades(b *bench, seeds []int64, refs map[int64]cascadeOutcome,
	adjust func(*sim.Config), before func(seed int64) error, peaks *[]float64) ([]float64, error) {
	var walls []float64
	for _, s := range seeds {
		// Every cascade, plain or traced, starts on a collected heap, so
		// the set-ups' forced collections before plain cascades make no
		// difference between the phases.
		runtime.GC()
		if before != nil {
			if err := before(s); err != nil {
				return nil, err
			}
		}
		if peaks != nil {
			resetPeakRSS()
		}
		t0 := time.Now()
		r, err := newRunner(cascadeSpec(s), adjust)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		res, err := r.Run()
		t2 := time.Now()
		id := fmt.Sprintf("cascade-%d", s)
		root := b.tr.span(id, "cascade", 0, t0, t2)
		b.tr.span(id, "setup", root, t0, t1)
		b.tr.span(id, "run", root, t1, t2)
		if peaks != nil {
			*peaks = append(*peaks, peakRSSMB())
		}
		walls = append(walls, t2.Sub(t1).Seconds())
		if err != nil {
			b.check(false, "cascade seed %d: %v", s, err)
			continue
		}
		got := cascadeOutcome{res.Stats, res.EndTime}
		b.check(got == refs[s], "cascade seed %d: stats %+v end %d, reference %+v end %d",
			s, got.stats, got.endTime, refs[s].stats, refs[s].endTime)
	}
	return walls, nil
}

// handlerClock is the timing proxy behind core.handler_s: it wraps each
// automaton a runner's factory builds and sums the wall time spent in its
// event handlers. It is for the sequential kernel only; its counters are
// not synchronised.
type handlerClock struct {
	ns    int64
	calls int64
}

// install wraps the factory of a runner's configuration.
func (c *handlerClock) install(cfg *sim.Config) {
	f := cfg.Factory
	cfg.Factory = func(id graph.NodeID) proto.Automaton {
		return &timedAutomaton{inner: f(id), clock: c}
	}
}

func (c *handlerClock) since(t time.Time) {
	c.ns += int64(time.Since(t))
	c.calls++
}

// timedAutomaton forwards every call to the wrapped automaton unchanged.
type timedAutomaton struct {
	inner proto.Automaton
	clock *handlerClock
}

func (a *timedAutomaton) ID() graph.NodeID { return a.inner.ID() }

func (a *timedAutomaton) Start() proto.Effects {
	defer a.clock.since(time.Now())
	return a.inner.Start()
}

func (a *timedAutomaton) OnCrash(q graph.NodeID) proto.Effects {
	defer a.clock.since(time.Now())
	return a.inner.OnCrash(q)
}

func (a *timedAutomaton) OnMessage(from graph.NodeID, p proto.Payload) proto.Effects {
	defer a.clock.since(time.Now())
	return a.inner.OnMessage(from, p)
}

func (a *timedAutomaton) Decided() *proto.Decision { return a.inner.Decided() }

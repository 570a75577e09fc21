package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"indextune/internal/algo"
	"indextune/internal/candgen"
	"indextune/internal/greedy"
	"indextune/internal/schema"
	"indextune/internal/search"
	"indextune/internal/trace"
	"indextune/internal/whatif"
	"indextune/internal/workload"
)

// setupReps is how many times a run does its set-up; setup_s is the median.
const setupReps = 5

// libOracle is a workload with its candidates and what-if oracle: built per
// tune by cold-tune, shared across tunes by warm-search.
type libOracle struct {
	w     *workload.Workload
	cands *candgen.Result
	opt   *whatif.Optimizer
}

// loadWorkload is the workload layer: a built-in by name, or a synthesized
// workload from its JSON (ReadJSON validates it).
func loadWorkload(spec jobSpec) (*workload.Workload, error) {
	if spec.JSON != nil {
		return workload.ReadJSON(bytes.NewReader(spec.JSON))
	}
	w := workload.ByName(spec.Workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	return w, w.Validate()
}

// loadCands loads spec's workload and generates its candidates; the oracle
// is left nil.
func loadCands(spec jobSpec) (*libOracle, error) {
	w, err := loadWorkload(spec)
	if err != nil {
		return nil, err
	}
	return &libOracle{w: w, cands: candgen.Generate(w, candgen.Options{})}, nil
}

func newLibOracle(spec jobSpec) (*libOracle, error) {
	lo, err := loadCands(spec)
	if err != nil {
		return nil, err
	}
	lo.opt = search.NewOptimizer(lo.w, lo.cands)
	return lo, nil
}

// tuneRec is one finished library tune.
type tuneRec struct {
	spec   jobSpec
	wallMs float64
	cpuMs  float64
	alloc  uint64
	res    search.Result
	cfgKey string
}

// libPass is a pass over a library list and what it measured.
type libPass struct {
	recs      []tuneRec
	hits      int64 // oracle cache counters summed over the pass's oracles
	misses    int64
	resident  float64 // MiB of cache and plan spaces, summed over residents oracles
	residents int
	evictions int64
	replay    replayTotals
	traceB    int64
	cands     int
}

var allocSample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocBytes() uint64 {
	rtmetrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// tuneStamps are the wall-clock stamps of one traced tune. The wall span is
// timed on its own, apart from the layer spans, so that work no layer span
// covers shows as a gap.
type tuneStamps struct {
	wall [2]time.Time
	// load, candgen, oracle and session start, run start and end; the
	// first three are zero for a tune on a shared oracle.
	t     [6]time.Time
	flush [2]time.Time
}

// runList tunes every spec of list in order, on shared[spec.Workload] when
// shared is non-nil and on a fresh oracle otherwise. With sp non-nil the pass
// is traced. Each result is checked outside the timed part.
func runList(list []jobSpec, shared map[string]*libOracle, sp *spans, o *ops) (*libPass, error) {
	p := &libPass{}
	for i, spec := range list {
		var ts tuneStamps
		ts.wall[0] = time.Now()
		alg, err := algo.ByName(spec.Algorithm, nil)
		if err != nil {
			return nil, err
		}
		cpu0, _ := selfUsage()
		a0 := allocBytes()
		t := &ts.t
		t[0] = time.Now()
		lo := shared[spec.Workload]
		if lo == nil {
			w, err := loadWorkload(spec)
			if err != nil {
				return nil, err
			}
			t[1] = time.Now()
			cands := candgen.Generate(w, candgen.Options{})
			t[2] = time.Now()
			lo = &libOracle{w: w, cands: cands, opt: search.NewOptimizer(w, cands)}
			t[3] = time.Now()
		}
		s := search.NewSession(lo.w, lo.cands, lo.opt, spec.K, spec.Budget, spec.Seed)
		s.OtherPerCall = search.DefaultOtherPerCall(lo.opt.PerCallTime)
		s.Workers = spec.Workers
		s.DeriveEpsilon = spec.Derive
		s.StopEpsilon = spec.Stop
		var tap *traceTap
		var rec *trace.Recorder
		if sp != nil {
			tap = &traceTap{keep: true}
			rec = trace.New(tap)
			rec.SetAutoFlush(true)
			s.Trace = rec
		}
		t[4] = time.Now()
		r := search.Run(alg, s)
		t[5] = time.Now()
		a1 := allocBytes()
		cpu1, _ := selfUsage()
		if rec != nil {
			ts.flush[0] = time.Now()
			if err := rec.Flush(); err != nil {
				return nil, fmt.Errorf("flushing trace: %w", err)
			}
			ts.flush[1] = time.Now()
		}
		ts.wall[1] = time.Now()

		tr := tuneRec{spec: spec, wallMs: ms(t[5].Sub(t[0])), cpuMs: cpu1 - cpu0, alloc: a1 - a0,
			res: r, cfgKey: r.Config.Key()}
		p.recs = append(p.recs, tr)
		p.cands += len(lo.cands.Candidates)
		if shared == nil {
			p.addStats(lo.opt)
		}
		err = checkOutcome(libOutcome(spec, lo, r))
		if sp != nil {
			if terr := traceTune(sp, i, tap, rec, r, lo, s, ts, p); err == nil {
				err = terr
			}
		}
		o.done(fmt.Sprintf("tune %d (%s seed %d)", i, spec.Class, spec.Seed), err)
	}
	return p, nil
}

// addStats adds an oracle's cache counters to the pass.
func (p *libPass) addStats(opt *whatif.Optimizer) {
	st := opt.Stats()
	p.hits += st.Hits
	p.misses += st.Misses
	p.evictions += st.Evictions
	p.resident += float64(st.ResidentBytes+st.PlanSpaceBytes) / (1 << 20)
	p.residents++
}

// traceTune records a traced tune's spans, checks its trace against its
// result and measures the layers it ran on its own inputs: the derived-only
// extraction on the finished session and the what-if replay of its charged
// pairs.
func traceTune(sp *spans, op int, tap *traceTap, rec *trace.Recorder, r search.Result,
	lo *libOracle, s *search.Session, ts tuneStamps, p *libPass) error {
	t := ts.t
	sp.add(op, "tune", "", ts.wall[0], ts.wall[1])
	if !t[1].IsZero() {
		sp.add(op, "workload.load", "tune", t[0], t[1])
		sp.add(op, "candgen.generate", "tune", t[1], t[2])
		sp.add(op, "whatif.new", "tune", t[2], t[3])
		sp.add(op, "search.session", "tune", t[3], t[4])
	} else {
		sp.add(op, "search.session", "tune", t[0], t[4])
	}
	sp.add(op, "search.run", "tune", t[4], t[5])
	sp.addPhaseSpans(op, "search.run", tap.marks, t[4], t[5])
	sp.add(op, "trace.flush", "tune", ts.flush[0], ts.flush[1])
	p.traceB += tap.bytes

	sum := rec.Summary(r.Algorithm, s.Budget)
	spend := map[string]int{}
	for ph, v := range sum.SpendByPhase {
		spend[string(ph)] = v
	}
	if err := checkReserves(tap.reserves, r.WhatIfCalls); err != nil {
		return err
	}
	if err := checkPhaseSpend(spend, r.WhatIfCalls); err != nil {
		return err
	}

	d0 := time.Now()
	greedy.DerivedOnly(s, s.K)
	sp.add(op, "greedy.derived_only", "", d0, time.Now())

	ps, err := tap.pairs()
	if err != nil {
		return err
	}
	rp, err := replayWhatIf(lo.w, lo.cands, ps)
	if err != nil {
		return err
	}
	p.replay.add(rp)
	return nil
}

func libOutcome(spec jobSpec, lo *libOracle, r search.Result) outcome {
	ords := r.Config.Ordinals()
	ixs := make([]schema.Index, len(ords))
	for i, o := range ords {
		ixs[i] = lo.cands.Candidates[o].Index
	}
	return outcome{W: lo.w, Indexes: ixs, K: spec.K, Budget: spec.Budget,
		Calls: r.WhatIfCalls, Refunded: r.RefundedBudget, Stopped: r.EarlyStopped || r.Cancelled,
		Improvement: r.ImprovementPct}
}

// endToEnd computes the untraced metrics of a library pass.
func (p *libPass) endToEnd(m metrics) {
	var walls, cpu, impr, calls []float64
	byClass := map[string][]float64{}
	for _, r := range p.recs {
		walls = append(walls, r.wallMs)
		cpu = append(cpu, r.cpuMs)
		impr = append(impr, r.res.ImprovementPct)
		calls = append(calls, float64(r.res.WhatIfCalls))
		byClass[r.spec.Class] = append(byClass[r.spec.Class], r.wallMs)
	}
	total := 0.0
	for _, w := range walls {
		total += w
	}
	_, rss := selfUsage()
	m.set("tunes_per_s", float64(len(walls))/(total/1000), "1/s")
	m.set("tune_ms_gmean", classGmean(byClass), "ms")
	m.set("tune_ms_p90", quantile(walls, 0.9), "ms")
	m.set("cpu_ms_per_tune", mean(cpu), "ms")
	m.set("peak_rss_mb", rss, "MiB")
	m.set("improvement_pct", mean(impr), "%")
	m.set("whatif_calls_per_tune", mean(calls), "count")
}

// layerMetrics computes the per-layer metrics of a traced library pass
// against the untraced pass over the same list.
func (p *libPass) layerMetrics(m metrics, untraced *libPass, sp *spans) {
	n := float64(len(p.recs))
	per := func(name string) float64 { return sp.total(name) / n }
	m.set("workload.load_ms", per("workload.load"), "ms")
	m.set("candgen.generate_ms", per("candgen.generate"), "ms")
	m.set("candgen.candidates", float64(p.cands)/n, "count")
	p.replay.metrics(m)
	m.set("whatif.hit_rate", safeDiv(float64(p.hits), float64(p.hits+p.misses)), "ratio")
	m.set("whatif.resident_mb", safeDiv(p.resident, float64(p.residents)), "MiB")
	m.set("whatif.evictions", float64(p.evictions), "count")
	m.set("search.session_ms", per("search.session"), "ms")
	m.set("search.run_ms", per("search.run"), "ms")
	m.set("search.priors_ms", per("search.priors"), "ms")
	m.set("search.enumerate_ms", per("search.enumerate"), "ms")
	m.set("search.final_ms", per("search.final"), "ms")
	var hits, derived, alloc float64
	for _, r := range untraced.recs {
		hits += float64(r.res.CacheHits)
		derived += float64(r.res.DerivedBoundHits)
		alloc += float64(r.alloc)
	}
	m.set("search.cache_hits_per_tune", hits/n, "count")
	m.set("search.derived_hits_per_tune", derived/n, "count")
	m.set("greedy.derived_only_ms", per("greedy.derived_only"), "ms")
	var tracedMs, plainMs float64
	for i := range p.recs {
		tracedMs += p.recs[i].wallMs
		plainMs += untraced.recs[i].wallMs
	}
	m.set("trace.overhead_ms_per_tune", (tracedMs-plainMs)/n, "ms")
	m.set("trace.kb_per_tune", float64(p.traceB)/1024/n, "KiB")
	m.set("trace.span_coverage_min", sp.coverage("tune"), "ratio")
	m.set("heap.alloc_mb_per_tune", alloc/(1<<20)/n, "MiB")
	for _, name := range daemonOnlyLayers {
		m.set(name.name, 0, name.unit)
	}
}

// daemonOnlyLayers are the per-layer metrics of the job queue and the HTTP
// service, which the library workloads do not enter: they report 0.
var daemonOnlyLayers = []struct{ name, unit string }{
	{"jobs.queue_wait_ms_p50", "ms"},
	{"jobs.run_ms_p50", "ms"},
	{"tuned.submit_ms_p50", "ms"},
	{"tuned.first_event_ms_p50", "ms"},
	{"tuned.summary_lag_ms_p50", "ms"},
}

// runCold runs cold-tune: every tune loads its workload, generates
// candidates, builds a fresh oracle and searches, as indextune.Tune does.
func runCold(cfg config) (report, error) {
	n := rounds(cfg.seconds, coldRoundSec)
	var list []jobSpec
	var setup []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		l, err := coldList(cfg.seed, n)
		if err != nil {
			return report{}, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		list = l
	}
	var o ops
	plain, err := runList(list, nil, nil, &o)
	if err != nil {
		return report{}, err
	}
	m := metrics{}
	if !cfg.trace {
		plain.endToEnd(m)
		m.set("setup_s", median(setup), "s")
		return report{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: m}, nil
	}
	sp := newSpans()
	traced, err := runList(list, nil, sp, &o)
	if err != nil {
		return report{}, err
	}
	traced.layerMetrics(m, plain, sp)
	m.set("heap.retained_mb", retainedMB(), "MiB")
	return finishTraced(cfg, m, sp, &o)
}

// finishTraced writes the traced pass's spans and checks that the top-level
// layer spans cover at least 90% of every tune's wall time.
func finishTraced(cfg config, m metrics, sp *spans, o *ops) (report, error) {
	if err := sp.write(spanFile(cfg, "traced")); err != nil {
		return report{}, err
	}
	cov := m["trace.span_coverage_min"].Value
	correct := cov >= 0.9
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: top-level layer spans cover only %.1f%% of a tune\n", 100*cov)
	}
	return report{Correct: correct, Attempted: o.attempted, Failed: o.failed, Metrics: m}, nil
}

// warmSetup builds warm-search's shared oracles and warms each with one pass
// over the job classes using other seeds than the timed list. The warming
// tunes are checked and counted in o like the timed ones. It returns the
// set-up time: building the oracles plus the warming tunes, without their
// checks.
func warmSetup(seed int64, o *ops) (map[string]*libOracle, float64, error) {
	t0 := time.Now()
	shared := map[string]*libOracle{}
	for _, wl := range warmWorkloads {
		lo, err := newLibOracle(jobSpec{Workload: wl})
		if err != nil {
			return nil, 0, err
		}
		shared[wl] = lo
	}
	sec := time.Since(t0).Seconds()
	p, err := runList(warmList(seed, 1, 100), shared, nil, o)
	if err != nil {
		return nil, 0, err
	}
	for _, r := range p.recs {
		sec += r.wallMs / 1000
	}
	return shared, sec, nil
}

// runWarm runs warm-search: MCTS and two-phase greedy with early stopping on
// long-lived shared oracles, as a service keeps them.
func runWarm(cfg config) (report, error) {
	n := rounds(cfg.seconds, warmRoundSec)
	list := warmList(cfg.seed, n, 0)
	var shared map[string]*libOracle
	var setup []float64
	var o ops
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		shared = nil
		runtime.GC()
		s, sec, err := warmSetup(cfg.seed, &o)
		if err != nil {
			return report{}, err
		}
		setup = append(setup, sec)
		shared = s
	}
	plain, err := runList(list, shared, nil, &o)
	if err != nil {
		return report{}, err
	}
	if err := warmEqualsCold(plain, &o); err != nil {
		return report{}, err
	}
	m := metrics{}
	if !cfg.trace {
		plain.endToEnd(m)
		m.set("setup_s", median(setup), "s")
		return report{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: m}, nil
	}
	retained := retainedMB()
	runtime.KeepAlive(shared)
	// The traced pass gets oracles in the same state as the untraced one.
	shared = nil
	runtime.GC()
	shared, _, err = warmSetup(cfg.seed, &o)
	if err != nil {
		return report{}, err
	}
	sp := newSpans()
	traced, err := runList(list, shared, sp, &o)
	if err != nil {
		return report{}, err
	}
	for _, wl := range warmWorkloads {
		traced.addStats(shared[wl].opt)
	}
	traced.layerMetrics(m, plain, sp)
	m.set("heap.retained_mb", retained, "MiB")
	// Warm tunes neither load workloads nor generate candidates; those
	// layers run once per oracle in set-up, measured here on the same calls.
	for _, wl := range warmWorkloads {
		t0 := time.Now()
		w, err := loadWorkload(jobSpec{Workload: wl})
		if err != nil {
			return report{}, err
		}
		t1 := time.Now()
		candgen.Generate(w, candgen.Options{})
		t2 := time.Now()
		sp.add(-1, "workload.load", "setup", t0, t1)
		sp.add(-1, "candgen.generate", "setup", t1, t2)
	}
	k := float64(len(warmWorkloads))
	m.set("workload.load_ms", sp.total("workload.load")/k, "ms")
	m.set("candgen.generate_ms", sp.total("candgen.generate")/k, "ms")
	return finishTraced(cfg, m, sp, &o)
}

// retainedMB is the live heap after a forced GC.
func retainedMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// warmEqualsCold reruns the first tune of each job class on a fresh oracle
// and checks that it chooses the same configuration and charges the same
// calls as it did on the warm shared oracle. The fresh tune and the
// comparison are one operation each.
func warmEqualsCold(p *libPass, o *ops) error {
	seen := map[string]bool{}
	for _, r := range p.recs {
		if seen[r.spec.Class] {
			continue
		}
		seen[r.spec.Class] = true
		lo, err := newLibOracle(r.spec)
		if err != nil {
			return err
		}
		fresh, err := runList([]jobSpec{r.spec}, map[string]*libOracle{r.spec.Workload: lo}, nil, o)
		if err != nil {
			return err
		}
		c := fresh.recs[0]
		o.done("warm≡cold "+r.spec.Class, checkWarmCold(r.cfgKey, c.cfgKey, r.res.WhatIfCalls, c.res.WhatIfCalls))
	}
	return nil
}

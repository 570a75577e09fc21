package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"indextune/internal/candgen"
	"indextune/internal/jobs"
	"indextune/internal/schema"
)

// daemonCacheBytes is the -cache-bytes bound daemon-mix boots tuned with:
// below the unbounded footprint of its shared oracles, so CLOCK eviction runs.
const daemonCacheBytes = 256 << 10

// daemon is a running tuned child process.
type daemon struct {
	cmd  *exec.Cmd
	base string        // http://host:port
	done chan struct{} // closed once the process has been waited for
}

// bootDaemon starts tuned on an ephemeral loopback port and waits for
// /healthz. The child gets SIGKILL if this process dies first.
func bootDaemon(bin string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no tuned binary given (-tuned)")
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-max-jobs", "1",
		"-cache-bytes", strconv.Itoa(daemonCacheBytes))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting tuned: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "tuned: listening on "); ok {
				addr <- a
			}
		}
		io.Copy(io.Discard, out)
		cmd.Wait()
		close(d.done)
	}()
	select {
	case d.base = <-addr:
	case <-d.done:
		return nil, errors.New("tuned exited before listening")
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, errors.New("tuned did not print its address within 20s")
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("tuned /healthz not ready within 20s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// kill stops the child if it is still running and waits for it.
func (d *daemon) kill() {
	select {
	case <-d.done:
	default:
		d.cmd.Process.Kill()
		<-d.done
	}
}

// drain sends SIGTERM, waits for the drain, requires exit code 0 and returns
// the child's resource usage.
func (d *daemon) drain() (*syscall.Rusage, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return nil, err
	}
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, errors.New("tuned did not drain within 60s")
	}
	if c := d.cmd.ProcessState.ExitCode(); c != 0 {
		return nil, fmt.Errorf("tuned exited with code %d after SIGTERM", c)
	}
	ru, _ := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return nil, errors.New("no rusage for tuned")
	}
	return ru, nil
}

// cpuMs reads the child's user+sys CPU time from /proc/<pid>/stat.
func (d *daemon) cpuMs() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat line")
	}
	const ticksPerSec = 100 // USER_HZ on Linux
	return (ut + st) * 1000 / ticksPerSec, nil
}

// stats scrapes GET /stats.
func (d *daemon) stats() (daemonStats, error) {
	var st daemonStats
	resp, err := http.Get(d.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

type daemonStats struct {
	Jobs    jobs.Counts       `json:"jobs"`
	Oracles []jobs.OracleStat `json:"oracles"`
}

// jobRec is one daemon job as the client saw it.
type jobRec struct {
	spec      jobSpec
	submitAt  time.Time // before POST /jobs
	submitted time.Time // POST returned
	firstByte time.Time // first trace byte
	summaryAt time.Time // job-summary record arrived
	snap      jobs.Snapshot
	tap       traceTap
}

func (r *jobRec) latencyMs() float64 { return ms(r.summaryAt.Sub(r.submitAt)) }

// runJob submits one job, streams its trace as JSONL to the final summary
// record and returns what the client saw. Errors are harness failures.
func (d *daemon) runJob(c *http.Client, spec jobSpec, keep bool) (*jobRec, error) {
	js := jobs.Spec{WorkloadJSON: spec.JSON, Algorithm: spec.Algorithm, K: spec.K, Budget: spec.Budget,
		Seed: spec.Seed, Workers: spec.Workers, DeriveEpsilon: spec.Derive, StopEpsilon: spec.Stop}
	if spec.JSON == nil {
		js.Workload = spec.Workload
	}
	body, err := json.Marshal(js)
	if err != nil {
		return nil, err
	}
	r := &jobRec{spec: spec, tap: traceTap{keep: keep}}
	r.submitAt = time.Now()
	resp, err := c.Post(d.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("submitting job: %w", err)
	}
	var snap jobs.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	r.submitted = time.Now()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submitting job: status %d: %v", resp.StatusCode, err)
	}
	resp, err = c.Get(d.base + "/jobs/" + snap.ID + "/trace")
	if err != nil {
		return nil, fmt.Errorf("streaming %s: %w", snap.ID, err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if r.firstByte.IsZero() {
				r.firstByte = time.Now()
			}
			r.tap.Write(buf[:n])
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("streaming %s: %w", snap.ID, err)
		}
	}
	r.summaryAt = time.Now()
	var sum struct {
		Kind string        `json:"kind"`
		Job  jobs.Snapshot `json:"job"`
	}
	if err := json.Unmarshal(r.tap.last, &sum); err != nil || sum.Kind != "job-summary" {
		return nil, fmt.Errorf("%s: stream did not end with a job-summary record", snap.ID)
	}
	r.snap = sum.Job
	return r, nil
}

// jobInputs is the client's own copy of each built-in workload the jobs
// name, with its candidates, to map recommended indexes back and recompute
// costs. Inline workloads are decoded afresh for each job.
type jobInputs map[string]*libOracle

func newJobInputs() (jobInputs, error) {
	in := jobInputs{}
	for _, wl := range daemonShared {
		lo, err := loadCands(jobSpec{Workload: wl})
		if err != nil {
			return nil, err
		}
		in[wl] = lo
	}
	return in, nil
}

func (in jobInputs) get(spec jobSpec) (*libOracle, error) {
	if spec.JSON != nil {
		return loadCands(spec)
	}
	if lo := in[spec.Workload]; lo != nil {
		return lo, nil
	}
	return nil, fmt.Errorf("no inputs for workload %q", spec.Workload)
}

// checkJob checks one finished job: it ended done, its recommendation and
// accounting pass checkOutcome, and its trace summary's spend by phase sums
// to its charged calls.
func checkJob(r *jobRec, in jobInputs) error {
	if r.snap.State != jobs.StateDone || r.snap.Result == nil {
		return fmt.Errorf("%s ended %s: %s", r.snap.ID, r.snap.State, r.snap.Error)
	}
	lo, err := in.get(r.spec)
	if err != nil {
		return err
	}
	byName := make(map[string]schema.Index, len(lo.cands.Candidates))
	for _, c := range lo.cands.Candidates {
		byName[c.Index.String()] = c.Index
	}
	res := r.snap.Result
	ixs := make([]schema.Index, 0, len(res.Indexes))
	for _, s := range res.Indexes {
		ix, ok := byName[s]
		if !ok {
			return fmt.Errorf("%s recommends %s, not a candidate", r.snap.ID, s)
		}
		ixs = append(ixs, ix)
	}
	err = checkOutcome(outcome{W: lo.w, Indexes: ixs, K: r.spec.K, Budget: r.spec.Budget,
		Calls: res.WhatIfCalls, Refunded: res.RefundedBudget, Stopped: res.EarlyStopped || res.Cancelled,
		Improvement: res.ImprovementPct})
	if err != nil {
		return err
	}
	if res.Trace == nil {
		return fmt.Errorf("%s summary has no trace", r.snap.ID)
	}
	spend := map[string]int{}
	for ph, v := range res.Trace.SpendByPhase {
		spend[string(ph)] = v
	}
	// The reserve events of the live stream are not summed here: the daemon
	// drops a live reader's events now and then (README.md, "Known
	// faults"), so that check would fail on a different share of jobs in
	// every run of the same seed. runDaemon reports how many streams lost
	// events instead.
	return checkPhaseSpend(spend, res.WhatIfCalls)
}

// daemonPass is one boot of the daemon running the whole list.
type daemonPass struct {
	setupS []float64
	recs   []*jobRec
	wallMs float64
	cpuMs  float64
	rssMB  float64
	stats  daemonStats
}

// clients is how many closed-loop HTTP clients submit jobs.
const clients = 2

// runDaemonPass boots tuned (boots times, keeping the last; set-up is boot
// to /healthz plus one warm-up job per shared oracle), runs list from two
// closed-loop clients, checks every job once the clock has stopped, scrapes
// /stats and drains the daemon.
func runDaemonPass(cfg config, list []jobSpec, boots int, keep bool, in jobInputs, o *ops) (*daemonPass, error) {
	p := &daemonPass{}
	hc := &http.Client{}
	var d *daemon
	for b := 0; b < boots; b++ {
		if d != nil {
			if _, err := d.drain(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		d, err = bootDaemon(cfg.tuned)
		if err != nil {
			return nil, err
		}
		var warm []*jobRec
		for i, wl := range daemonShared {
			spec := jobSpec{Class: "warm-up/" + wl, Workload: wl, Algorithm: "mcts", K: 10, Budget: 600,
				Seed: mix(cfg.seed, 300, b, i)}
			r, err := d.runJob(hc, spec, false)
			if err != nil {
				d.kill()
				return nil, err
			}
			warm = append(warm, r)
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		checkJobs("warm-up job", warm, in, o)
	}
	defer d.kill()

	cpu0, err := d.cpuMs()
	if err != nil {
		return nil, err
	}
	p.recs = make([]*jobRec, len(list))
	var next atomic.Int64
	var failed atomic.Pointer[error]
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for failed.Load() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(list) {
					return
				}
				r, err := d.runJob(hc, list[i], keep)
				if err != nil {
					failed.Store(&err)
					return
				}
				p.recs[i] = r
			}
		}()
	}
	wg.Wait()
	p.wallMs = ms(time.Since(t0))
	if err := failed.Load(); err != nil {
		return nil, *err
	}
	checkJobs("job", p.recs, in, o)
	if p.stats, err = d.stats(); err != nil {
		return nil, fmt.Errorf("scraping /stats: %w", err)
	}
	if p.stats.Jobs.Done != len(list)+len(daemonShared) {
		return nil, fmt.Errorf("/stats counts %d done jobs, %d ran", p.stats.Jobs.Done, len(list)+len(daemonShared))
	}
	ru, err := d.drain()
	if err != nil {
		return nil, err
	}
	p.cpuMs = rusageMs(ru) - cpu0
	p.rssMB = float64(ru.Maxrss) / 1024
	return p, nil
}

// checkJobs checks every job of recs, each one operation of o.
func checkJobs(what string, recs []*jobRec, in jobInputs, o *ops) {
	for i, r := range recs {
		o.done(fmt.Sprintf("%s %d (%s seed %d)", what, i, r.spec.Class, r.spec.Seed), checkJob(r, in))
	}
}

// reportLost prints how many of the pass's trace streams lost events (a gap
// in seq): the daemon fault that keeps the reserve-event sum out of checkJob.
func (p *daemonPass) reportLost(pass string) {
	lost := 0
	for _, r := range p.recs {
		if r.tap.gap {
			lost++
		}
	}
	fmt.Printf("%s pass: %d of %d trace streams lost events (known daemon fault; not a check)\n", pass, lost, len(p.recs))
}

// runDaemon runs daemon-mix against the tuned binary.
func runDaemon(cfg config) (report, error) {
	n := rounds(cfg.seconds, daemonRoundSec)
	list, err := daemonList(cfg.seed, n, 0)
	if err != nil {
		return report{}, err
	}
	in, err := newJobInputs()
	if err != nil {
		return report{}, err
	}
	var o ops
	boots := setupReps
	if cfg.trace {
		boots = 1
	}
	plain, err := runDaemonPass(cfg, list, boots, false, in, &o)
	if err != nil {
		return report{}, err
	}
	plain.reportLost("untraced")
	m := metrics{}
	if !cfg.trace {
		plain.endToEnd(m)
		return report{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: m}, nil
	}
	traced, err := runDaemonPass(cfg, list, 1, true, in, &o)
	if err != nil {
		return report{}, err
	}
	traced.reportLost("traced")
	sp := newSpans()
	if err := traced.layerMetrics(m, plain, sp); err != nil {
		return report{}, err
	}
	return finishTraced(cfg, m, sp, &o)
}

func (p *daemonPass) endToEnd(m metrics) {
	var lat, impr, calls []float64
	byClass := map[string][]float64{}
	for _, r := range p.recs {
		lat = append(lat, r.latencyMs())
		byClass[r.spec.Class] = append(byClass[r.spec.Class], r.latencyMs())
		if r.snap.Result != nil {
			impr = append(impr, r.snap.Result.ImprovementPct)
			calls = append(calls, float64(r.snap.Result.WhatIfCalls))
		}
	}
	n := float64(len(p.recs))
	m.set("setup_s", median(p.setupS), "s")
	m.set("tunes_per_s", n/(p.wallMs/1000), "1/s")
	m.set("tune_ms_gmean", classGmean(byClass), "ms")
	m.set("tune_ms_p90", quantile(lat, 0.9), "ms")
	m.set("cpu_ms_per_tune", p.cpuMs/n, "ms")
	m.set("peak_rss_mb", p.rssMB, "MiB")
	m.set("improvement_pct", mean(impr), "%")
	m.set("whatif_calls_per_tune", mean(calls), "count")
}

// layerMetrics computes daemon-mix's per-layer metrics from the traced pass:
// the client's own timings, the lifecycle timestamps in each job's summary,
// /stats, and the workload, candgen and what-if layers replayed in this
// process on each job's inputs.
func (p *daemonPass) layerMetrics(m metrics, plain *daemonPass, sp *spans) error {
	n := float64(len(p.recs))
	var wait, run, submit, first, lag []float64
	var hits, derived, bytesStreamed, tracedMs, plainMs float64
	var replay replayTotals
	cands := 0
	for i, r := range p.recs {
		s := r.snap
		if s.CreatedAt == nil || s.StartedAt == nil || s.FinishedAt == nil {
			return fmt.Errorf("%s has no lifecycle timestamps", s.ID)
		}
		wait = append(wait, ms(s.StartedAt.Sub(*s.CreatedAt)))
		run = append(run, ms(s.FinishedAt.Sub(*s.StartedAt)))
		submit = append(submit, ms(r.submitted.Sub(r.submitAt)))
		first = append(first, ms(r.firstByte.Sub(r.submitAt)))
		lag = append(lag, ms(r.summaryAt.Sub(*s.FinishedAt)))
		sp.add(i, "job", "", r.submitAt, r.summaryAt)
		sp.add(i, "tuned.submit", "job", r.submitAt, r.submitted)
		sp.add(i, "jobs.queue", "job", *s.CreatedAt, *s.StartedAt)
		sp.add(i, "jobs.run", "job", *s.StartedAt, *s.FinishedAt)
		sp.add(i, "tuned.summary_lag", "job", *s.FinishedAt, r.summaryAt)
		sp.addPhaseSpans(i, "jobs.run", r.tap.marks, *s.StartedAt, *s.FinishedAt)
		hits += float64(s.Result.CacheHits)
		derived += float64(s.Result.DerivedBoundHits)
		bytesStreamed += float64(r.tap.bytes)
		tracedMs += r.latencyMs()
		plainMs += plain.recs[i].latencyMs()

		t0 := time.Now()
		w, err := loadWorkload(r.spec)
		if err != nil {
			return err
		}
		t1 := time.Now()
		c := candgen.Generate(w, candgen.Options{})
		sp.add(i, "workload.load", "replay", t0, t1)
		sp.add(i, "candgen.generate", "replay", t1, time.Now())
		cands += len(c.Candidates)
		ps, err := r.tap.pairs()
		if err != nil {
			return err
		}
		rp, err := replayWhatIf(w, c, ps)
		if err != nil {
			return err
		}
		replay.add(rp)
	}
	per := func(name string) float64 { return sp.total(name) / n }
	m.set("workload.load_ms", per("workload.load"), "ms")
	m.set("candgen.generate_ms", per("candgen.generate"), "ms")
	m.set("candgen.candidates", float64(cands)/n, "count")
	replay.metrics(m)
	var sh, smiss, ev int64
	var res float64
	for _, o := range p.stats.Oracles {
		sh += o.Cache.Hits
		smiss += o.Cache.Misses
		ev += o.Cache.Evictions
		res += float64(o.Cache.ResidentBytes+o.Cache.PlanSpaceBytes) / (1 << 20)
	}
	m.set("whatif.hit_rate", safeDiv(float64(sh), float64(sh+smiss)), "ratio")
	m.set("whatif.resident_mb", safeDiv(res, float64(len(p.stats.Oracles))), "MiB")
	m.set("whatif.evictions", float64(ev), "count")
	// The daemon builds sessions inside a job's run; from outside only the
	// whole run and its phases are visible.
	m.set("search.session_ms", 0, "ms")
	m.set("search.run_ms", mean(run), "ms")
	m.set("search.priors_ms", per("search.priors"), "ms")
	m.set("search.enumerate_ms", per("search.enumerate"), "ms")
	m.set("search.final_ms", per("search.final"), "ms")
	m.set("search.cache_hits_per_tune", hits/n, "count")
	m.set("search.derived_hits_per_tune", derived/n, "count")
	m.set("greedy.derived_only_ms", 0, "ms")
	m.set("trace.overhead_ms_per_tune", (tracedMs-plainMs)/n, "ms")
	m.set("trace.kb_per_tune", bytesStreamed/1024/n, "KiB")
	m.set("trace.span_coverage_min", sp.coverage("job"), "ratio")
	m.set("heap.alloc_mb_per_tune", 0, "MiB")
	m.set("heap.retained_mb", 0, "MiB")
	m.set("jobs.queue_wait_ms_p50", median(wait), "ms")
	m.set("jobs.run_ms_p50", median(run), "ms")
	m.set("tuned.submit_ms_p50", median(submit), "ms")
	m.set("tuned.first_event_ms_p50", median(first), "ms")
	m.set("tuned.summary_lag_ms_p50", median(lag), "ms")
	return nil
}

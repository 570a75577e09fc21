package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"indextune/internal/candgen"
	"indextune/internal/iset"
	"indextune/internal/whatif"
	"indextune/internal/workload"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one tune or job share its Op number; Parent names the span
// that caused this one ("" for a top-level layer span).
type span struct {
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_ms"` // since the start of the traced pass
	End    float64 `json:"end_ms"`
}

// spans keeps a traced pass's spans in memory; write puts them out as JSONL
// when the run ends.
type spans struct {
	mu   sync.Mutex
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func (sp *spans) add(op int, name, parent string, a, b time.Time) {
	sp.mu.Lock()
	sp.list = append(sp.list, span{Op: op, Name: name, Parent: parent,
		Start: ms(a.Sub(sp.t0)), End: ms(b.Sub(sp.t0))})
	sp.mu.Unlock()
}

// total sums the durations of the spans called name.
func (sp *spans) total(name string) float64 {
	t := 0.0
	for _, s := range sp.list {
		if s.Name == name {
			t += s.End - s.Start
		}
	}
	return t
}

// coverage returns, over the ops that have a span called wall, the smallest
// share of that span covered by the union of the op's top-level layer spans
// (the spans whose parent is wall). Overlapping spans count once.
func (sp *spans) coverage(wall string) float64 {
	walls := map[int]span{}
	top := map[int][]span{}
	for _, s := range sp.list {
		switch {
		case s.Name == wall:
			walls[s.Op] = s
		case s.Parent == wall:
			top[s.Op] = append(top[s.Op], s)
		}
	}
	low := 1.0
	for op, w := range walls {
		if d := w.End - w.Start; d > 0 {
			low = min(low, unionLen(top[op], w.Start, w.End)/d)
		}
	}
	return low
}

// unionLen returns the length of the union of the spans ss, each clipped to
// [lo, hi].
func unionLen(ss []span, lo, hi float64) float64 {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	total, covered := 0.0, lo
	for _, s := range ss {
		a, b := max(s.Start, covered), min(s.End, hi)
		if b > a {
			total += b - a
			covered = b
		}
	}
	return total
}

func (sp *spans) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range sp.list {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// phaseMark is the wall-clock time a phase event of the trace stream arrived.
type phaseMark struct {
	phase string
	at    time.Time
}

// traceTap is the writer a traced tune's trace recorder streams into, with
// auto-flush on so that every event arrives as it happens. It stamps the
// wall clock on each phase event, counts bytes and reserve events, and keeps
// the commit events (the run's charged pairs) for the what-if replay.
type traceTap struct {
	keep     bool // keep commit events for the replay
	seq      int  // sequence number of the last event seen
	gap      bool // an event is missing: the stream lost a prefix or a line
	bytes    int64
	reserves int
	marks    []phaseMark
	commits  [][]byte
	last     []byte // the last complete line
	partial  []byte
}

func (t *traceTap) Write(p []byte) (int, error) {
	t.bytes += int64(len(p))
	now := time.Now()
	t.partial = append(t.partial, p...)
	for {
		i := bytes.IndexByte(t.partial, '\n')
		if i < 0 {
			break
		}
		t.line(t.partial[:i], now)
		t.last = append(t.last[:0], t.partial[:i]...)
		t.partial = t.partial[i+1:]
	}
	return len(p), nil
}

var (
	kindPhase   = []byte(`"kind":"phase"`)
	kindCommit  = []byte(`"kind":"commit"`)
	kindReserve = []byte(`"kind":"reserve"`)
)

var seqPrefix = []byte(`{"seq":`)

func (t *traceTap) line(l []byte, now time.Time) {
	if rest, ok := bytes.CutPrefix(l, seqPrefix); ok {
		if i := bytes.IndexByte(rest, ','); i > 0 {
			n, err := strconv.Atoi(string(rest[:i]))
			if err != nil || n != t.seq+1 {
				t.gap = true
			}
			t.seq = n
		}
	}
	switch {
	case bytes.Contains(l, kindReserve):
		t.reserves++
	case t.keep && bytes.Contains(l, kindCommit):
		t.commits = append(t.commits, append([]byte(nil), l...))
	case bytes.Contains(l, kindPhase):
		var e struct {
			Phase string `json:"phase"`
		}
		if json.Unmarshal(l, &e) == nil {
			t.marks = append(t.marks, phaseMark{e.Phase, now})
		}
	}
}

// addPhaseSpans splits [start, end) at the phase marks and records each
// piece as a span under parent. A trace recorder starts in the "search"
// phase, so time before the first mark belongs to it.
func (sp *spans) addPhaseSpans(op int, parent string, marks []phaseMark, start, end time.Time) {
	cur, at := "search", start
	for _, m := range marks {
		// Marks taken on the client side may arrive after the end stamped
		// by the daemon; clamp them into the interval.
		t := m.at
		if t.After(end) {
			t = end
		}
		if t.Before(at) {
			t = at
		}
		sp.add(op, phaseSpan[cur], parent, at, t)
		cur, at = m.phase, t
	}
	sp.add(op, phaseSpan[cur], parent, at, end)
}

// phaseSpan names the span of each trace phase.
var phaseSpan = map[string]string{
	"priors": "search.priors",
	"search": "search.enumerate",
	"final":  "search.final",
}

// pairs decodes the kept commit events into (query, configuration) pairs.
func (t *traceTap) pairs() ([]pair, error) {
	out := make([]pair, 0, len(t.commits))
	for _, l := range t.commits {
		var e struct {
			Q   int    `json:"q"`
			Cfg string `json:"cfg"`
		}
		if err := json.Unmarshal(l, &e); err != nil {
			return nil, fmt.Errorf("decoding commit event: %w", err)
		}
		cfg, err := parseKey(e.Cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, pair{e.Q, cfg})
	}
	return out, nil
}

type pair struct {
	q   int
	cfg iset.Set
}

// parseKey parses iset.Set.Key's comma-separated ordinals.
func parseKey(k string) (iset.Set, error) {
	var s iset.Set
	if k == "" {
		return s, nil
	}
	for _, f := range strings.Split(k, ",") {
		o, err := strconv.Atoi(f)
		if err != nil || o < 0 {
			return s, fmt.Errorf("bad configuration key %q", k)
		}
		s.Add(o)
	}
	return s, nil
}

// whatifReplay is the what-if layer measured on one tune's inputs: plan-space
// build on a fresh oracle, then the tune's charged pairs replayed through
// WhatIfBatch as misses and again as hits.
type whatifReplay struct {
	planSpaceMs float64
	missPairs   int64
	missMs      float64
	hitPairs    int
	hitMs       float64
}

func replayWhatIf(w *workload.Workload, cands *candgen.Result, ps []pair) (whatifReplay, error) {
	var r whatifReplay
	opt := whatif.New(w.DB, cands.Indexes())
	empty := []iset.Set{{}}
	t0 := time.Now()
	for _, q := range w.Queries {
		opt.WhatIfBatch(q, empty)
	}
	r.planSpaceMs = ms(time.Since(t0))

	byQ := map[int][]iset.Set{}
	for _, p := range ps {
		if p.q < 0 || p.q >= len(w.Queries) {
			return r, fmt.Errorf("commit event names query %d of %d", p.q, len(w.Queries))
		}
		byQ[p.q] = append(byQ[p.q], p.cfg)
	}
	qs := make([]int, 0, len(byQ))
	for q := range byQ {
		qs = append(qs, q)
	}
	sort.Ints(qs)
	before := opt.Stats().Misses
	t0 = time.Now()
	for _, q := range qs {
		opt.WhatIfBatch(w.Queries[q], byQ[q])
	}
	r.missMs = ms(time.Since(t0))
	r.missPairs = opt.Stats().Misses - before
	t0 = time.Now()
	for _, q := range qs {
		opt.WhatIfBatch(w.Queries[q], byQ[q])
	}
	r.hitMs = ms(time.Since(t0))
	r.hitPairs = len(ps)
	return r, nil
}

// replayTotals accumulates whatifReplay over a pass.
type replayTotals struct {
	n int
	whatifReplay
}

func (t *replayTotals) add(r whatifReplay) {
	t.n++
	t.planSpaceMs += r.planSpaceMs
	t.missPairs += r.missPairs
	t.missMs += r.missMs
	t.hitPairs += r.hitPairs
	t.hitMs += r.hitMs
}

func (t *replayTotals) metrics(m metrics) {
	m.set("whatif.plan_space_ms", safeDiv(t.planSpaceMs, float64(t.n)), "ms")
	m.set("whatif.miss_us_per_pair", safeDiv(1000*t.missMs, float64(t.missPairs)), "us")
	m.set("whatif.hit_ns_per_pair", safeDiv(1e6*t.hitMs, float64(t.hitPairs)), "ns")
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

package main

import (
	"strings"
	"testing"
	"time"

	"indextune/internal/algo"
	"indextune/internal/iset"
	"indextune/internal/search"
)

// validOutcome runs a real tune on tpch and returns its outcome, which the
// checker must accept; the tests then corrupt one field at a time.
func validOutcome(t *testing.T, stop bool) outcome {
	t.Helper()
	spec := jobSpec{Workload: "tpch", Algorithm: "mcts", K: 5, Budget: 2000, Seed: 7}
	if stop {
		// The tune CLI's defaults at the paper's operating point stop early.
		spec.K, spec.Budget, spec.Derive, spec.Stop = 10, 5000, 0.05, 0.1
	}
	lo, err := newLibOracle(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := search.NewSession(lo.w, lo.cands, lo.opt, spec.K, spec.Budget, spec.Seed)
	s.DeriveEpsilon, s.StopEpsilon = spec.Derive, spec.Stop
	alg, err := algo.ByName(spec.Algorithm, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := libOutcome(spec, lo, search.Run(alg, s))
	if err := checkOutcome(o); err != nil {
		t.Fatalf("checker rejects a valid result: %v", err)
	}
	if stop != o.Stopped {
		t.Fatalf("stopped = %v, want %v", o.Stopped, stop)
	}
	return o
}

func TestCheckOutcomeRejectsCorruption(t *testing.T) {
	o := validOutcome(t, false)
	stopped := validOutcome(t, true)
	cases := []struct {
		name    string
		corrupt func(o *outcome)
		base    outcome
		want    string
	}{
		{"more indexes than K", func(o *outcome) { o.K = len(o.Indexes) - 1 }, o, "K is"},
		{"over the storage limit", func(o *outcome) { o.StorageLimit = 1 }, o, "storage limit"},
		{"more calls than budget", func(o *outcome) { o.Calls = o.Budget + 1 }, o, "budget is"},
		{"refund without a stop", func(o *outcome) { o.Refunded = 1 }, o, "did not stop"},
		{"stop refund short", func(o *outcome) { o.Refunded-- }, stopped, "refunded"},
		{"stop refund long", func(o *outcome) { o.Refunded++ }, stopped, "refunded"},
		{"improvement inflated", func(o *outcome) { o.Improvement += 0.01 }, o, "recomputed"},
		{"improvement deflated", func(o *outcome) { o.Improvement -= 0.01 }, stopped, "recomputed"},
		{"index swapped", func(o *outcome) { o.Indexes = o.Indexes[1:] }, o, "recomputed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := c.base
			bad.Indexes = append(bad.Indexes[:0:0], c.base.Indexes...)
			c.corrupt(&bad)
			err := checkOutcome(bad)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("corrupted result: err = %v, want one mentioning %q", err, c.want)
			}
		})
	}
}

func TestCheckSpend(t *testing.T) {
	phases := map[string]int{"priors": 30, "search": 70}
	if err := checkReserves(100, 100); err != nil {
		t.Fatal(err)
	}
	if err := checkPhaseSpend(phases, 100); err != nil {
		t.Fatal(err)
	}
	if checkReserves(99, 100) == nil {
		t.Fatal("a trace missing a reserve event passed")
	}
	if checkPhaseSpend(map[string]int{"priors": 30, "search": 69}, 100) == nil {
		t.Fatal("spend_by_phase short of the calls passed")
	}
}

func TestCheckWarmCold(t *testing.T) {
	if err := checkWarmCold("1,4", "1,4", 10, 10); err != nil {
		t.Fatal(err)
	}
	if checkWarmCold("1,4", "1,5", 10, 10) == nil {
		t.Fatal("different configurations passed")
	}
	if checkWarmCold("1,4", "1,4", 10, 11) == nil {
		t.Fatal("different call counts passed")
	}
}

func TestTraceTapDetectsTruncation(t *testing.T) {
	var full, cut traceTap
	lines := []string{
		`{"seq":1,"kind":"phase","phase":"priors","q":-1}`,
		`{"seq":2,"kind":"reserve","phase":"priors","q":0,"cfg":"3"}`,
		`{"seq":3,"kind":"commit","phase":"priors","q":0,"cfg":"3","cost":2}`,
		`{"kind":"job-summary","job":{}}`,
	}
	full.Write([]byte(strings.Join(lines, "\n") + "\n"))
	cut.Write([]byte(strings.Join(lines[2:], "\n") + "\n"))
	if full.gap || full.reserves != 1 || len(full.marks) != 1 {
		t.Fatalf("full stream: gap %v reserves %d marks %d", full.gap, full.reserves, len(full.marks))
	}
	if !cut.gap {
		t.Fatal("a stream missing its first events was not flagged")
	}
	if string(full.last) != lines[3] {
		t.Fatalf("last line %q", full.last)
	}
}

func TestParseKeyRoundTrip(t *testing.T) {
	want := iset.FromOrdinals(0, 5, 63, 64, 200)
	got, err := parseKey(want.Key())
	if err != nil || !got.Equal(want) {
		t.Fatalf("parseKey(%q) = %v, %v", want.Key(), got, err)
	}
	if _, err := parseKey("1,x"); err == nil {
		t.Fatal("bad key parsed")
	}
}

func TestPhaseSpansCoverTheRun(t *testing.T) {
	sp := newSpans()
	t0 := sp.t0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	marks := []phaseMark{{"priors", at(1)}, {"search", at(4)}, {"final", at(12)}}
	sp.add(0, "search.run", "tune", at(0), at(10))
	sp.addPhaseSpans(0, "search.run", marks, at(0), at(10))
	for name, want := range map[string]float64{"search.priors": 3, "search.enumerate": 7, "search.final": 0} {
		if got := sp.total(name); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %v ms, want %v", name, got, want)
		}
	}
}

func TestCoverageCountsOverlapOnceAndShowsGaps(t *testing.T) {
	sp := newSpans()
	at := func(ms int) time.Time { return sp.t0.Add(time.Duration(ms) * time.Millisecond) }
	// Op 0: two overlapping spans cover [0, 6) of a 10 ms wall; their
	// durations sum to 10 ms, but 4 ms of the wall is a gap.
	sp.add(0, "tune", "", at(0), at(10))
	sp.add(0, "a", "tune", at(0), at(5))
	sp.add(0, "b", "tune", at(1), at(6))
	sp.add(0, "a.child", "a", at(6), at(10)) // not top-level: does not count
	// Op 1: spans reaching outside the wall are clipped to it.
	sp.add(1, "tune", "", at(20), at(30))
	sp.add(1, "a", "tune", at(15), at(25))
	sp.add(1, "b", "tune", at(25), at(40))
	if got := sp.coverage("tune"); got < 0.6-1e-9 || got > 0.6+1e-9 {
		t.Fatalf("coverage = %v, want 0.6", got)
	}
}

func TestListsDependOnlyOnArguments(t *testing.T) {
	a, err := coldList(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := coldList(5, 2)
	c, _ := coldList(6, 2)
	if len(a) != 2*22 || len(a) != len(b) || len(a) != len(c) {
		t.Fatalf("list lengths %d %d %d", len(a), len(b), len(c))
	}
	same := func(x, y []jobSpec) bool {
		for i := range x {
			if x[i].Seed != y[i].Seed || string(x[i].JSON) != string(y[i].JSON) {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("the same seed gave different lists")
	}
	if same(a, c) {
		t.Fatal("another seed gave the same list")
	}
}

package main

import (
	"bytes"
	"fmt"
	"math"

	"indextune/internal/workload"
)

// jobSpec is one tune of a benchmark list. The list is fixed by the seed and
// the run length before anything is timed, so two runs with the same
// arguments do the same work whatever the host's speed.
type jobSpec struct {
	Class     string // workload/algorithm/epsilons label; medians are per class
	Workload  string // built-in workload name, or the synthesized spec's name
	JSON      []byte // synthesized workload, handed to the program only as JSON
	Algorithm string
	K, Budget int
	Seed      int64
	Derive    float64 // DeriveEpsilon
	Stop      float64 // StopEpsilon
	Workers   int
}

// builtins are the five built-in workloads of the tuner.
var builtins = []string{"tpch", "tpcds", "job", "real-d", "real-m"}

// synthSpecs are the synthesized workloads of cold-tune, a small and a
// medium one; their Seed is replaced per round. daemon-mix sends synthS
// inline.
var (
	synthS = workload.SynthSpec{
		Name: "synth-s", NumTables: 30, NumQueries: 20,
		ScansMean: 4, ScansJitter: 1, FiltersMean: 2, ExtraScan: 0.05, TablePool: 30,
		RowsMin: 1_000, RowsMax: 5_000_000, PayloadMin: 20, PayloadMax: 120,
		HotTables: 6, HotProb: 0.4,
	}
	synthM = workload.SynthSpec{
		Name: "synth-m", NumTables: 120, NumQueries: 60,
		ScansMean: 8, ScansJitter: 2, FiltersMean: 2, ExtraScan: 0.05, TablePool: 120,
		RowsMin: 1_000, RowsMax: 20_000_000, PayloadMin: 30, PayloadMax: 200,
		HotTables: 15, HotProb: 0.4,
	}
)

// Nominal seconds one round of each list takes on the reference host (a
// 2-vCPU Xeon at 2.1 GHz). A run does round(seconds/nominal) whole rounds, at
// least one: the amount of work depends on the arguments only.
const (
	coldRoundSec   = 3.3
	warmRoundSec   = 0.85
	daemonRoundSec = 0.16
)

func rounds(seconds, nominal float64) int {
	return max(1, int(math.Round(seconds/nominal)))
}

// mix derives a positive seed from the run seed and a path of integers
// (splitmix64 steps), so every tune of a list gets its own reproducible seed.
func mix(seed int64, path ...int) int64 {
	x := uint64(seed)
	for _, p := range path {
		x = splitmix(x ^ splitmix(uint64(p)+0x9e3779b97f4a7c15))
	}
	return int64(x>>2) + 1
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// synthJSON synthesizes spec under seed and encodes it as the program's
// workload JSON.
func synthJSON(spec workload.SynthSpec, seed int64) ([]byte, error) {
	spec.Seed = seed
	w, err := workload.Synthesize(spec)
	if err != nil {
		return nil, fmt.Errorf("synthesizing %s: %w", spec.Name, err)
	}
	var buf bytes.Buffer
	if err := w.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("encoding %s: %w", spec.Name, err)
	}
	return buf.Bytes(), nil
}

func className(wl, alg string, derive, stop float64, workers int) string {
	c := wl + "/" + alg
	if derive > 0 || stop > 0 {
		c += "/eps"
	}
	if workers > 1 {
		c += fmt.Sprintf("/w%d", workers)
	}
	return c
}

// coldList is cold-tune's list: each round tunes the five built-ins and the
// two synthesized workloads (synthesized afresh per round) with mcts,
// two-phase and auto-admin at K=10, B=1000 and the library's default
// epsilons (0). The slowest class, real-m/mcts, runs twice per round: that
// puts the 90th percentile inside the next class, real-m/auto-admin, rather
// than on the boundary between two classes.
func coldList(seed int64, n int) ([]jobSpec, error) {
	var out []jobSpec
	for r := 0; r < n; r++ {
		var wls []jobSpec
		for _, b := range builtins {
			wls = append(wls, jobSpec{Workload: b})
		}
		for i, sp := range []workload.SynthSpec{synthS, synthM} {
			js, err := synthJSON(sp, mix(seed, 1, r, i))
			if err != nil {
				return nil, err
			}
			wls = append(wls, jobSpec{Workload: sp.Name, JSON: js})
		}
		for wi, w := range wls {
			for ai, alg := range []string{"mcts", "two-phase", "auto-admin"} {
				reps := 1
				if w.Workload == "real-m" && alg == "mcts" {
					reps = 2
				}
				for k := 0; k < reps; k++ {
					j := w
					j.Algorithm, j.K, j.Budget = alg, 10, 1000
					j.Seed = mix(seed, 2, r, wi, ai, k)
					j.Class = className(j.Workload, alg, 0, 0, 0)
					out = append(out, j)
				}
			}
		}
	}
	return out, nil
}

// warmWorkloads are the built-ins warm-search keeps one shared oracle for.
var warmWorkloads = []string{"tpch", "tpcds", "job"}

// warmList is warm-search's list: mcts and two-phase on each shared oracle at
// K=10, B=5000 with the tune CLI's default epsilons. salt separates the
// set-up's warming pass (other seeds) from the timed list.
func warmList(seed int64, n, salt int) []jobSpec {
	var out []jobSpec
	for r := 0; r < n; r++ {
		for wi, wl := range warmWorkloads {
			for ai, alg := range []string{"mcts", "two-phase"} {
				out = append(out, jobSpec{
					Class: className(wl, alg, 0.05, 0.1, 0), Workload: wl, Algorithm: alg,
					K: 10, Budget: 5000, Seed: mix(seed, salt, r, wi, ai),
					Derive: 0.05, Stop: 0.1,
				})
			}
		}
	}
	return out
}

// daemonShared are the built-ins daemon-mix jobs name; the daemon keeps one
// shared oracle for each.
var daemonShared = []string{"tpch", "job"}

// daemonRound is one round of daemon-mix: eight jobs on the shared oracles
// and four inline synthesized workloads with private cold oracles.
// Epsilons are on for half the jobs and two mcts jobs use two workers.
var daemonRound = []struct {
	wl, alg string
	budget  int
	eps     bool
	workers int
}{
	{"tpch", "mcts", 600, false, 0},
	{"tpch", "mcts", 600, true, 2},
	{"tpch", "two-phase", 600, true, 0},
	{"tpch", "auto-admin", 600, false, 0},
	{"job", "mcts", 600, true, 0},
	{"job", "mcts", 600, false, 2},
	{"job", "two-phase", 600, false, 0},
	{"job", "auto-admin", 600, true, 0},
	{"synth-s", "mcts", 400, true, 0},
	{"synth-s", "mcts", 400, false, 0},
	{"synth-s", "two-phase", 400, true, 0},
	{"synth-s", "auto-admin", 400, false, 0},
}

// daemonList is daemon-mix's list; salt separates the set-up's warm-up jobs.
func daemonList(seed int64, n, salt int) ([]jobSpec, error) {
	var out []jobSpec
	for r := 0; r < n; r++ {
		for i, d := range daemonRound {
			j := jobSpec{Workload: d.wl, Algorithm: d.alg, K: 10, Budget: d.budget,
				Seed: mix(seed, salt, r, i), Workers: d.workers}
			if d.eps {
				j.Derive, j.Stop = 0.05, 0.1
			}
			if d.wl == synthS.Name {
				js, err := synthJSON(synthS, mix(seed, salt+1, r, i))
				if err != nil {
					return nil, err
				}
				j.JSON = js
			}
			j.Class = className(d.wl, d.alg, j.Derive, j.Stop, d.workers)
			out = append(out, j)
		}
	}
	return out, nil
}

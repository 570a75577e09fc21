// Command perfbench is the end-to-end tuning benchmark. It drives the tuner
// the way it is used — a one-shot cold tune, a long-lived shared oracle with
// early stopping, and the tuned daemon — over a fixed list of work built
// from the seed, checks every result independently, and prints one JSON
// object as the last line of its output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced; with
// -trace 1 a separate traced pass gives the per-layer ones. Run it through
// run.sh, which builds it and the daemon from the checkout; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
)

// metrics maps a metric name to its value and unit.
type metrics map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// report is the benchmark's result line.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// ops counts the operations a run attempted and the ones whose output failed
// a check; each failure is logged to standard error.
type ops struct {
	attempted, failed int
}

func (o *ops) done(what string, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	}
}

// config is one run's arguments.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tuned    string // daemon binary built by run.sh
	out      string // directory for span files
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "cold-tune, warm-search or daemon-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the run's inputs are built from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "nominal run length; fixes how many rounds of work the list holds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
	flag.StringVar(&cfg.tuned, "tuned", "", "path of the built tuned daemon (daemon-mix)")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for span files")
	flag.Parse()
	cfg.trace = traceFlag != 0
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fatal(err)
	}

	var (
		rep report
		err error
	)
	switch cfg.workload {
	case "cold-tune":
		rep, err = runCold(cfg)
	case "warm-search":
		rep, err = runWarm(cfg)
	case "daemon-mix":
		rep, err = runDaemon(cfg)
	default:
		err = fmt.Errorf("unknown workload %q (want cold-tune, warm-search or daemon-mix)", cfg.workload)
	}
	if err != nil {
		fatal(err)
	}
	printMetrics(rep.Metrics)
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printMetrics writes each metric with its unit, one a line, before the
// result line.
func printMetrics(m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// spanFile names the JSONL file a traced pass writes its spans to.
func spanFile(cfg config, pass string) string {
	return filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%s-seed%d.jsonl", cfg.workload, pass, cfg.seed))
}

// selfUsage returns this process's user+sys CPU time in ms and its peak RSS
// in MiB.
func selfUsage() (cpuMs, rssMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return rusageMs(&ru), float64(ru.Maxrss) / 1024
}

func rusageMs(ru *syscall.Rusage) float64 {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

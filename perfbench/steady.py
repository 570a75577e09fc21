#!/usr/bin/env python3
"""Steadiness command for the benchmark.

Runs every workload of BENCHMARK.json --runs times through run.sh, each time
with another seed, alternating the order of the workloads from one round to
the next, and prints for each metric its median, quartiles and the spread
(q3 - q1) / median, as statistics.quantiles(values, n=4) gives them. With
--layers it also runs each workload's traced pass and prints the per-layer
metrics. It checks that every run printed exactly the metrics BENCHMARK.json
names. Run it from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 1 --layers   # every metric once
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first round")
    ap.add_argument("--layers", action="store_true", help="also run the traced passes")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    want = {0: bench["end_to_end"], 1: bench["per_layer"]}
    traces = [0, 1] if args.layers else [0]

    results = {(w, t): [] for w in names for t in traces}
    for i in range(args.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        for w in order:
            for t in traces:
                r = run(w, args.seed + i, seconds, t)
                got = set(r["metrics"])
                need = {m["name"] for m in want[t]}
                if got != need:
                    raise SystemExit(f"{w} trace {t}: metrics {sorted(got ^ need)} differ from BENCHMARK.json")
                results[(w, t)].append(r)
                print(f"run {i} {w} trace {t} seed {args.seed + i}: attempted {r['attempted']} "
                      f"failed {r['failed']} correct {r['correct']}", file=sys.stderr)

    for (w, t), rs in results.items():
        print(f"\n{w} ({'per-layer' if t else 'end-to-end'}, {len(rs)} runs)")
        print(f"  failed share: {sorted({r['failed'] / r['attempted'] for r in rs})}")
        for m in want[t]:
            vals = [r["metrics"][m["name"]]["value"] for r in rs]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            note = f"  bound {bound:.2f}" if bound is not None else ""
            print(f"  {m['name']:<30} {med:12.4f} {m['unit']:<6} q1 {q1:12.4f}  q3 {q3:12.4f}"
                  f"  spread {spread:6.3f}{note}")


if __name__ == "__main__":
    main()

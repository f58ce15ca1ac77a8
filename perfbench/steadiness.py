"""Measures how steady the benchmark's end-to-end metrics are.

Runs two sets of timed runs of the same code, A on seeds 301, 302, ...
and B on seeds 401, 402, ..., and interleaves them: workload by
workload, one run of A and one of B back to back, alternating which goes
first. Host drift then falls on both sets alike. For each workload and
end-to-end metric it prints each set's median and spread, (Q3 - Q1) /
median with the quartiles of statistics.quantiles(values, n=4), and B's
median against A's, flagging a spread (setup_s excepted) or a change in
either direction beyond the metric's bound in BENCHMARK.json.

Run it from the repository root:

    python3 perfbench/steadiness.py --runs 10 --log .bench_build/steadiness.jsonl
"""

import argparse
import json
import statistics
import subprocess
import sys


def spread(xs):
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--log", help="append every run's result and output to this file, one JSON line a run")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    log = open(args.log, "a") if args.log else None

    values = {}  # (workload, set, metric) -> values
    bad = 0
    for w in workloads:
        for i in range(args.runs):
            sets = [("A", 301 + i), ("B", 401 + i)]
            if i % 2:
                sets.reverse()
            for name, seed in sets:
                cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                out = subprocess.run(cmd, capture_output=True, text=True)
                res = json.loads(out.stdout.strip().splitlines()[-1]) if out.returncode == 0 else None
                if res is None or not res["correct"] or res["failed"]:
                    bad += 1
                    print(f"{w} {name} seed {seed}: FAILED (exit {out.returncode})\n{out.stdout[-2000:]}{out.stderr[-2000:]}", flush=True)
                    continue
                if log:
                    log.write(json.dumps({"workload": w, "set": name, "seed": seed, **res,
                                          "stdout": out.stdout}) + "\n")
                    log.flush()
                for m, v in res["metrics"].items():
                    values.setdefault((w, name, m), []).append(v["value"])
                print(f"{w} {name} seed {seed}: " + " ".join(
                    f"{m}={v['value']:.5g}" for m, v in sorted(res["metrics"].items())), flush=True)

    print(f"\n{'workload':9} {'metric':11} {'A median':>10} {'spread':>7} {'B median':>10} {'spread':>7} {'B vs A':>7}  bound")
    for w in workloads:
        for m, bound in bounds.items():
            a, b = values.get((w, "A", m), []), values.get((w, "B", m), [])
            if len(a) < 2 or len(b) < 2:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            sa, sb, change = spread(a), spread(b), mb / ma - 1
            flags = []
            if m != "setup_s" and max(sa, sb) > bound:
                flags.append("SPREAD")
            if abs(change) > bound:
                flags.append("CHANGE")
            bad += len(flags)
            print(f"{w:9} {m:11} {ma:10.4g} {sa:7.1%} {mb:10.4g} {sb:7.1%} {change:+7.1%}  {bound:.2f} {' '.join(flags)}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()

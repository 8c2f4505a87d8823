#!/usr/bin/env python3
"""Runs the benchmark's workloads as a set and compares sets of runs.

Called by run.sh (which builds the binary first) whenever the arguments are
not the single-run form `--workload W --seed N --seconds S --trace 0|1`.

  run.sh [--seed N] [--workload NAME] [--seconds S] [--traced] [--repeat K] [--out FILE]
      Runs every workload (or NAME) K times, run i with seed N+i, each in a
      fresh process, and prints every end-to-end metric by name with its
      unit: the median of the K runs, their spread and the metric's bound.
      With --traced each workload is run once more with `--trace 1` and the
      per-layer metrics are printed too. Exits non-zero if an output check
      failed, or (K >= 4) if a spread exceeds its bound.
  run.sh --compare A.json B.json
      Compares two files written with --out: per workload x end-to-end
      metric both medians, the relative difference and the bound. A metric
      whose sets differ by more than its bound (in either direction) is
      marked `unresolved`; a set whose own spread exceeds the bound too.
      Exits non-zero if any is.

The spread is the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median; with fewer
than 4 runs it is (max - min) / median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}


def run_once(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", os.path.join(HERE, "out")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}")
    result = json.loads(lines[-1])
    expected = PER_LAYER if trace else END_TO_END
    if set(result["metrics"]) != set(expected):
        odd = set(result["metrics"]) ^ set(expected)
        sys.exit(f"{workload}: metrics differ from BENCHMARK.json: {sorted(odd)}")
    return {"workload": workload, "seed": seed, "trace": trace, "result": result}


def spread(values):
    med = statistics.median(values)
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        width = q[2] - q[0]
    else:
        width = max(values) - min(values)
    return width / med if med else 0.0


def values_of(runs, workload, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and not r["trace"]]


def report(runs, workloads):
    """Prints the end-to-end table; returns the (workload, metric) pairs out of bound."""
    unresolved = []
    print(f"{'workload':<18}{'metric':<22}{'median':>14} {'unit':<6}{'spread':>9}{'bound':>8}  runs")
    for w in workloads:
        for name, m in END_TO_END.items():
            vals = values_of(runs, w, name)
            if not vals:
                continue
            s = spread(vals)
            flag = ""
            if len(vals) >= 4 and name != "setup_s" and s > m["bound"]:
                flag = "  unresolved"
                unresolved.append((w, name))
            print(f"{w:<18}{name:<22}{statistics.median(vals):>14.3f} {m['unit']:<6}"
                  f"{100 * s:>8.1f}%{100 * m['bound']:>7.0f}%  {len(vals)}{flag}")
    return unresolved


def compare(path_a, path_b):
    a, b = (json.load(open(p))["runs"] for p in (path_a, path_b))
    unresolved = 0
    print(f"{'workload':<18}{'metric':<22}{'A median':>13}{'B median':>13} {'unit':<6}"
          f"{'B vs A':>9}{'bound':>7}")
    for w in WORKLOADS:
        for name, m in END_TO_END.items():
            va, vb = values_of(a, w, name), values_of(b, w, name)
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            diff = (mb - ma) / ma if ma else 0.0
            worse = diff if m["better"] == "lower" else -diff
            noisy = name != "setup_s" and max(spread(va), spread(vb)) > m["bound"]
            flag = ""
            if abs(diff) > m["bound"] or noisy:
                flag = "  unresolved" + (" (worse)" if worse > m["bound"] else "")
                unresolved += 1
            print(f"{w:<18}{name:<22}{ma:>13.3f}{mb:>13.3f} {m['unit']:<6}"
                  f"{100 * diff:>+8.1f}%{100 * m['bound']:>6.0f}%{flag}")
    return unresolved


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bin", required=True, help=argparse.SUPPRESS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args()

    if args.compare:
        sys.exit(1 if compare(*args.compare) else 0)

    workloads = [args.workload] if args.workload else WORKLOADS
    runs = []
    for i in range(args.repeat):
        for w in workloads:
            r = run_once(args.bin, w, args.seed + i, args.seconds, 0)
            runs.append(r)
            vals = "  ".join(f"{k} {v['value']:.3f}" for k, v in r["result"]["metrics"].items())
            print(f"[{w} seed {r['seed']}] {vals}", file=sys.stderr)
    if args.traced:
        for w in workloads:
            runs.append(run_once(args.bin, w, args.seed, args.seconds, 1))

    unresolved = report(runs, workloads)
    for r in runs:
        if r["trace"]:
            print(f"\nper-layer metrics, {r['workload']} (traced run, seed {r['seed']}):")
            for name, v in r["result"]["metrics"].items():
                print(f"  {name:<44}{v['value']:>16.3f} {v['unit']}")
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    print(f"\nops attempted {attempted}, failed {failed} (failed_ops_pct {100 * failed / attempted:.4f})")
    if args.out:
        meta = {"seconds": args.seconds, "nproc": os.cpu_count(), "load_threads": 2, "seed": args.seed}
        json.dump({"meta": meta, "runs": runs}, open(args.out, "w"), indent=1)
    if failed or not all(r["result"]["correct"] for r in runs):
        sys.exit("output check failed")
    if unresolved:
        sys.exit(f"spread above bound: {unresolved}")


if __name__ == "__main__":
    main()

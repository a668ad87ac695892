#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

  python3 benchmark/spread.py seeds [--runs 10] [--first-seed 1] [--out FILE]
      Runs every workload --runs times untraced, each run with another
      seed, as `bash benchmark/run.sh --workload W --seed S --seconds
      <run_seconds> --trace 0`, and prints per (workload, metric) the
      median and the quartile spread (Q3 - Q1) / median next to the
      metric's bound from BENCHMARK.json. --out keeps the raw results;
      --from FILE tabulates results kept earlier instead of running.

  python3 benchmark/spread.py compare A.json B.json
      Compares two summary files written by `bash benchmark/run.sh -seed N`
      (two full runs) metric by metric: |A - B| / mean next to the bound.
      Given two files kept by `seeds --out`, it compares the medians of
      the two sets instead: (B - A) / A, where positive is worse for
      a lower-is-better metric.

  python3 benchmark/spread.py sensitivity A.json [B.json ...]
      For sets kept by `seeds --out`, prints the quartile spread of
      job_ms_p50 and job_ms_p90 had each run's times been divided by its
      median host slowdown to another power than the workload's
      sensitivity (see hostspeed.go): each run's value is rescaled by
      slowdown ** (sensitivity - power).

Run from the repository root. Runs are sequential: every workload has
the machine to itself.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys

# The line each run prints on standard error about the host's speed.
SLOWDOWN = re.compile(r"host slowdown, median over jobs: ([0-9.]+) .* to the power ([0-9.]+)")


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(workload, seed, seconds):
    p = subprocess.run(
        ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    sys.stderr.write(p.stderr)
    line = json.loads(p.stdout.strip().splitlines()[-1])
    if not line["correct"] or line["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect output: {line}")
    r = {k: v["value"] for k, v in line["metrics"].items()}
    m = SLOWDOWN.search(p.stderr)
    if m:
        r["host_slowdown"], r["sensitivity"] = float(m.group(1)), float(m.group(2))
    return r


def table(rows, value, delta):
    print(f"| workload | metric | {value} | {delta} | bound | {delta} / bound |")
    print("|---|---|---:|---:|---:|---:|")
    for w, name, v, d, bound in rows:
        print(f"| {w} | {name} | {v:.6g} | {d:.2%} | {bound:.0%} | {d / bound:.2f} |")


def seeds(args):
    s = spec()
    raw, rows = {}, []
    if args.from_file:
        with open(args.from_file) as f:
            raw = json.load(f)
    for w in (x["name"] for x in s["workloads"]):
        if w not in raw:
            raw[w] = [run(w, args.first_seed + i, s["run_seconds"]) for i in range(args.runs)]
        for m in s["end_to_end"]:
            vals = [r[m["name"]] for r in raw[w]]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            rows.append((w, m["name"], q2, (q3 - q1) / q2, m["bound"]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    table(rows, "median", "spread")


def compare(args):
    s = spec()
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    rows = []
    sets = isinstance(next(iter(a.values())), list)
    for w in (x["name"] for x in s["workloads"]):
        for m in s["end_to_end"]:
            name = m["name"]
            if sets:  # two seed sets: change of the median
                x = statistics.median(r[name] for r in a[w])
                y = statistics.median(r[name] for r in b[w])
                worse = (y - x) / x if m["better"] == "lower" else (x - y) / x
                rows.append((w, name, y, worse, m["bound"]))
            else:  # two full runs: relative difference
                x = a[w]["untraced"]["metrics"][name]["value"]
                y = b[w]["untraced"]["metrics"][name]["value"]
                rows.append((w, name, (x + y) / 2, abs(x - y) / ((x + y) / 2), m["bound"]))
    if sets:
        table(rows, "median B", "B worse than A")
    else:
        table(rows, "mean", "difference")


def sensitivity(args):
    powers = [x / 4 for x in range(7)]
    print("| set | workload | metric | " + " | ".join(f"{p:g}" for p in powers) + " |")
    print("|---|---|---|" + "---:|" * len(powers))
    for path in args.files:
        with open(path) as f:
            raw = json.load(f)
        for w in (x["name"] for x in spec()["workloads"]):
            runs = raw[w]
            for name in ("job_ms_p50", "job_ms_p90"):
                cells = []
                for p in powers:
                    vals = [r[name] * r["host_slowdown"] ** (r["sensitivity"] - p) for r in runs]
                    q1, q2, q3 = statistics.quantiles(vals, n=4)
                    cell = f"{(q3 - q1) / q2:.1%}"
                    cells.append(f"**{cell}**" if p == runs[0]["sensitivity"] else cell)
                print(f"| {path.split('/')[-1]} | {w} | {name} | " + " | ".join(cells) + " |")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    ps = sub.add_parser("seeds")
    ps.add_argument("--runs", type=int, default=10)
    ps.add_argument("--first-seed", type=int, default=1)
    ps.add_argument("--out")
    ps.add_argument("--from", dest="from_file")
    ps.set_defaults(fn=seeds)
    pc = sub.add_parser("compare")
    pc.add_argument("a")
    pc.add_argument("b")
    pc.set_defaults(fn=compare)
    pz = sub.add_parser("sensitivity")
    pz.add_argument("files", nargs="+")
    pz.set_defaults(fn=sensitivity)
    args = p.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()

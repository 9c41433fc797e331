#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics across seeds: runs the benchmark once
per (workload, seed) and prints, per workload and metric, the median, the
quartiles and the quartile spread as a share of the median, against the
metric's bound.

    python3 perfbench/steadiness.py --seeds 1-10
    python3 perfbench/steadiness.py --seeds 1-5 --workloads magnn-imdb --jsonl runs.jsonl

Each run's result line is appended to --jsonl when given, so a table can be
re-printed from earlier runs with --from-jsonl instead of running again.
--against FILE also compares each median with that of an earlier set of runs
(for example the parent commit's), against the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchmath  # noqa: E402
import catalog  # noqa: E402

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    done = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed",
                           str(seed), "--seconds", str(seconds), "--trace", "0"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"workload": workload, "seed": seed, "exit": done.returncode, "result": result}


def table(records):
    bounds = {d["name"]: d["bound"] for d in catalog.END_TO_END}
    units = {d["name"]: d["unit"] for d in catalog.END_TO_END}
    print("| workload | metric | median | Q1 | Q3 | spread | bound/3 | runs |")
    print("|---|---|---|---|---|---|---|---|")
    worst = {}
    for w in catalog.ALL:
        runs = [r["result"] for r in records if r["workload"] == w and r["result"]]
        if not runs:
            continue
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = benchmath.quartile_spread(values)
            worst[name] = max(worst.get(name, 0.0), spread)
            print(f"| {w} | {name} ({units[name]}) | {statistics.median(values):.4g} | "
                  f"{q1:.4g} | {q3:.4g} | {100 * spread:.2f}% | "
                  f"{100 * bounds[name] / 3:.2f}% | {len(values)} |")
    failed = [r for r in records if not r["result"] or not r["result"]["correct"]]
    print(f"\nruns: {len(records)}, failed or incorrect: {len(failed)}")
    for name, spread in worst.items():
        flag = "ok" if name == "setup_s" or spread < bounds[name] / 3 else "TOO WIDE"
        print(f"  {name}: worst spread {100 * spread:.2f}% vs bound {100 * bounds[name]:.0f}%"
              f" -> {flag}")


def medians(records):
    out = {}
    for r in records:
        if r["result"]:
            for name, m in r["result"]["metrics"].items():
                out.setdefault((r["workload"], name), []).append(m["value"])
    return {k: statistics.median(v) for k, v in out.items()}


def compare(records, baseline):
    """How much worse each median is than the baseline's, as a share of it."""
    bounds = {d["name"]: d["bound"] for d in catalog.END_TO_END}
    now, then = medians(records), medians(baseline)
    print("\n| workload | metric | baseline median | median | worse by | bound |")
    print("|---|---|---|---|---|---|")
    for (w, name), value in sorted(now.items()):
        if (w, name) not in then or name not in bounds:
            continue
        worse = value / then[(w, name)] - 1.0
        flag = "" if worse <= bounds[name] else " OUT OF BOUND"
        print(f"| {w} | {name} | {then[(w, name)]:.4g} | {value:.4g} | {100 * worse:+.2f}% | "
              f"{100 * bounds[name]:.0f}%{flag} |")


def load(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(catalog.ALL))
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    parser.add_argument("--jsonl")
    parser.add_argument("--from-jsonl")
    parser.add_argument("--against")
    args = parser.parse_args()
    if args.from_jsonl:
        records = load(args.from_jsonl)
    else:
        records = []
        for seed in parse_seeds(args.seeds):
            for w in args.workloads.split(","):
                rec = run_once(w, seed, args.seconds)
                records.append(rec)
                if args.jsonl:
                    with open(args.jsonl, "a") as f:
                        f.write(json.dumps(rec) + "\n")
    table(records)
    if args.against:
        compare(records, load(args.against))
    return 0


if __name__ == "__main__":
    sys.exit(main())

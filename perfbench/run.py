#!/usr/bin/env python3
"""End-to-end training benchmark: builds fg_perfbench from this checkout,
runs one workload, checks its outputs and prints every metric.

    python3 perfbench/run.py --workload gcn-reddit --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload gcn-reddit --seed 1 --seconds 12 --trace 1
    python3 perfbench/run.py --write-manifest

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
separate traced run. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Build products, raw samples,
reports and Chrome traces go to .bench_build/perfbench/ in the checkout.
The exit code is 0 when every output check passed, 1 when one failed or the
run broke, and 2 when the checkout has no library sources to build.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchmath  # noqa: E402
import catalog  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
COUNT_FIELDS_SINGLE = ["plan_compiles", "heap_allocs", "hdg_roots", "hdg_instances",
                       "hdg_leaf_refs", "arena_reserved_bytes", "arena_high_water_bytes",
                       "arena_growths"]
COUNT_FIELDS_REFERENCE = ["hdg_roots", "hdg_instances", "hdg_leaf_refs",
                          "arena_reserved_bytes", "arena_high_water_bytes", "arena_growths"]
MIB = float(1 << 20)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def jobs():
    return str(max(1, min(os.cpu_count() or 1, 4)))


def build():
    """Configures once, then lets the build tool decide what is stale."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "fg_perfbench", "-j", jobs()])
    with open(out / "build.log", "w") as build_log:
        for cmd in steps:
            done = subprocess.run(cmd, stdout=build_log, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S, check=False)
            if done.returncode != 0:
                build_log.flush()
                tail = (out / "build.log").read_text(errors="replace").splitlines()[-30:]
                log("perfbench: build failed:\n" + "\n".join(tail))
                return None
    return out / "fg_perfbench"


# ------------------------------------------------------------------ ledger

class Ledger:
    """Epochs attempted and failed across every pass of a run. A failed check
    marks the epoch it concerns; a check about a whole pass marks its last
    epoch."""

    def __init__(self, passes):
        self.attempted = 0
        self.failed = set()
        self.notes = []
        for i, p in enumerate(passes):
            p["_index"] = i
            n = epochs_of(p)
            self.attempted += n + (1 if p["error"] else 0)
            if p["error"]:
                self.fail(p, n, "threw: " + p["error"])

    def fail(self, p, epoch, why):
        self.failed.add((p["_index"], epoch))
        self.notes.append(f"{p['name']} epoch {epoch}: {why}")

    def fail_pass(self, p, why):
        self.fail(p, max(0, epochs_of(p) - 1), why)


def epochs_of(p):
    return max(len(p["loss"]), len(p["crc"]))


def check_trajectory(ledger, reference, other, key, what):
    """`other` must reproduce `reference`'s per-epoch `key` bit for bit."""
    for e, (want, got) in enumerate(zip(reference[key], other[key])):
        if want != got:
            ledger.fail(other, e, f"{what} differs from {reference['name']} "
                                  f"({got:#x} != {want:#x})")


def check_finite_losses(ledger, p):
    for e, loss in enumerate(p["loss"]):
        if loss is None or not math.isfinite(loss):
            ledger.fail(p, e, "non-finite loss")


def check_recoveries(ledger, p):
    for e, flag in enumerate(p["recovered"]):
        if flag:
            ledger.fail(p, e, "needed crash recovery or a transfer retry")


def check_counts(ledger, first, second, fields, kernels):
    """Two fixed-epoch passes must agree on every count, epoch by epoch."""
    for a, b in zip(first["layers"], second["layers"]):
        e = a["epoch"]
        diffs = [f for f in fields if a[f] != b[f]]
        if kernels:
            for k, va in a["kernels"].items():
                vb = b["kernels"][k]
                if (va[0], va[2], va[3]) != (vb[0], vb[2], vb[3]):
                    diffs.append(f"kernel {k}")
        if diffs:
            ledger.fail(second, e, "count metrics differ from the first traced pass: " +
                        ", ".join(diffs))


# ---------------------------------------------------------------- metrics

def by_name(passes, name):
    return [p for p in passes if p["name"] == name]


def end_to_end(raw, ledger):
    passes = raw["passes"]
    timed = by_name(passes, "timed")
    serial = by_name(passes, "serial")
    first = timed[0]
    socket = raw["workers"] > 1
    info = {}

    for p in passes:
        check_finite_losses(ledger, p)
        check_recoveries(ledger, p)
    # Every segment restarts from the same inputs, so each must reproduce the
    # first segment's trajectory bit for bit. On the socket workload that is
    # the logits CRC of every epoch, which the one-thread segments compute on
    # the modeled backend from the same seed and partitioning.
    key, what = ("crc", "logits CRC") if socket else ("loss_bits", "loss")
    for p in timed[1:] + serial:
        check_trajectory(ledger, first, p, key, what)
    if not socket and not first["loss"][-1] < first["loss"][0]:
        ledger.fail_pass(first, "last loss is not below the first")

    samples = [x for p in timed for x in p["epoch_s"]]
    serial_samples = [x for p in serial for x in p["epoch_s"]]
    tail = benchmath.tail(samples)
    if tail is None:
        ledger.fail_pass(timed[-1], f"{len(samples)} steady epochs are too few for a tail")
        tail = (max(samples or [0.0]), 100.0, len(samples))
    if not serial_samples:
        ledger.fail_pass(serial[-1], "no steady one-thread epochs")
    info["tail"] = {"percentile": tail[1], "samples": tail[2],
                    "beyond": benchmath.TAIL_BEYOND}
    info["samples"] = {"epoch_s": len(samples), "epoch_s_1t": len(serial_samples),
                       "setups": len(timed)}
    metrics = {
        "setup_s": benchmath.median([p["setup_s"] for p in timed]),
        "epoch_s_p50": benchmath.median(samples) if samples else 0.0,
        "epoch_s_tail": tail[0],
        "epoch_s_p50_1t": benchmath.median(serial_samples) if serial_samples else 0.0,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    return metrics, info


def span_seconds(spans, epoch, name):
    return sum(s["end_us"] - s["start_us"] for s in spans
               if s["epoch"] == epoch and s["name"] == name) * 1e-6


def steady_median(records, fn, exact=False):
    values = [fn(r) for r in records[1:]]
    if not values:
        return 0.0
    return benchmath.median_sample(values) if exact else benchmath.median(values)


def attribution(traced):
    """Self time per span name over the steady epochs of a traced pass, with
    layer totals, against the traced epoch time. Time between epoch root
    spans (the tracing bookkeeping) is reported as its own row."""
    per_epoch = benchmath.self_times_by_name(traced["spans"])
    steady = [r["epoch"] for r in traced["layers"][1:]]
    names = {}
    for e in steady:
        for name, us in per_epoch.get(e, {}).items():
            names[name] = names.get(name, 0.0) + us * 1e-6
    roots = sum(span_seconds(traced["spans"], e, "bench.epoch") for e in steady)
    epoch_total = sum(traced["epoch_s"])
    bookkeeping = epoch_total - roots
    return {"spans": names, "layers": benchmath.layer_totals(names),
            "bookkeeping_s": bookkeeping, "epoch_total_s": epoch_total}, per_epoch


def per_layer(raw, ledger):
    passes = raw["passes"]
    untraced = by_name(passes, "untraced")[0]
    traced = by_name(passes, "traced")[0]
    recheck = by_name(passes, "recheck")[0]
    socket = raw["workers"] > 1
    recs = traced["layers"]
    spans = traced["spans"]
    m = {d["name"]: 0.0 for d in catalog.PER_LAYER}

    for p in passes:
        check_finite_losses(ledger, p)
        check_recoveries(ledger, p)
    key, what = ("crc", "logits CRC") if socket else ("loss_bits", "loss")
    for p in passes:
        if p is not untraced:
            check_trajectory(ledger, untraced, p, key, what)

    table, per_epoch = attribution(traced)

    def span_self(name):
        return steady_median(recs, lambda r: per_epoch.get(r["epoch"], {}).get(name, 0.0) * 1e-6)

    for layer in ("core", "tensor", "dist"):
        m[f"{layer}.self_s"] = steady_median(
            recs, lambda r, l=layer: benchmath.layer_totals(
                per_epoch.get(r["epoch"], {})).get(l, 0.0) * 1e-6)
    m["obs.unattributed_s"] = span_self("bench.epoch")
    m["obs.trace_overhead"] = (benchmath.median(traced["epoch_s"]) /
                               benchmath.median(untraced["epoch_s"]) - 1.0)
    m["proc.minor_faults_setup"] = recs[0]["minor_faults"]
    m["proc.sys_s_setup"] = recs[0]["sys_s"]
    m["proc.minor_faults_per_epoch"] = steady_median(recs, lambda r: r["minor_faults"], True)
    m["proc.sys_s_per_epoch"] = steady_median(recs, lambda r: r["sys_s"])
    m["proc.worker_peak_rss_mb"] = raw["worker_peak_rss_mb"]
    fixed = raw["fixed_epochs"]
    losses = raw["forward_loss"] if socket else traced["loss"]
    if len(losses) < fixed:
        ledger.fail_pass(traced, f"fewer than {fixed} epochs ran")
    else:
        m["core.final_loss"] = losses[fixed - 1]

    if socket:
        check_counts(ledger, traced, recheck, ["comm_bytes"], kernels=False)
        refs = by_name(passes, "reference")
        check_counts(ledger, refs[0], refs[1], COUNT_FIELDS_REFERENCE, kernels=False)
        hdg_recs, arena = refs[0]["layers"], refs[0]["layers"][-1]
        end = traced["end_state"]
        m["partition.lp_s"] = span_seconds(spans, 0, "partition.label_propagation")
        m["partition.adb_s"] = span_seconds(spans, 0, "partition.adb")
        m["partition.balance_before"] = end["balance_before"]
        m["partition.balance_after"] = end["balance_after"]
        m["partition.fit_rms"] = end["fit_rms"]
        for name in ("neighbor_selection", "aggregation", "update", "makespan", "comm", "merge"):
            m[f"dist.{name}_s"] = steady_median(recs, lambda r, n=name: r[f"{n}_s"])
        m["dist.coordination_s"] = span_self("dist.run_epoch")
        m["dist.driver_overhead_s"] = steady_median(
            recs, lambda r: span_seconds(spans, r["epoch"], "dist.run_epoch") - r["makespan_s"])
        m["dist.exposed_comm_s"] = steady_median(recs, lambda r: r["comm_s"] - r["overlap_s"])
        m["dist.comm_bytes"] = steady_median(recs, lambda r: r["comm_bytes"], True)
        m["dist.worker_agg_imbalance"] = steady_median(
            recs, lambda r: max(r["per_worker_aggregation_s"]) /
            statistics.fmean(r["per_worker_aggregation_s"]))
        m["dist.frames_sent"] = steady_median(recs, lambda r: r["frames_sent"], True)
        m["dist.bytes_sent"] = steady_median(recs, lambda r: r["bytes_sent"], True)
        for name in ("channel_errors", "reconnects", "worker_deaths", "transfer_retries"):
            m[f"dist.{name}"] = sum(r[name] for r in recs)
    else:
        check_counts(ledger, traced, recheck, COUNT_FIELDS_SINGLE, kernels=True)
        for r in recs[1:]:
            if r["heap_allocs"] != 0:
                ledger.fail(traced, r["epoch"], f"{r['heap_allocs']} kernel heap allocations")
        hdg_recs, arena = recs, recs[-1]
        m["core.neighbor_selection_s"] = steady_median(recs, lambda r: r["neighbor_selection_s"])
        m["core.neighbor_selection_cpu_s"] = steady_median(recs, lambda r: r["ensure_hdg_cpu_s"])
        m["core.aggregation_s"] = steady_median(recs, lambda r: r["aggregation_s"])
        m["core.aggregation_cpu_s"] = steady_median(recs, lambda r: r["aggregation_cpu_s"])
        m["core.update_s"] = steady_median(recs, lambda r: r["update_s"])
        m["core.loss_s"] = steady_median(recs, lambda r: span_seconds(spans, r["epoch"],
                                                                      "core.loss"))
        # EnsureHdg's only child is its NeighborSelection part.
        m["exec.plan_compile_s"] = span_self("exec.ensure_hdg")
        m["exec.plan_compiles"] = sum(r["plan_compiles"] for r in recs)
        m["exec.kernel_heap_allocs"] = sum(r["heap_allocs"] for r in recs[1:])
        m["exec.leaf_ref_ratio"] = recs[-1]["leaf_ref_ratio"]
        for k in catalog.KERNELS:
            m[f"exec.kernel.{k}.s"] = steady_median(recs, lambda r, k=k: r["kernels"][k][1])
            m[f"exec.kernel.{k}.calls"] = steady_median(
                recs, lambda r, k=k: r["kernels"][k][0], True)
            m[f"exec.kernel.{k}.gb"] = steady_median(
                recs, lambda r, k=k: r["kernels"][k][2], True) / 1e9
            m[f"exec.kernel.{k}.gflop"] = steady_median(
                recs, lambda r, k=k: r["kernels"][k][3], True) / 1e9
        m["tensor.backward_s"] = steady_median(
            recs, lambda r: span_seconds(spans, r["epoch"], "tensor.backward"))
        m["tensor.backward_cpu_s"] = steady_median(recs, lambda r: r["backward_cpu_s"])
        m["tensor.optimize_s"] = steady_median(
            recs, lambda r: span_seconds(spans, r["epoch"], "tensor.optimize"))
    m["hdg.roots"] = steady_median(hdg_recs, lambda r: r["hdg_roots"], True)
    m["hdg.instances"] = steady_median(hdg_recs, lambda r: r["hdg_instances"], True)
    m["hdg.leaf_refs"] = steady_median(hdg_recs, lambda r: r["hdg_leaf_refs"], True)
    m["tensor.arena_reserved_mb"] = arena["arena_reserved_bytes"] / MIB
    m["tensor.arena_high_water_mb"] = arena["arena_high_water_bytes"] / MIB
    m["tensor.arena_growths"] = arena["arena_growths"]
    m["tensor.arena_reserved_over_high_water"] = (
        arena["arena_reserved_bytes"] / arena["arena_high_water_bytes"]
        if arena["arena_high_water_bytes"] else 0.0)
    info = {"attribution": table, "steady_epochs": len(recs) - 1}
    return m, info


# ------------------------------------------------------------------ output

def write_chrome_trace(raw, path):
    """Spans of every traced pass as Chrome trace 'X' events, one track per
    pass (open in chrome://tracing or Perfetto)."""
    events = []
    traced = [p for p in raw["passes"] if "spans" in p]
    for tid, t in enumerate(traced, start=1):
        events.append({"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
                       "args": {"name": f"{t['name']} pass"}})
        for s in t["spans"]:
            events.append({"ph": "X", "name": s["name"], "cat": benchmath.layer_of(s["name"]),
                           "pid": 1, "tid": tid, "ts": s["start_us"],
                           "dur": s["end_us"] - s["start_us"],
                           "args": {"epoch": s["epoch"], "span": s["id"],
                                    "parent": s["parent"], "derived": s["derived"]}})
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_report(raw, metrics, units, info, ledger):
    shape = raw["shape"]
    print(f"perfbench {raw['workload']} seed={raw['seed']} trace={raw['trace']} "
          f"threads={raw['threads']} workers={raw['workers']} isa={raw['isa']} "
          f"nproc={raw['nproc']} |V|={shape['vertices']} |E|={shape['edges']} "
          f"dim={shape['feature_dim']} classes={shape['classes']} "
          f"input_s={raw['input_s']:.3f}")
    width = max(len(n) for n in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {fmt(value):>14}  {units[name]}")
    if "tail" in info:
        t = info["tail"]
        print(f"  epoch_s_tail is p{t['percentile']:.1f} of {t['samples']} steady epochs "
              f"({t['beyond']} beyond it); 1-thread samples {info['samples']['epoch_s_1t']}, "
              f"set-ups {info['samples']['setups']}")
    if "attribution" in info:
        a = info["attribution"]
        total = a["epoch_total_s"]
        print(f"  self time over {info['steady_epochs']} steady traced epochs, "
              f"{total:.4f} s in all:")
        rows = [(f"{layer} (layer)", sec) for layer, sec in a["layers"].items()]
        rows += [(f"  {name}", sec) for name, sec in a["spans"].items()]
        rows.append(("between epoch spans (tracing bookkeeping)", a["bookkeeping_s"]))
        for label, sec in sorted(rows, key=lambda kv: kv[0].strip()):
            print(f"    {label:<46} {sec:10.4f} s {100.0 * sec / total:7.2f}%")
        print(f"    {'layers + bookkeeping':<46} "
              f"{sum(a['layers'].values()) + a['bookkeeping_s']:10.4f} s")
    share = benchmath.failed_share(len(ledger.failed), ledger.attempted)
    print(f"  failed_epoch_share {len(ledger.failed)}/{ledger.attempted} = {share:.4g}")
    for note in ledger.notes:
        print(f"  CHECK FAILED: {note}")
    if not ledger.notes:
        print("  checks: all passed")


def run(args):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no library sources under {ROOT}; run from a full checkout")
        return 2
    binary = build()
    if binary is None:
        return 1
    out_dir = build_dir() / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = out_dir / f"raw-{stem}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(raw_path)]
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    if done.returncode != 0:
        log(done.stderr[-4000:])
        log(f"perfbench: fg_perfbench exited with {done.returncode}")
        return 1
    raw = json.loads(raw_path.read_text())
    ledger = Ledger(raw["passes"])
    if args.trace == 0:
        metrics, info = end_to_end(raw, ledger)
        units = {d["name"]: d["unit"] for d in catalog.END_TO_END}
    else:
        metrics, info = per_layer(raw, ledger)
        units = {d["name"]: d["unit"] for d in catalog.PER_LAYER}
        trace_path = out_dir / f"trace-{stem}.json"
        write_chrome_trace(raw, trace_path)
        info["chrome_trace"] = str(trace_path)
    info["wall_s"] = time.monotonic() - started
    print_report(raw, metrics, units, info, ledger)
    correct = not ledger.failed
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": len(ledger.failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    report = {"workload": raw["workload"], "seed": raw["seed"], "trace": raw["trace"],
              "threads": raw["threads"], "workers": raw["workers"], "shape": raw["shape"],
              "isa": raw["isa"], "nproc": raw["nproc"], "info": info,
              "checks_failed": ledger.notes, "result": result}
    (out_dir / f"report-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


# ---------------------------------------------------------------- manifest

def host_isa():
    flags = set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("flags"):
                flags = set(line.split(":", 1)[1].split())
                break
    except OSError:
        pass
    for isa, flag in (("avx512", "avx512f"), ("avx2", "avx2"), ("sse2", "sse2")):
        if flag in flags:
            return isa
    return "scalar"


def write_manifest():
    """Regenerates BENCHMARK.json and perfbench/manifest.json from catalog."""
    bench = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": catalog.RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in catalog.WORKLOADS],
        "end_to_end": [{k: d[k] for k in ("name", "unit", "better", "bound")}
                       for d in catalog.END_TO_END],
        "per_layer": [{"name": d["name"], "unit": d["unit"], "better": "lower"}
                      for d in catalog.PER_LAYER],
    }
    for w in catalog.WORKLOADS:
        assert len(w["why"]) <= 200 and "\n" not in w["why"], w["name"]
    (ROOT / "BENCHMARK.json").write_text(json.dumps(bench, indent=2) + "\n")
    manifest = {
        "host": {"isa": host_isa(), "nproc": os.cpu_count()},
        "seed": "--seed N; dataset, split, initialisation, walk, label-propagation and ADB "
                "RNGs derive from it (splitmix64), the program receives only the inputs",
        "loop": "closed: one process runs the epochs, one epoch in flight",
        "workloads": catalog.WORKLOADS,
        "end_to_end": catalog.END_TO_END,
        "per_layer": catalog.PER_LAYER,
    }
    (ROOT / "perfbench" / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=catalog.ALL)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args()
    if args.write_manifest:
        return write_manifest()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

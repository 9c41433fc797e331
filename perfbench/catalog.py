"""What the benchmark runs and reports: workloads, end-to-end metrics and
per-layer metrics, each with the layer it belongs to and the end-to-end
metric and workloads it should move. run.py reads this table; it is also the
source of BENCHMARK.json and manifest.json (run.py --write-manifest).
"""

RUN_SECONDS = 12

SINGLE = ["gcn-reddit", "pinsage-reddit", "magnn-imdb"]
SOCKET = ["pinsage-reddit-socket"]
ALL = SINGLE + SOCKET

WORKLOADS = [
    {
        "name": "gcn-reddit",
        "why": "GCN, reddit-like x4: cached HDG and plan, flat fused aggregation, backward "
               "through segment kernels and GEMMs; control for sampling and compile changes",
        "model": "gcn",
        "dataset": "reddit-like, scale 4",
        "shape": {"vertices": 32768, "edges": "about 1.44 M (seed-dependent)", "feature_dim": 128,
                  "classes": 16},
        "threads": "min(nproc, 4) kernel threads; 1 in the epoch_s_p50_1t pass",
        "workers": 1,
        "stresses": ["core aggregation (flat fused)", "tensor backward", "exec gemm",
                     "exec segment_reduce_ext"],
        "bypasses": ["per-epoch NeighborSelection and plan compile (cached, ~1.5% of the epoch)",
                     "partition", "dist"],
    },
    {
        "name": "pinsage-reddit",
        "why": "PinSage, reddit-like x4: random walks, HDG rebuild, plan recompile and arena "
               "re-reserve every epoch (NeighborSelection ~65%); little hierarchical aggregation",
        "model": "pinsage",
        "dataset": "reddit-like, scale 4",
        "shape": {"vertices": 32768, "edges": "about 1.44 M (seed-dependent)", "feature_dim": 128,
                  "classes": 16},
        "threads": "min(nproc, 4) kernel threads; 1 in the epoch_s_p50_1t pass",
        "workers": 1,
        "stresses": ["core NeighborSelection (random walks)", "exec plan compile",
                     "tensor arena re-reserve", "exec row_copy"],
        "bypasses": ["hierarchical aggregation", "partition", "dist"],
    },
    {
        "name": "magnn-imdb",
        "why": "MAGNN, heterogeneous imdb-like x4: hierarchical hybrid aggregation and "
               "attention, backward ~72% (n=1 gemm_trans_a, elementwise), largest arena",
        "model": "magnn",
        "dataset": "imdb-like (heterogeneous), scale 4",
        "shape": {"vertices": 14000, "edges": "about 64 K (seed-dependent)", "feature_dim": 64,
                  "classes": 4},
        "threads": "min(nproc, 4) kernel threads; 1 in the epoch_s_p50_1t pass",
        "workers": 1,
        "stresses": ["core hierarchical aggregation (fused, sparse, dense levels)",
                     "tensor backward", "exec gemm_trans_a", "exec elementwise",
                     "tensor arena high-water and first-touch faults"],
        "bypasses": ["per-epoch NeighborSelection (cached HDG)", "partition", "dist"],
    },
    {
        "name": "pinsage-reddit-socket",
        "why": "pinsage-reddit input, label-propagation start then ADB, forward RunEpoch on "
               "socket worker processes at 1 kernel thread: the only partition and dist workload",
        "model": "pinsage",
        "dataset": "reddit-like, scale 4",
        "shape": {"vertices": 32768, "edges": "about 1.44 M (seed-dependent)", "feature_dim": 128,
                  "classes": 16},
        "threads": "1 kernel thread per worker process",
        "workers": "max(2, min(nproc, 4) - 1) forked socket worker processes",
        "stresses": ["partition (label propagation, ADB)", "dist (comm plans, pipelined "
                     "partial aggregation, supervisor, token-ring Prepare, CRC frames)"],
        "bypasses": ["backward and optimizer (forward epochs only)", "kernel threading"],
    },
]

# Every end-to-end metric is reported on every workload. On the socket
# workload, epoch_s_p50_1t is the same partitioned epoch run in one process on
# the modeled backend at one kernel thread. The training loss is a per-layer
# readout (core.final_loss), not an end-to-end metric: it is exact for a seed,
# but differs between seeds by more than any bound allows.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "engine or runtime construction to the end of the first epoch; median of 3 "
             "set-ups per run (partitioning, ADB and worker fork included on the socket "
             "workload; input generation excluded)"},
    {"name": "epoch_s_p50", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "median steady-state epoch wall time of the closed loop (Fit epoch, or one "
             "RunEpoch call on the socket workload)"},
    {"name": "epoch_s_tail", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "highest percentile of the same samples with at least ten samples beyond it; "
             "the report states the percentile and the sample count"},
    {"name": "epoch_s_p50_1t", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "epoch_s_p50 at one kernel thread on the same inputs"},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.25,
     "what": "peak resident memory of the benchmark process over its first segment (the "
             "socket workload's largest worker is proc.worker_peak_rss_mb)"},
]

KERNELS = ["gemm", "gemm_trans_a", "segment_reduce", "segment_reduce_ext", "scatter_rows",
           "group_reduce", "indirect_backward", "elementwise", "row_copy", "row_softmax"]

KERNEL_MOVES = {
    "gemm": [("epoch_s_p50", ["gcn-reddit"])],
    "gemm_trans_a": [("epoch_s_p50", ["magnn-imdb"])],
    "segment_reduce": [("epoch_s_p50", ["gcn-reddit"])],
    "elementwise": [("epoch_s_p50", ["magnn-imdb"])],
    "row_copy": [("epoch_s_p50", ["pinsage-reddit"])],
}


def _m(name, unit, moves, what):
    return {"name": name, "unit": unit, "layer": name.split(".", 1)[0], "moves": moves,
            "what": what}


def _kernel_metrics():
    out = []
    for k in KERNELS:
        moves = KERNEL_MOVES.get(k, [("epoch_s_p50", SINGLE)])
        out += [
            _m(f"exec.kernel.{k}.s", "s", moves, f"{k} busy seconds per epoch, summed over "
               "threads (kernel profiler)"),
            _m(f"exec.kernel.{k}.calls", "count", moves, f"{k} calls per epoch"),
            _m(f"exec.kernel.{k}.gb", "GB", moves, f"{k} analytic bytes moved per epoch"),
            _m(f"exec.kernel.{k}.gflop", "GFLOP", moves, f"{k} analytic GFLOP per epoch"),
        ]
    return out


_EPOCH_SM = [("epoch_s_p50", SINGLE)]
_EPOCH_SOCKET = [("epoch_s_p50", SOCKET)]
_NS = [("epoch_s_p50", ["pinsage-reddit"]), ("setup_s", ["gcn-reddit", "magnn-imdb"])]
_AGG = [("epoch_s_p50", ["gcn-reddit", "magnn-imdb"])]
_ARENA = [("peak_rss_mb", ["magnn-imdb", "pinsage-reddit"]),
          ("setup_s", ["magnn-imdb", "pinsage-reddit"])]
_FAILS = [("failed_epoch_share", SOCKET)]

# Per-epoch values are medians over the steady epochs of the fixed-length
# traced pass; counts are exact. A layer a workload does not run reads 0.
PER_LAYER = [
    _m("core.neighbor_selection_s", "s", _NS, "NeighborSelection part of EnsureHdg's StageTimes"),
    _m("core.neighbor_selection_cpu_s", "s", _NS, "process CPU time over the EnsureHdg call"),
    _m("core.aggregation_s", "s", _AGG, "aggregation part of Engine::Forward's StageTimes"),
    _m("core.aggregation_cpu_s", "s", _AGG, "nau.aggregation_cpu_seconds registry delta"),
    _m("core.update_s", "s", _AGG, "update part of Engine::Forward's StageTimes"),
    _m("core.loss_s", "s", _EPOCH_SM, "MaskedSoftmaxCrossEntropy wall time"),
    _m("core.final_loss", "nats", [],
       "training-split loss after the fixed epoch count (forward logits on the socket "
       "workload)"),
    _m("core.self_s", "s", _EPOCH_SM, "self time of all core spans: NeighborSelection, "
       "aggregation, update, loss, accuracy and the rest of Forward"),
    _m("exec.plan_compile_s", "s", _NS, "EnsureHdg wall time minus its NeighborSelection "
       "part; also the exec layer's whole self time"),
    _m("exec.plan_compiles", "count", _NS, "exec.plan_compiles registry delta over the pass"),
    _m("exec.kernel_heap_allocs", "count", _EPOCH_SM,
       "exec.alloc_count delta over steady epochs; must stay 0"),
    _m("exec.leaf_ref_ratio", "ratio", _AGG, "fused over unfused leaf reads of the plan"),
    *_kernel_metrics(),
    _m("tensor.backward_s", "s", [("epoch_s_p50", ["magnn-imdb", "gcn-reddit"])],
       "Variable::Backward wall time"),
    _m("tensor.backward_cpu_s", "s", [("epoch_s_p50", ["magnn-imdb", "gcn-reddit"])],
       "process CPU time over Variable::Backward"),
    _m("tensor.optimize_s", "s", _EPOCH_SM, "SgdOptimizer::Step plus ZeroGrad wall time"),
    _m("tensor.arena_reserved_mb", "MiB", _ARENA, "Engine::workspace() reserved bytes"),
    _m("tensor.arena_high_water_mb", "MiB", _ARENA, "Engine::workspace() high-water bytes"),
    _m("tensor.arena_growths", "count", _ARENA, "Engine::workspace() growth count"),
    _m("tensor.arena_reserved_over_high_water", "ratio", _ARENA, "reserved over high-water"),
    _m("tensor.self_s", "s", _EPOCH_SM, "self time of all tensor spans: backward, optimizer, "
       "arena reset"),
    _m("hdg.roots", "count", [("core.aggregation_s", ALL)], "roots of the returned Hdg"),
    _m("hdg.instances", "count", [("core.aggregation_s", ALL)], "instances of the returned Hdg"),
    _m("hdg.leaf_refs", "count", [("core.aggregation_s", ALL)], "leaf refs of the returned Hdg"),
    _m("partition.lp_s", "s", [("setup_s", SOCKET)], "LabelPropagationPartition wall time"),
    _m("partition.adb_s", "s", [("setup_s", SOCKET)], "RunAdbBalancing wall time"),
    _m("partition.balance_before", "ratio", [("epoch_s_p50", SOCKET)], "AdbDriverResult"),
    _m("partition.balance_after", "ratio", [("epoch_s_p50", SOCKET)], "AdbDriverResult"),
    _m("partition.fit_rms", "cost", [("epoch_s_p50", SOCKET)], "AdbDriverResult cost-model fit"),
    _m("dist.neighbor_selection_s", "s", _EPOCH_SOCKET, "DistEpochStats"),
    _m("dist.aggregation_s", "s", _EPOCH_SOCKET, "DistEpochStats"),
    _m("dist.update_s", "s", _EPOCH_SOCKET, "DistEpochStats"),
    _m("dist.makespan_s", "s", _EPOCH_SOCKET, "DistEpochStats"),
    _m("dist.driver_overhead_s", "s", _EPOCH_SOCKET, "RunEpoch wall time minus the makespan"),
    _m("dist.self_s", "s", _EPOCH_SOCKET, "self time of all dist spans (the RunEpoch call)"),
    _m("dist.coordination_s", "s", _EPOCH_SOCKET,
       "RunEpoch wall time not covered by its reported NeighborSelection, aggregation and "
       "update makespans: supervisor fan-out, framing, fan-in"),
    _m("dist.comm_bytes", "bytes", _EPOCH_SOCKET, "DistEpochStats comm_bytes_total"),
    _m("dist.comm_s", "s", _EPOCH_SOCKET, "DistEpochStats comm_seconds"),
    _m("dist.merge_s", "s", _EPOCH_SOCKET, "DistEpochStats merge_seconds"),
    _m("dist.exposed_comm_s", "s", _EPOCH_SOCKET, "comm seconds minus pipeline overlap"),
    _m("dist.worker_agg_imbalance", "ratio", _EPOCH_SOCKET,
       "max over mean of per_worker_aggregation_seconds"),
    _m("dist.frames_sent", "count", _FAILS, "transport.frames_sent delta per epoch"),
    _m("dist.bytes_sent", "bytes", _FAILS, "transport.bytes_sent delta per epoch"),
    _m("dist.channel_errors", "count", _FAILS, "transport.channel_errors over the pass"),
    _m("dist.reconnects", "count", _FAILS, "transport.reconnects over the pass"),
    _m("dist.worker_deaths", "count", _FAILS, "dist.worker_deaths over the pass"),
    _m("dist.transfer_retries", "count", _FAILS, "DistEpochStats over the pass"),
    _m("proc.minor_faults_setup", "count", [("setup_s", ["magnn-imdb"])], "getrusage"),
    _m("proc.minor_faults_per_epoch", "count", [("epoch_s_p50", ["magnn-imdb"])], "getrusage"),
    _m("proc.sys_s_setup", "s", [("setup_s", ["magnn-imdb"])], "getrusage system CPU"),
    _m("proc.sys_s_per_epoch", "s", [("epoch_s_p50", ["magnn-imdb"])], "getrusage system CPU"),
    _m("proc.worker_peak_rss_mb", "MiB", [("peak_rss_mb", SOCKET)],
       "peak resident memory of the largest worker process of the first socket pass"),
    _m("obs.trace_overhead", "ratio", [("epoch_s_p50", ALL)],
       "traced over untraced epoch_s_p50, minus 1"),
    _m("obs.unattributed_s", "s", [("epoch_s_p50", ALL)],
       "epoch root span time no layer span covers"),
]

"""Arithmetic of the end-to-end benchmark: sample statistics, span self time
and the failed-epoch share. Pure functions, unit-tested by test_benchmath.py.
"""

import statistics

# A tail percentile needs this many samples strictly above its rank.
TAIL_BEYOND = 10


def median(samples):
    """Median of a non-empty sample list (mean of the middle two when even)."""
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def median_sample(samples):
    """Lower median: always one of the samples, so exact counts stay exact."""
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median_low(samples)


def tail(samples, beyond=TAIL_BEYOND):
    """The highest percentile of `samples` with at least `beyond` samples
    ranked after it.

    Returns (value, percentile, n): the k-th smallest sample with
    k = n - beyond, and percentile = 100 * k / n. Returns None when there are
    not more than `beyond` samples.
    """
    n = len(samples)
    if n <= beyond:
        return None
    k = n - beyond
    return sorted(samples)[k - 1], 100.0 * k / n, n


def quartile_spread(values):
    """(Q3 - Q1) / median, with the quartiles statistics.quantiles gives."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")


def covered_length(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    direct children cover (overlapping children are counted once).

    `spans` is a list of dicts with "id", "parent", "start_us" and "end_us";
    returns {id: self_us}.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start_us"], s["end_us"]))
    out = {}
    for s in spans:
        lo, hi = s["start_us"], s["end_us"]
        out[s["id"]] = (hi - lo) - covered_length(children.get(s["id"], []), lo, hi)
    return out


def layer_of(span_name):
    """A span's layer is its name up to the first dot."""
    return span_name.split(".", 1)[0]


def self_times_by_name(spans):
    """{epoch: {span name: self_us}}, summed over each epoch's spans."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        per_name = out.setdefault(s["epoch"], {})
        per_name[s["name"]] = per_name.get(s["name"], 0.0) + selfs[s["id"]]
    return out


def layer_totals(per_name):
    """Sums {span name: value} into {layer: value}."""
    out = {}
    for name, value in per_name.items():
        layer = layer_of(name)
        out[layer] = out.get(layer, 0.0) + value
    return out


def failed_share(failed, attempted):
    """Failed epochs over epochs attempted; every epoch started counts in the
    denominator, including one that threw before finishing."""
    if attempted <= 0:
        raise ValueError("no epochs attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed epochs outside [0, attempted]")
    return failed / attempted

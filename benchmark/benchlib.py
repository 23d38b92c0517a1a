"""Arithmetic the benchmark's numbers rest on: percentiles and the tail
rule, span self times, failure counting, and parsing what `csc` prints.

Pure functions only, so `test_benchlib.py` can pin them down.
"""

import math
import re
import statistics

# Tail percentiles to choose from, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A tail percentile is reported only with at least this many samples
# beyond it.
TAIL_MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """How many of n samples lie beyond the p-th percentile (p has at
    most one decimal; integer arithmetic keeps rung boundaries exact)."""
    return n * round((100 - p) * 10) // 1000


def tail(values):
    """The highest ladder percentile with at least TAIL_MIN_BEYOND samples
    beyond it, as (percentile, value). With too few samples for any rung,
    the maximum, reported as percentile 100."""
    for p in TAIL_LADDER:
        if samples_beyond(len(values), p) >= TAIL_MIN_BEYOND:
            return p, percentile(values, p)
    return 100.0, max(values)


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its children cover (overlapping children are counted once).

    `spans` is a list of dicts with `start_ns`, `end_ns` and `parent`
    (an index into the list, or None)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s["start_ns"], s["end_ns"]
        covered, reach = 0, lo
        for c in sorted(children[i], key=lambda c: spans[c]["start_ns"]):
            start = max(spans[c]["start_ns"], reach)
            end = min(spans[c]["end_ns"], hi)
            if end > start:
                covered += end - start
                reach = end
        out.append(hi - lo - covered)
    return out


def layer_times(spans):
    """Per request, the self time (ns) of each layer. Top-level spans are
    requests; every span below one is a layer call of that request.
    Returns {req: {layer: ns}}."""
    selfs = self_times(spans)
    out = {}
    for s, own in zip(spans, selfs):
        if s["parent"] is None:
            out.setdefault(s["req"], {})
            continue
        layers = out.setdefault(s["req"], {})
        layers[s["name"]] = layers.get(s["name"], 0) + own
    return out


def fail_ratio(attempted, failed):
    return failed / attempted if attempted else 0.0


def reply_failure(reply, expected):
    """Why a `csc serve` reply counts as failed, or None when it does not.

    A reply fails when it is `ok:false`, when it is `degraded:true`, or
    when any field the replay expects differs. The `resolve` mode is not
    compared: whether a resolve ran incrementally is the engine's choice,
    not part of the answer."""
    if reply is None:
        return "no reply"
    if reply.get("ok") is not True:
        return "ok:false ({})".format(reply.get("error", "?"))
    if reply.get("degraded") is True:
        return "degraded:true ({})".format(reply.get("error", "?"))
    for key, want in expected.items():
        if key != "resolve" and reply.get(key) != want:
            return "{}: got {!r}, expected {!r}".format(key, reply.get(key), want)
    return None


_COMPLETED = re.compile(r"completed in \S+ \((\d+) reachable methods, (\d+) call edges")
_METRICS = re.compile(r"#fail-cast=(\d+) #reach-mtd=(\d+) #poly-call=(\d+) #call-edge=(\d+)")


def parse_analyze(stdout):
    """The answer `csc analyze --metrics` printed, or None when it did not
    print one: {reachable, call_edges, metrics}."""
    done, metrics = _COMPLETED.search(stdout), _METRICS.search(stdout)
    if not done or not metrics:
        return None
    return {
        "reachable": int(done.group(1)),
        "call_edges": int(done.group(2)),
        "metrics": dict(
            zip(("fail_casts", "reach_methods", "poly_calls", "call_edges"), map(int, metrics.groups()))
        ),
    }


def analyze_failure(answer, expected):
    """Why a batch analysis counts as failed against the oracle's expected
    row ({reachable, call_edges, metrics}), or None."""
    if answer is None:
        return "no answer printed"
    for key in ("reachable", "call_edges", "metrics"):
        if answer[key] != expected[key]:
            return "{}: got {}, expected {}".format(key, answer[key], expected[key])
    return None


def slope(ys):
    """Least-squares slope of ys against 0, 1, 2, ..."""
    n = len(ys)
    if n < 2:
        return 0.0
    mx, my = (n - 1) / 2, statistics.fmean(ys)
    num = sum((x - mx) * (y - my) for x, y in enumerate(ys))
    return num / sum((x - mx) ** 2 for x in range(n))

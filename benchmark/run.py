#!/usr/bin/env python3
"""The repository's benchmark: `csc` timed end to end the way a user runs
it, and a separate traced run that splits that time into layers.

    python3 benchmark/run.py --workload suite-csc --seed 0 --seconds 35 --trace 0

Workloads run as a closed loop, one analysis or request in flight at a
time (see README.md for why each was chosen, and why freecol-2obj runs
only on request and is not listed in BENCHMARK.json):

  suite-csc     `csc analyze <file> --analysis csc --metrics`, one fresh
                process per generated suite program
  freecol-2obj  the same command with `--analysis 2obj` on freecol
  serve-edit    `csc serve --analysis ci`: load a jedit-scale source, then
                a seeded chain of `resolve` requests, each followed by
                points-to, call-graph and casts queries

The script builds `csc` and the harness from source (into
$CARGO_TARGET_DIR, default .bench_build), generates the inputs from
--seed, checks every answer against the oracle, and prints a report
followed by one JSON line {correct, attempted, failed, metrics}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import benchlib as bl

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "benchmark"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 0
WORKLOADS = {"suite-csc": "csc", "freecol-2obj": "2obj", "serve-edit": "ci"}
# Set-ups per run; setup_s is their median.
SETUP_REPS = 9
DAEMON_SETUP_REPS = 5
# A process or request still running after this long is killed and
# counted as failed.
OP_TIMEOUT_S = 60

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
# Layer timers: span name -> metric `<span>_ms` (self time).
LAYER_SPANS = (
    "frontend.read",
    "frontend.parse",
    "frontend.lower",
    "solver.solve",
    "cli.report",
    "clients.metrics",
    "cli.drop",
    "results.capture",
    "results.query",
    "delta.read",
    "delta.decode",
    "delta.apply",
    "incr.resolve",
)
PER_LAYER = tuple((s + "_ms", "ms") for s in LAYER_SPANS) + (
    ("cli.unattributed_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("serve.query_unattributed_ms", "ms"),
    ("attributed_share", "ratio"),
    ("frontend.ir_stmts", "count"),
    ("solver.coordinator_ms", "ms"),
    ("solver.parallel_ms", "ms"),
    ("solver.ns_per_edge", "ns"),
    ("solver.propagations", "count"),
    ("solver.pfg_edges", "count"),
    ("solver.pointers", "count"),
    ("solver.scc_runs", "count"),
    ("solver.ptrs_collapsed", "count"),
    ("solver.pts_bytes", "bytes"),
    ("solver.edge_bytes", "bytes"),
    ("csc.shortcut_edges", "count"),
    ("csc.cut_sites", "count"),
    ("csc.involved_methods", "count"),
    ("incr.propagations", "count"),
    ("incr.incremental_share", "ratio"),
    ("incr.fallbacks", "count"),
    ("serve.rss_mb_per_resolve", "MB"),
    ("serve.resolve_p50_ms", "ms"),
    ("serve.resolve_tail_ms", "ms"),
    ("serve.query_p50_ms", "ms"),
    ("serve.query_tail_ms", "ms"),
)
STAT_COUNTERS = (
    "propagations",
    "pfg_edges",
    "pointers",
    "scc_runs",
    "ptrs_collapsed",
    "pts_bytes",
    "edge_bytes",
    "coordinator_ms",
    "parallel_ms",
)


class Fatal(Exception):
    """The run cannot produce a result."""


def child_env():
    """The environment every child gets: no CSC_* knob from the caller's
    shell (thread count, engine, faults, representations), caches off."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CSC_")}
    env.update(CSC_IR_CACHE="0", CSC_RESULT_CACHE="0")
    return env


def build(env):
    """Builds the release `csc` and the harness; returns their paths."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    benv = dict(env, CARGO_TARGET_DIR=str(target))
    harness_manifest = str(HERE / "harness" / "Cargo.toml")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "csc-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", harness_manifest],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=benv, stdout=sys.stderr).returncode != 0:
            raise Fatal("build failed: " + " ".join(cmd))
    return target / "release" / "csc", target / "release" / "csc-bench-harness"


def run_child(argv, env, log, timeout=OP_TIMEOUT_S):
    """Runs one process to exit. Returns (wall seconds from spawn to exit,
    the child's own peak RSS in MB, exit code, stdout). The exit code is
    negative when a signal (the time limit's kill) ended it."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [str(a) for a in argv], cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=log,
    )
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
    return wall, usage.ru_maxrss / 1024, proc.returncode, out.decode(errors="replace")


def harness(binary, env, log, *args):
    wall, _, code, out = run_child([binary, *args], env, log, timeout=150)
    if code != 0:
        raise Fatal("harness {} exited with {}".format(" ".join(map(str, args)), code))
    return wall, json.loads(out)


class Daemon:
    """A `csc serve --analysis ci` process and its line protocol."""

    def __init__(self, csc, env, log):
        self.proc = subprocess.Popen(
            [str(csc), "serve", "--analysis", "ci"], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
        )
        self.buf = b""

    def request(self, line, timeout=OP_TIMEOUT_S):
        """Sends one request; returns (send-to-reply seconds, parsed reply
        or None when none arrived within `timeout`)."""
        t0 = time.perf_counter()
        try:
            self.proc.stdin.write(line.encode() + b"\n")
            self.proc.stdin.flush()
        except OSError:
            return time.perf_counter() - t0, None
        raw = self._readline(t0 + timeout)
        elapsed = time.perf_counter() - t0
        try:
            return elapsed, None if raw is None else json.loads(raw)
        except ValueError:
            return elapsed, None

    def _readline(self, deadline):
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line

    def status_mb(self, key):
        """A VmRSS/VmHWM-style field of the daemon's /proc status, in MB."""
        with open("/proc/{}/status".format(self.proc.pid)) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1]) / 1024
        raise Fatal("no {} in /proc status".format(key))

    def close(self):
        if self.proc.poll() is None:
            self.request('{"cmd":"shutdown"}', timeout=10)
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def commit_id():
    """The commit under test or, where the checkout is not a git
    repository, a hash of the sources `csc` is built from."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if r.stdout.strip():
            return r.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    files += sorted(p for d in ("crates", "vendor") for p in (ROOT / d).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def environment(solver_threads):
    """Commit, CPU model, nproc and the solver's resolved thread count."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return 'commit={} cpu="{}" nproc={} solver_threads={}'.format(
        commit_id(), cpu, len(os.sched_getaffinity(0)), solver_threads
    )


# ---- the oracle ----


def oracle(harness_bin, csc, env, log, workload, seed, inputs):
    """The expected answers of this (workload, seed) and any oracle
    failure, from the harness's checked replay. Solver-independent checks
    (interpreter coverage, the expected-metrics file, the from-scratch
    final state) run once per seed and binary pair, off the clock."""
    stamp = "-".join(
        "{:x}{:x}".format(p.stat().st_size, p.stat().st_mtime_ns) for p in (csc, harness_bin)
    )
    cache = WORK / "oracle" / "{}-{}-{}.json".format(workload, seed, stamp)
    if cache.exists():
        return json.loads(cache.read_text())
    _, doc = harness(harness_bin, env, log, "replay", workload, seed, inputs, "--check")
    result, problems = doc["result"], []
    if workload == "serve-edit":
        if result["final_matches_scratch"] is not True:
            problems.append("replay's final state differs from a from-scratch solve")
        expect = {"replies": result["replies"]}
    else:
        pinned = {}
        if seed == DEFAULT_SEED:
            pinned = json.loads((HERE / "expected" / "metrics-seed0.json").read_text())[workload]
        expect = {}
        for row in result["programs"]:
            cov = row["coverage"]
            if cov["missed_methods"] or cov["missed_edges"]:
                problems.append("{}: static result misses {} methods and {} call edges the "
                                "interpreter reached".format(row["name"], cov["missed_methods"],
                                                             cov["missed_edges"]))
            if pinned and row["metrics"] != pinned[row["name"]]:
                problems.append("{}: metrics {} differ from the expected file {}".format(
                    row["name"], row["metrics"], pinned[row["name"]]))
            expect[row["name"]] = {k: row[k] for k in ("reachable", "call_edges", "metrics")}
            if pinned:
                expect[row["name"]]["metrics"] = pinned[row["name"]]
        expect = {"programs": expect}
    out = {"expect": expect, "problems": problems}
    cache.parent.mkdir(parents=True, exist_ok=True)
    tmp = cache.with_suffix(".tmp{}".format(os.getpid()))
    tmp.write_text(json.dumps(out))
    tmp.replace(cache)
    return out


# ---- batch workloads ----


class Tally:
    """Attempted and failed operations, with the first failure reasons."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []

    def record(self, why):
        self.attempted += 1
        if why:
            self.failed += 1
            self.problems.append(why)

    def problem(self, why):
        self.problems.append(why)


def batch_pass(csc, env, log, programs, analysis, expect, tally):
    """One pass: every program analyzed by a fresh `csc analyze`
    process. Returns [(program, wall s, peak RSS MB)]."""
    ops = []
    for prog in programs:
        wall, rss, code, out = run_child(
            [csc, "analyze", prog["file"], "--analysis", analysis, "--metrics"], env, log
        )
        answer = bl.parse_analyze(out) if code == 0 else None
        if code != 0:
            why = "exit code {}".format(code)
        else:
            why = bl.analyze_failure(answer, expect[prog["name"]])
        tally.record(why and "{}: {}".format(prog["name"], why))
        ops.append((prog["name"], wall, rss))
    return ops


def another_pass(start, seconds, durations):
    """Whether to start another pass: the first always, then while one as
    long as the last would end less than half a pass past `seconds`."""
    return not durations or time.perf_counter() - start + durations[-1] / 2 < seconds


def batch_timed(ctx, report):
    passes, durations = [], []
    start = time.perf_counter()
    while another_pass(start, ctx.seconds, durations):
        t0 = time.perf_counter()
        passes.append(batch_pass(ctx.csc, ctx.env, ctx.log, ctx.programs, ctx.analysis,
                                 ctx.expect["programs"], ctx.tally))
        durations.append(time.perf_counter() - t0)
    report.append("pass walls (s): " + " ".join("{:.3f}".format(sum(w for _, w, _ in ops))
                                               for ops in passes))
    report.append("per program, median of {} passes (wall s, peak RSS MB):".format(len(passes)))
    for i, prog in enumerate(ctx.programs):
        report.append("  {:<10} {:8.3f} {:7.1f}".format(
            prog["name"], bl.median([ops[i][1] for ops in passes]),
            bl.median([ops[i][2] for ops in passes])))
    return {
        "wall_s": bl.median([sum(w for _, w, _ in ops) for ops in passes]),
        "peak_rss_mb": bl.median([max(r for _, _, r in ops) for ops in passes]),
    }


def add_stats(acc, row_stats):
    for k in STAT_COUNTERS:
        acc["solver." + k] = acc.get("solver." + k, 0) + row_stats[k]


def batch_traced(ctx, report):
    """Alternates an end-to-end pass and a traced replay pass; each layer
    metric is a per-pass total, the median over pairs."""
    pairs, durations = [], []
    start = time.perf_counter()
    while another_pass(start, ctx.seconds, durations):
        t0 = time.perf_counter()
        ops = batch_pass(ctx.csc, ctx.env, ctx.log, ctx.programs, ctx.analysis,
                         ctx.expect["programs"], ctx.tally)
        _, doc = harness(ctx.harness, ctx.env, ctx.log, "replay", ctx.workload, ctx.seed,
                         ctx.inputs)
        m = {}
        for row in doc["result"]["programs"]:
            want = ctx.expect["programs"][row["name"]]
            why = bl.analyze_failure(row, want)
            if why:
                ctx.tally.problem("replay {}: {}".format(row["name"], why))
            m["frontend.ir_stmts"] = m.get("frontend.ir_stmts", 0) + row["stmts"]
            add_stats(m, row["stats"])
            for k, v in (row["csc"] or {}).items():
                m["csc." + k] = m.get("csc." + k, 0) + v
        layers = {}
        for per_req in bl.layer_times(doc["spans"]).values():
            for name, ns in per_req.items():
                layers[name] = layers.get(name, 0) + ns
        for name, ns in layers.items():
            m[name + "_ms"] = ns / 1e6
        attributed = sum(layers.values()) / 1e9
        wall = sum(w for _, w, _ in ops)
        m["cli.unattributed_ms"] = (wall - attributed) * 1e3
        m["attributed_share"] = attributed / wall
        m["solver.ns_per_edge"] = layers.get("solver.solve", 0) / max(1, m["solver.pfg_edges"])
        pairs.append(m)
        durations.append(time.perf_counter() - t0)
    report.append("traced: {} pairs of an end-to-end pass and a replay pass; "
                  "per-pass totals".format(len(pairs)))
    out = median_by_key(pairs)
    report.append(largest_layer(out, "a pass"))
    return out


def median_by_key(pairs):
    """Each metric's median over the traced pairs (0 where a pair lacks it)."""
    return {k: bl.median([p.get(k, 0) for p in pairs]) for k in {k for p in pairs for k in p}}


def largest_layer(metrics, unit):
    name = max((s + "_ms" for s in LAYER_SPANS), key=lambda k: metrics.get(k, 0))
    return "largest layer of {}: {} ({:.1f} ms self time)".format(unit, name, metrics[name])


# ---- serve-edit ----


def load_script(inputs):
    lines = (inputs / "script.jsonl").read_text().splitlines()
    return [(json.loads(l)["cmd"], l) for l in lines]


def spawn_and_load(ctx):
    """Starts a daemon and loads the source; returns (daemon, seconds
    from spawn to the load reply)."""
    t0 = time.perf_counter()
    daemon = Daemon(ctx.csc, ctx.env, ctx.log)
    _, reply = daemon.request(ctx.script[0][1])
    elapsed = time.perf_counter() - t0
    why = bl.reply_failure(reply, ctx.expect["replies"][0])
    ctx.tally.record(why and "load: " + why)
    if why:
        daemon.close()
        raise Fatal("load failed: " + why)
    return daemon, elapsed


def serve_session(ctx, daemon, trace_rss):
    """Sends the script after the load; returns per-request latencies
    {index: (kind, seconds)}, the daemon's VmRSS after each resolve (when
    trace_rss), and its VmHWM at the end."""
    latency, rss = {}, []
    try:
        for i, (cmd, line) in enumerate(ctx.script[1:], start=1):
            elapsed, reply = daemon.request(line)
            why = bl.reply_failure(reply, ctx.expect["replies"][i])
            ctx.tally.record(why and "request {} ({}): {}".format(i, cmd, why))
            if reply is None:
                raise Fatal("daemon stopped answering at request {}".format(i))
            latency[i] = (cmd, elapsed)
            if trace_rss and cmd == "resolve":
                rss.append(daemon.status_mb("VmRSS"))
        hwm = daemon.status_mb("VmHWM")
    finally:
        daemon.close()
    return latency, rss, hwm


def serve_sessions(ctx, on_session):
    """Runs sessions (the first on the set-up daemon) for about --seconds,
    calling on_session(latency, rss, hwm) after each."""
    daemon, durations = ctx.daemon, []
    ctx.daemon = None
    start = time.perf_counter()
    while another_pass(start, ctx.seconds, durations):
        t0 = time.perf_counter()
        if daemon is None:
            daemon, _ = spawn_and_load(ctx)
        on_session(*serve_session(ctx, daemon, ctx.trace))
        daemon = None
        durations.append(time.perf_counter() - t0)
    return len(durations)


def latencies(latency, kind):
    return [s * 1e3 for k, s in latency.values() if k == kind]


def serve_timed(ctx, report):
    walls, hwms, ms = [], [], {"resolve": [], "query": []}

    def on_session(latency, _rss, hwm):
        for kind, samples in ms.items():
            samples.extend(latencies(latency, kind))
        walls.append(sum(s for _, s in latency.values()))
        hwms.append(hwm)

    n = serve_sessions(ctx, on_session)
    report.append("session walls (s): " + " ".join("{:.3f}".format(w) for w in walls))
    report.append("{} sessions; send-to-reply latency per request kind:".format(n))
    for kind, samples in ms.items():
        p, tail = bl.tail(samples)
        report.append("  {0}_p50_ms {1:.4f}  {0}_tail_ms {2:.4f} (p{3:g}, n={4})".format(
            kind, bl.percentile(samples, 50), tail, p, len(samples)))
    return {"wall_s": bl.median(walls), "peak_rss_mb": bl.median(hwms)}


def serve_traced(ctx, report):
    """Alternates a daemon session and a traced replay of the same script.
    Layer metrics are medians over the requests that ran the layer."""
    sessions, pairs, resolve_layers = [], [], {}

    def on_session(latency, rss, _hwm):
        sessions.append(latency)
        _, doc = harness(ctx.harness, ctx.env, ctx.log, "replay", ctx.workload, ctx.seed,
                         ctx.inputs)
        result = doc["result"]
        for i, (want, got) in enumerate(zip(ctx.expect["replies"], result["replies"])):
            why = bl.reply_failure(dict(got), want)
            if why:
                ctx.tally.problem("replay request {}: {}".format(i, why))
        layers = bl.layer_times(doc["spans"])
        m = {}
        for name in LAYER_SPANS:
            vals = [per[name] / 1e6 for per in layers.values() if name in per]
            if vals:
                m[name + "_ms"] = bl.median(vals)
            vals = [layers[i].get(name, 0) / 1e6 for i in latency if latency[i][0] == "resolve"]
            resolve_layers.setdefault(name + "_ms", []).append(bl.median(vals))
        load = result["load"]
        m["frontend.ir_stmts"] = load["stmts"]
        add_stats(m, load["stats"])
        m["solver.ns_per_edge"] = layers[0].get("solver.solve", 0) / max(1, m["solver.pfg_edges"])
        modes = [r["mode"] for r in result["resolves"]]
        m["incr.propagations"] = bl.median([r["propagations"] for r in result["resolves"]])
        m["incr.incremental_share"] = modes.count("incremental") / len(modes)
        m["incr.fallbacks"] = len(modes) - modes.count("incremental")
        gaps = {"resolve": [], "query": []}
        for i, (cmd, secs) in latency.items():
            gaps[cmd].append(secs * 1e3 - sum(layers[i].values()) / 1e6)
        m["serve.unattributed_ms"] = bl.median(gaps["resolve"])
        m["serve.query_unattributed_ms"] = bl.median(gaps["query"])
        attributed = sum(sum(layers[i].values()) for i in latency) / 1e9
        m["attributed_share"] = attributed / sum(s for _, s in latency.values())
        m["serve.rss_mb_per_resolve"] = bl.slope(rss)
        pairs.append(m)

    serve_sessions(ctx, on_session)
    report.append("traced: {} pairs of a daemon session and a replay; medians per "
                  "request".format(len(pairs)))
    out = median_by_key(pairs)
    report.append(largest_layer({k: bl.median(v) for k, v in resolve_layers.items()},
                                "a resolve"))
    # Latency percentiles pool the samples of every session.
    for kind in ("resolve", "query"):
        samples = [ms for latency in sessions for ms in latencies(latency, kind)]
        out["serve.{}_p50_ms".format(kind)] = bl.percentile(samples, 50)
        out["serve.{}_tail_ms".format(kind)] = bl.tail(samples)[1]
    return out


# ---- the run ----


def run(args, report):
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        raise Fatal("no csc sources beside the benchmark (expected Cargo.toml and crates/cli "
                    "under {})".format(ROOT))
    env = child_env()
    csc, harness_bin = build(env)
    ctx = types.SimpleNamespace(
        workload=args.workload, seed=args.seed % (1 << 64), seconds=args.seconds,
        trace=args.trace, analysis=WORKLOADS[args.workload], env=env, csc=csc,
        harness=harness_bin, inputs=WORK / "{}-{}".format(args.workload, os.getpid()),
        tally=Tally(), daemon=None,
    )
    WORK.mkdir(exist_ok=True)
    with open(WORK / "stderr.log", "ab") as ctx.log:
        try:
            return measure(ctx, report), ctx.tally
        finally:
            if ctx.daemon:
                ctx.daemon.close()
            shutil.rmtree(ctx.inputs, ignore_errors=True)


def measure(ctx, report):
    gen = []
    for _ in range(SETUP_REPS):
        wall, manifest = harness(ctx.harness, ctx.env, ctx.log, "gen", ctx.workload, ctx.seed,
                                 ctx.inputs)
        gen.append(wall)
    ctx.programs = manifest["programs"]
    setup_s = bl.median(gen)
    found = oracle(ctx.harness, ctx.csc, ctx.env, ctx.log, ctx.workload, ctx.seed, ctx.inputs)
    ctx.expect = found["expect"]
    for why in found["problems"]:
        ctx.tally.problem("oracle: " + why)
    report.append("input: {} program(s), {:.2f} MB of source".format(
        len(ctx.programs), sum(p["bytes"] for p in ctx.programs) / 1e6))
    serve = ctx.workload == "serve-edit"
    if serve:
        ctx.script = load_script(ctx.inputs)
        kinds = [cmd for cmd, _ in ctx.script]
        report.append("script: load, {} resolves, {} queries".format(
            kinds.count("resolve"), kinds.count("query")))
        loads = []
        for _ in range(DAEMON_SETUP_REPS):
            if ctx.daemon:
                ctx.daemon.close()
            ctx.daemon, secs = spawn_and_load(ctx)
            loads.append(secs)
        setup_s += bl.median(loads)
    else:
        # One untimed pass first: the first pass after set-up runs cold.
        batch_pass(ctx.csc, ctx.env, ctx.log, ctx.programs, ctx.analysis,
                   ctx.expect["programs"], ctx.tally)
    if ctx.trace:
        metrics = (serve_traced if serve else batch_traced)(ctx, report)
        names = PER_LAYER
    else:
        metrics = (serve_timed if serve else batch_timed)(ctx, report)
        metrics["setup_s"] = setup_s
        names = END_TO_END
    report.insert(0, environment(manifest["solver_threads"]))
    return {name: {"value": float(metrics.get(name, 0)), "unit": unit} for name, unit in names}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run unwinds, so every child is stopped and waited for.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    report = []
    try:
        metrics, tally = run(args, report)
    except Fatal as e:
        print("benchmark: " + str(e), file=sys.stderr)
        return 1
    print("# {} seed={} seconds={:g} trace={}".format(args.workload, args.seed, args.seconds,
                                                       args.trace))
    for line in report:
        print("# " + line)
    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        print("{:<{}} {:>14.6g} {}".format(name, width, m["value"], m["unit"]))
    print("{:<{}} {:>14.6g} ({}/{} operations)".format(
        "fail_ratio", width, bl.fail_ratio(tally.attempted, tally.failed), tally.failed,
        tally.attempted))
    for why in tally.problems[:20]:
        print("# FAILED " + why)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end benchmark of the embedded BDMS: one workload, one seed.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the system from
``src/``.  One client thread drives a closed loop: it sends the next op
only after the previous one returned.  The run clock counts only time
spent inside calls into the system, so the oracle's bookkeeping between
ops is not measured; a run ends when that clock reaches ``--seconds``.
Per-op latency medians are also taken in process CPU time, and the
rates over the ops' time with host stalls taken out; other load on a
shared host inflates neither (README: "Host stalls").

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` makes three passes, each on a fresh instance: untraced (for
the tracing overhead), traced (per-layer spans and counters) and profiled
(package self-time shares).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is non-zero when an oracle, the durability check, a span-integrity
check or a path guard fails.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: set-ups per untraced run: at least the first number, and more, up to
#: the second, while their total stays under SETUP_BUDGET_S; setup_s is
#: their median
SETUP_REPEATS = (3, 9)
SETUP_BUDGET_S = 3.0
#: crash/restart cycles at the end of an untraced run; recovery_s is
#: their median
RECOVERY_CYCLES = 9
#: ops between samples of space amplification, which rises and falls
#: with the LSM flush and merge cycle; space_amp is the samples' median
SPACE_SAMPLE_EVERY = 25

END_TO_END = {
    "setup_s": "s", "ops_s": "ops/s",
    "query_cpu_p50_ms": "ms", "write_cpu_p50_ms": "ms",
    "ingest_rec_s": "records/s", "sim_us_per_op": "us",
    "peak_rss_mb": "MB", "space_amp": "ratio",
}

_TIMED = ("lang.parse", "analysis.analyze", "algebricks.translate",
          "algebricks.optimize", "algebricks.jobgen", "hyracks.run_job",
          "storage.flush", "storage.merge", "txn.wal_force",
          "txn.wal_append", "feeds.batch")
SELF_SHARE_PACKAGES = ("adm", "hyracks", "storage", "txn", "lang",
                       "algebricks", "functions")

PER_LAYER = {}
for _name in _TIMED:
    PER_LAYER[_name + "_us.p50"] = "us"
    PER_LAYER[_name + "_us.total"] = "us"
PER_LAYER.update({
    "algebricks.compile_share": "ratio",
    "algebricks.q_error_max": "ratio", "algebricks.q_error_p50": "ratio",
    "hyracks.run_job_share": "ratio", "hyracks.sim_us": "us",
    "hyracks.network_tuples_per_op": "tuples/op",
    "hyracks.merge_passes": "count", "hyracks.reduced_grants": "count",
    "hyracks.key_cache_hit_ratio": "ratio",
    "storage.cache_hit_ratio": "ratio", "storage.cache_misses": "count",
    "storage.components_per_lookup": "count",
    "storage.bloom_skip_ratio": "ratio",
    "storage.flushes": "count", "storage.merges": "count",
    "storage.bulk_load_us_per_entry": "us",
    "storage.merge_rewrite_ratio": "ratio",
    "storage.bytes_written_per_user_byte": "ratio",
    "storage.data_mb": "MB", "storage.cache_mb": "MB",
    "txn.commits": "count", "txn.wal_forces": "count",
    "txn.forces_per_commit": "ratio",
    "trace.ops_s": "ops/s", "trace.untraced_ops_s": "ops/s",
    "trace.overhead_ratio": "ratio", "trace.spans": "count",
})
for _pkg in SELF_SHARE_PACKAGES:
    PER_LAYER[_pkg + ".self_share"] = "ratio"


class CheckFailed(Exception):
    """An oracle, durability, integrity or path-guard failure."""


# -- statistics ---------------------------------------------------------------


def tail(values: list) -> tuple:
    """The tail latency: (value, percentile, samples).  It is the 90th
    percentile, or, when fewer than ten samples lie beyond that, the
    highest percentile with at least ten samples beyond it (under eleven
    samples: the maximum).  Higher percentiles spread too much from run
    to run on a shared machine to bound a regression."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    i = n - 1 if n < 11 else min(math.ceil(0.90 * n) - 1, n - 11)
    return ordered[i], 100.0 * (i + 1) / n, n


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- environment --------------------------------------------------------------


def _git(*args) -> str | None:
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment(seed: int, config, workload) -> dict:
    from repro.analysis import plan_verification_enabled
    from repro.storage.lsm.merge_policy import PrefixMergePolicy

    top = _git("rev-parse", "--show-toplevel")
    in_git = top is not None and os.path.realpath(top) == \
        os.path.realpath(ROOT)
    return {
        "git_sha": _git("rev-parse", "HEAD") if in_git else None,
        "git_dirty": bool(_git("status", "--porcelain", "--", "src"))
        if in_git else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "cluster": {
            "nodes": config.num_nodes,
            "partitions_per_node": config.partitions_per_node,
            "buffer_cache_pages": config.node.buffer_cache_pages,
            "memory_component_pages": config.node.memory_component_pages,
            "page_size": config.page_size,
            "merge_policy": repr(PrefixMergePolicy()),
            "executor_mode": config.executor.mode,
            "plan_verification": plan_verification_enabled(),
            "overrides": dict(workload.overrides),
        },
    }


# -- one pass -----------------------------------------------------------------


def _dataset_bytes(db, names=("Messages", "Users")) -> int:
    total = 0
    for name in names:
        qualified = db.metadata.dataset_entry(name).name
        for node in db.cluster.nodes:
            for device in node.devices:
                root = os.path.join(device.root, qualified)
                for dirpath, _dirs, files in os.walk(root):
                    total += sum(os.path.getsize(os.path.join(dirpath, f))
                                 for f in files)
    return total


def _written_pages(db) -> int:
    return sum(s.writes + s.seq_writes
               for s in (n.io_snapshot() for n in db.cluster.nodes))


def _check_access(db, workload, op) -> None:
    want = workload.access.get(op.cls)
    if want is None:
        return
    methods = db.explain(op.text).access_methods
    dataset, method, *index = want
    for am in methods:
        if am["dataset"].split(".")[-1] != dataset:
            continue
        if am["method"] != method or (index and am.get("index") != index[0]):
            raise CheckFailed(f"{op.cls} reads {dataset} by {am}, "
                              f"expected {want}")


def _check_durable(db, workload) -> None:
    rows = db.query("SELECT VALUE m FROM Messages m;")
    found = {m["messageId"]: m for m in rows}
    if len(found) != len(rows) or found != workload.messages:
        missing = len(set(workload.messages) - set(found))
        raise CheckFailed(f"durability: {len(found)} records readable, "
                          f"{len(workload.messages)} acknowledged, "
                          f"{missing} missing or changed")
    users = db.query("SELECT VALUE COUNT(*) FROM Users u;")
    if users != [len(workload.users)]:
        raise CheckFailed(f"durability: Users count {users}")


def _guards(db, workload, cache, size: str) -> list:
    """Path guards: the workload really took the path it is there for."""
    if size != "full":
        return []
    out = []
    hits, misses = cache
    hit_ratio = ratio(hits, hits + misses)
    if workload.name == "ingest":
        dataset = db.metadata.dataset_entry("Messages").name
        for p in range(db.cluster.num_partitions):
            storage = db.cluster.node_of_partition(p).get_partition(
                dataset, p)
            indexes = [("primary", storage.primary)] + [
                (name, idx) for name, (_spec, idx)
                in storage.secondaries.items()]
            for name, index in indexes:
                ok = index.stats.flushes >= 2 and index.stats.merges >= 2
                out.append((f"p{p}.{name} flushed and merged twice", ok,
                            f"{index.stats.flushes} flushes, "
                            f"{index.stats.merges} merges"))
    elif workload.name == "mixed":
        out.append(("working set fits: hit ratio >= 0.95",
                    hit_ratio >= 0.95, f"hit ratio {hit_ratio:.3f}"))
    elif workload.name == "analytics":
        out.append(("data exceeds cache: miss ratio >= 0.5",
                    1 - hit_ratio >= 0.5, f"miss ratio {1 - hit_ratio:.3f}"))
    return out


def run_pass(workload_cls, args, workdir: str, mode: str) -> dict:
    """Set up, run the timed phase, check.  ``mode``: plain | traced |
    profiled."""
    from repro import ClusterConfig, NodeConfig, connect
    from repro.analysis import set_plan_verification
    from repro.common.config import ExecutorConfig

    set_plan_verification(False)      # the library default, pinned
    workload = workload_cls(args.seed, args.size)
    config = ClusterConfig(node=NodeConfig(**workload.overrides))
    if mode == "profiled":
        # one profiler sees every task only when tasks run on its thread
        config.executor = ExecutorConfig(mode="serial")
    os.makedirs(workdir, exist_ok=True)
    paths = workload.write_preload(workdir)
    low, high = SETUP_REPEATS if mode == "plain" else (1, 1)
    setup_times = []
    db = None
    for i in range(high):
        if i >= low and sum(setup_times) >= SETUP_BUDGET_S:
            break
        if db is not None:
            db.close()
            shutil.rmtree(os.path.join(workdir, f"inst{i - 1}"))
        started = time.perf_counter()
        db = connect(os.path.join(workdir, f"inst{i}"), config)
        workload.setup(db, paths)
        setup_times.append(time.perf_counter() - started)
    out = {"env": environment(args.seed, config, workload),
           "setup_s": median(setup_times), "setup_samples": setup_times}
    # objects alive after set-up (inputs, oracle, catalog) stay out of
    # the collector's way: collections during the run scan only what the
    # run allocates
    gc.collect()
    gc.freeze()
    try:
        out.update(_timed_phase(db, workload, args, mode))
        # cProfile slows the profiled pass too much to hold the guards;
        # it only apportions time, and the passes it apportions are guarded
        out["guards"] = [] if mode == "profiled" else _guards(
            db, workload, out["cache"], args.size)
        out["data_bytes"] = _dataset_bytes(db)
        out["cache_bytes"] = (config.num_nodes * config.page_size
                              * config.node.buffer_cache_pages)
        if mode == "plain":
            cycles = []
            for i in range(RECOVERY_CYCLES):
                node = i % config.num_nodes
                started = time.perf_counter()
                db.cluster.crash_node(node)
                db.cluster.restart_node(node)
                cycles.append(time.perf_counter() - started)
            out["recovery_s"] = median(cycles)
            out["recovery_samples"] = cycles
        else:
            db.cluster.crash_node(0)
            db.cluster.restart_node(0)
        _check_durable(db, workload)
    finally:
        gc.unfreeze()
        db.close()
    return out


def _timed_phase(db, workload, args, mode: str) -> dict:
    from repro import get_registry
    from repro.adm.parser import format_adm
    from repro.common.errors import AsterixError

    from perfbench.trace import PackageProfile, Tracer, analyze_spans

    workload.attach(db)
    tracer = Tracer() if mode == "traced" else None
    profiler = PackageProfile(SRC) if mode == "profiled" else None
    registry = get_registry()
    before = registry.snapshot()
    pages_before = _written_pages(db)
    latencies = {"read": [], "write": []}
    # the same ops in CPU time of the whole process (every executor
    # thread); steal and run-queue waits on a shared host are not in it
    cpu_latencies = {"read": [], "write": []}
    ops = []                     # (op id, cls, kind, seconds, CPU seconds)
    sims = {"read": [], "write": []}   # simulated µs per job-running op
    q_errors = []
    space = []                   # on-disk / live ADM bytes, sampled
    failures = []
    records = adm_bytes = 0
    busy = 0.0
    # the window is exactly --seconds of busy time: the op still in
    # flight when it closes counts by the share of it inside the window,
    # so one long merge stall straddling the end moves the rates
    # smoothly instead of all or nothing
    window_ops = window_records = 0.0
    explained = set()
    if tracer is not None:
        tracer.install()
    if profiler is not None:
        profiler.start()
    wall_started = time.perf_counter()
    try:
        for op_id, op in enumerate(workload.ops()):
            if busy >= args.seconds or (args.ops and op_id >= args.ops):
                break
            root = None
            if tracer is not None:
                tracer.op = op_id
                root = tracer.open("op." + op.cls)
            started = time.perf_counter()
            cpu_started = time.process_time()
            try:
                rows, profile = workload.execute(op)
                error = None
            except AsterixError as exc:
                rows, profile, error = None, None, exc
            cpu = time.process_time() - cpu_started
            elapsed = time.perf_counter() - started
            if root is not None:
                tracer.close(root)
                tracer.op = None
            share = min(1.0, (args.seconds - busy) / elapsed) \
                if elapsed > 0 else 1.0
            busy += elapsed
            window_ops += share
            latencies[op.kind].append(elapsed * 1000.0)
            cpu_latencies[op.kind].append(cpu * 1000.0)
            ops.append((op_id, op.cls, op.kind, elapsed, cpu))
            if profile is not None:
                sims[op.kind].append(profile.simulated_us)
                if op.kind == "read":
                    q_errors.extend(_q_errors(profile))
            if error is None and workload.check(op, rows):
                if op.kind == "write":
                    workload.apply(op)
                    records += len(op.records)
                    window_records += share * len(op.records)
                    adm_bytes += sum(len(format_adm(r)) for r in op.records)
            else:
                failures.append(f"op {op_id} {op.cls}: "
                                f"{error or 'wrong answer'}")
            # the results die here, outside the clock, not inside the
            # next op when their names are rebound
            rows = profile = None
            if op.kind == "read" and op.cls not in explained:
                explained.add(op.cls)
                _check_access(db, workload, op)
            if op_id % SPACE_SAMPLE_EVERY == 0:
                space.append(ratio(_dataset_bytes(db, ("Messages",)),
                                   workload.live_bytes))
        if tracer is not None:
            tracer.op = "final_flush"
        started = time.perf_counter()
        db.flush_dataset("Messages")
        db.flush_dataset("Users")
        final_flush = time.perf_counter() - started
        space.append(ratio(_dataset_bytes(db, ("Messages",)),
                           workload.live_bytes))
    finally:
        if profiler is not None:
            profiler.stop()
        if tracer is not None:
            tracer.op = None
            tracer.uninstall()
    wall = time.perf_counter() - wall_started
    window = min(busy, args.seconds)
    steady = _steady_seconds(ops)
    delta = registry.delta(before)
    out = {
        "attempted": len(ops), "failed": len(failures),
        "failures": failures[:10], "busy_s": busy, "wall_s": wall,
        "final_flush_s": final_flush, "records": records,
        "latencies": latencies, "cpu_latencies": cpu_latencies,
        "ops_s": ratio(len(ops), steady),
        "ingest_rec_s": ratio(records, steady),
        "steady_s": steady,
        "wall_ops_s": ratio(window_ops, window),
        "wall_ingest_rec_s": ratio(window_records, window),
        # per query: which DML statement happens to absorb a flush or a
        # merge, and its simulated I/O, is a matter of chance
        "sim_us_per_op": ratio(sum(sims["read"]), len(sims["read"])),
        "space_amp": median(space),
        "cache": (delta.get("buffer_cache.hits", 0),
                  delta.get("buffer_cache.misses", 0)),
        "delta": delta,
        "pages_written": _written_pages(db) - pages_before,
        "adm_bytes_written": adm_bytes,
    }
    if tracer is not None:
        out["layers"] = _layer_metrics(tracer, analyze_spans(tracer.spans),
                                       ops, sims, q_errors, delta, out, db)
        out["tracer"] = tracer
    if profiler is not None:
        out["self_share"] = profiler.shares()
    return out


def _steady_seconds(ops) -> float:
    """The ops' busy time with host stalls taken out.  Each op counts
    its CPU time plus the median off-CPU time of its class in the run
    (the WAL's fsync, say), or its wall time if that is less.  A stolen
    or queued slice of a shared host is off-CPU time that lands on some
    ops of a class and not on most, so it drops out."""
    waits: dict = {}
    for _op_id, cls, _kind, wall, cpu in ops:
        waits.setdefault(cls, []).append(wall - cpu)
    typical = {cls: max(0.0, median(w)) for cls, w in waits.items()}
    return sum(min(wall, cpu + typical[cls])
               for _op_id, cls, _kind, wall, cpu in ops)


def _q_errors(profile) -> list:
    """max(est/act, act/est) per operator with an optimizer estimate."""
    errors = []
    for op in profile.operators:
        if op.estimated_cardinality is None:
            continue
        est = max(op.estimated_cardinality, 1.0)
        act = max(op.total_tuples_out, 1)
        errors.append(max(est / act, act / est))
    return errors


def _layer_metrics(tracer, analysis, ops, sims, q_errors, delta, run,
                   db) -> dict:
    from perfbench.trace import COMPILE_SPANS, union_length

    if analysis["violations"]:
        raise CheckFailed("span integrity: "
                          + "; ".join(analysis["violations"][:5]))
    spans = [s for s in tracer.spans if s.op is not None]
    children = analysis["children"]
    kind_of = {op_id: kind for op_id, _cls, kind, _t, _cpu in ops}
    wall_of = {op_id: t for op_id, _cls, _kind, t, _cpu in ops}
    out = {}
    for name in _TIMED:
        # outermost span per name; a flush's own time leaves out the
        # merge it triggered, so flush + merge totals do not overlap
        durations = []
        for s in spans:
            if s.name != name or (s.parent is not None
                                  and s.parent.name == name):
                continue
            d = s.duration
            if name == "storage.flush":
                d -= sum(k.duration for k in children.get(id(s), ())
                         if k.name == "storage.merge")
            durations.append(d * 1e6)
        out[name + "_us.p50"] = median(durations)
        out[name + "_us.total"] = sum(durations)
    compile_by_op: dict = {}
    for s in spans:
        if s.name in COMPILE_SPANS and kind_of.get(s.op) == "read":
            compile_by_op.setdefault(s.op, []).append((s.start, s.end))
    compile_s = sum(union_length(v) for v in compile_by_op.values())
    read_wall = sum(t for op_id, t in wall_of.items()
                    if kind_of[op_id] == "read")
    out["algebricks.compile_share"] = ratio(compile_s, read_wall)
    out["algebricks.q_error_max"] = max(q_errors, default=0.0)
    out["algebricks.q_error_p50"] = median(q_errors)
    job_ops = {s.op for s in spans if s.name == "hyracks.run_job"}
    run_job_s = sum(s.duration for s in spans if s.name == "hyracks.run_job")
    out["hyracks.run_job_share"] = ratio(
        run_job_s, sum(wall_of[o] for o in job_ops if o in wall_of))
    out["hyracks.sim_us"] = sum(sims["read"]) + sum(sims["write"])
    out["hyracks.network_tuples_per_op"] = ratio(
        delta.get("hyracks.network_tuples", 0),
        len(sims["read"]) + len(sims["write"]))
    out["hyracks.merge_passes"] = delta.get("sort.merge_passes", 0)
    out["hyracks.reduced_grants"] = delta.get("memory.reduced_grants", 0)
    kc_hits = delta.get("hyracks.batch.key_cache_hits", 0)
    out["hyracks.key_cache_hit_ratio"] = ratio(
        kc_hits, kc_hits + delta.get("hyracks.batch.key_cache_misses", 0))
    hits, misses = run["cache"]
    out["storage.cache_hit_ratio"] = ratio(hits, hits + misses)
    out["storage.cache_misses"] = misses
    out["storage.components_per_lookup"] = ratio(
        delta.get("lsm.components_searched", 0), delta.get("lsm.searches", 0))
    skips = delta.get("lsm.bloom_skips", 0)
    out["storage.bloom_skip_ratio"] = ratio(
        skips, skips + delta.get("lsm.components_searched", 0))
    out["storage.flushes"] = sum(1 for s in spans
                                 if s.name == "storage.flush")
    out["storage.merges"] = sum(1 for s in spans
                                if s.name == "storage.merge")
    loads = [s for s in spans if s.name == "storage.bulk_load"]
    out["storage.bulk_load_us_per_entry"] = ratio(
        sum(s.duration for s in loads) * 1e6,
        sum(s.entries or 0 for s in loads))
    out["storage.merge_rewrite_ratio"] = ratio(
        delta.get("lsm.entries_merged", 0),
        delta.get("lsm.entries_flushed", 0))
    out["storage.bytes_written_per_user_byte"] = ratio(
        run["pages_written"] * db.cluster.config.page_size,
        run["adm_bytes_written"])
    out["txn.commits"] = sum(1 for s in spans if s.name == "txn.commit")
    out["txn.wal_forces"] = sum(1 for s in spans
                                if s.name == "txn.wal_force")
    out["txn.forces_per_commit"] = ratio(out["txn.wal_forces"],
                                         out["txn.commits"])
    out["trace.spans"] = len(tracer.spans)
    self_by_layer: dict = {}
    for s in spans:
        self_by_layer[s.layer] = self_by_layer.get(s.layer, 0.0) \
            + analysis["self"][id(s)]
    out["span_self_s"] = self_by_layer
    return out


# -- reporting ----------------------------------------------------------------


def end_to_end(run: dict) -> dict:
    reads, writes = (run["cpu_latencies"]["read"],
                     run["cpu_latencies"]["write"])
    return {
        "setup_s": run["setup_s"], "ops_s": run["ops_s"],
        "query_cpu_p50_ms": median(reads),
        "write_cpu_p50_ms": median(writes),
        "ingest_rec_s": run["ingest_rec_s"],
        "sim_us_per_op": run["sim_us_per_op"],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "space_amp": run["space_amp"],
    }


def per_layer(plain: dict, traced: dict, profiled: dict) -> dict:
    out = {k: v for k, v in traced["layers"].items() if k in PER_LAYER}
    out["trace.ops_s"] = traced["ops_s"]
    out["trace.untraced_ops_s"] = plain["ops_s"]
    out["trace.overhead_ratio"] = ratio(traced["ops_s"], plain["ops_s"])
    out["storage.data_mb"] = traced["data_bytes"] / 2 ** 20
    out["storage.cache_mb"] = traced["cache_bytes"] / 2 ** 20
    shares = profiled["self_share"]
    for pkg in SELF_SHARE_PACKAGES:
        out[pkg + ".self_share"] = shares.get(pkg, 0.0)
    return out


def _print_metrics(metrics: dict, units: dict, notes: dict) -> None:
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<38} {value:>14.4f} {units[name]:<10} {note}")


def _tail_note(values: list) -> str:
    _value, pct, n = tail(values)
    return f"p{pct:.1f}, n={n}, {n - round(pct * n / 100)} beyond"


def _notes(run: dict) -> dict:
    reads, writes = run["latencies"]["read"], run["latencies"]["write"]
    return {
        "setup_s": f"median of {len(run['setup_samples'])} set-ups",
        "ops_s": (f"{run['attempted']} ops, {run['busy_s']:.2f} s busy, "
                  f"{run['steady_s']:.2f} s without host stalls"),
        "query_cpu_p50_ms": f"n={len(reads)}",
        "write_cpu_p50_ms": f"n={len(writes)}",
        "ingest_rec_s": (f"{run['records']} records; final flush "
                         f"{run['final_flush_s']:.3f} s"),
    }


def _print_unbounded(run: dict) -> None:
    """Measured and printed, but left out of BENCHMARK.json: from run
    to run they spread wider than any bound could allow (README)."""
    for name, unit in (("wall_ops_s", "ops/s"),
                       ("wall_ingest_rec_s", "records/s")):
        print(f"  {name:<38} {run[name]:>14.4f} {unit:<10} "
              f"over the busy wall clock")
    for name, kind in (("query_p50_ms", "read"), ("write_p50_ms", "write")):
        values = run["latencies"][kind]
        print(f"  {name:<38} {median(values):>14.4f} ms{'':<9} "
              f"wall clock, n={len(values)}")
    for name, kind in (("query_tail_ms", "read"), ("write_tail_ms", "write")):
        values = run["latencies"][kind]
        print(f"  {name:<38} {tail(values)[0]:>14.4f} ms{'':<9} "
              f"{_tail_note(values)}")
    print(f"  {'recovery_s':<38} {run['recovery_s']:>14.4f} s{'':<10} "
          f"median of {len(run['recovery_samples'])} crash/restart cycles")


def _print_checks(run: dict) -> bool:
    ok = run["failed"] == 0
    print(f"  fail_ratio {ratio(run['failed'], run['attempted']):.4f} "
          f"({run['failed']} of {run['attempted']})")
    for failure in run["failures"]:
        print(f"    FAILED {failure}")
    for name, passed, detail in run["guards"]:
        print(f"  guard {'ok  ' if passed else 'FAIL'} {name}: {detail}")
        ok = ok and passed
    print(f"  data {run['data_bytes'] / 2 ** 20:.2f} MB on disk, "
          f"buffer cache {run['cache_bytes'] / 2 ** 20:.2f} MB")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test inputs (no path guards)")
    parser.add_argument("--ops", type=int, default=0,
                        help="stop after this many ops (0: by time only)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no system sources under {SRC}", file=sys.stderr)
        return 2
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    out_dir = os.path.join(HERE, ".out")
    workdir = os.path.join(HERE, ".work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} size={args.size}")
    try:
        if args.trace == 0:
            run = run_pass(workload_cls, args, os.path.join(workdir, "plain"),
                           "plain")
            metrics = end_to_end(run)
            units = END_TO_END
            notes = _notes(run)
            passes = {"plain": run}
        else:
            passes = {mode: run_pass(workload_cls, args,
                                     os.path.join(workdir, mode), mode)
                      for mode in ("plain", "traced", "profiled")}
            run = passes["traced"]
            metrics = per_layer(passes["plain"], run, passes["profiled"])
            units = PER_LAYER
            notes = {}
        print("env " + json.dumps(run["env"], sort_keys=True))
        correct = True
        for mode, p in passes.items():
            print(f" {mode} pass:")
            correct = _print_checks(p) and correct
    except CheckFailed as exc:
        print(f"  CHECK FAILED: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {name: float(metrics[name]) for name in units}
    _print_metrics(metrics, units, notes)
    if args.trace == 0:
        _print_unbounded(run)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "env": run["env"], "metrics": metrics,
        "passes": {mode: {k: v for k, v in p.items()
                          if k in ("attempted", "failed", "failures",
                                   "busy_s", "wall_s", "steady_s",
                                   "wall_ops_s", "wall_ingest_rec_s",
                                   "final_flush_s",
                                   "records", "setup_samples", "guards",
                                   "latencies", "cpu_latencies",
                                   "recovery_samples",
                                   "data_bytes", "cache_bytes")}
                   for mode, p in passes.items()},
    }
    if args.trace:
        report["span_self_s"] = run["layers"]["span_self_s"]
        stem = f"{args.workload}-s{args.seed}"
        run["tracer"].dump(os.path.join(out_dir, stem + "-spans.jsonl"))
    with open(os.path.join(out_dir, f"{args.workload}-s{args.seed}"
                           f"-t{args.trace}.json"), "w") as f:
        json.dump(report, f, indent=1, default=str)
    attempted = sum(p["attempted"] for p in passes.values())
    failed = sum(p["failed"] for p in passes.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": {
                          name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

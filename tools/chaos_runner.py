#!/usr/bin/env python
"""Chaos harness: a faulted run must equal a fault-free run, byte for byte.

Runs the same deterministic query + feed-ingest workload twice — once
clean, once under a seeded :class:`~repro.resilience.FaultSchedule` that
injects four fault types (feed-source drop, node crash at a WAL flush
boundary and between a commit group's appends and its log force,
operator failure, disk I/O error) — and asserts that:

* every query result collected along the way is identical,
* the final dataset state (canonical serialization of full scans) is
  identical, digest included,
* every scheduled rule fired, and at least three distinct fault kinds,
* the ``resilience.*`` metrics show at least one WAL replay and at least
  one job retry, so the equivalence was earned, not vacuous,
* zero run files remain on any node after either run — the workload's
  sort budget is deliberately tiny so queries spill, and faults striking
  mid-spill must not leak the abandoned runs (the retry loop purges
  them between attempts).

Writes a JSON report (default ``chaos_report.json``) and exits non-zero
on any divergence or unexercised recovery path.

Usage::

    PYTHONPATH=src python tools/chaos_runner.py
    PYTHONPATH=src python tools/chaos_runner.py --seed 7 -o report.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import connect                                    # noqa: E402
from repro.common.config import ClusterConfig, NodeConfig    # noqa: E402
from repro.feeds import FeedManager, GeneratorSource         # noqa: E402
from repro.observability.metrics import get_registry         # noqa: E402
from repro.resilience import (                               # noqa: E402
    DiskIOFault,
    FaultInjector,
    FaultRule,
    FaultSchedule,
    FeedSourceFault,
    NodeCrashFault,
    OperatorFault,
    ResilienceFault,
)

N_USERS = 40
N_MESSAGES = 200
BATCH_SIZE = 16
ROUNDS = 5

SCHEMA = """
CREATE TYPE UserType AS { id: int, alias: string, age: int };
CREATE TYPE MsgType AS { messageId: int, authorId: int, text: string };
CREATE DATASET Users(UserType) PRIMARY KEY id;
CREATE DATASET Msgs(MsgType) PRIMARY KEY messageId;
"""

QUERIES = [
    "SELECT VALUE COUNT(*) FROM Msgs m;",
    "SELECT VALUE m.text FROM Msgs m WHERE m.messageId < 10 "
    "ORDER BY m.messageId;",
    "SELECT age, COUNT(*) AS n FROM Users u GROUP BY u.age AS age "
    "ORDER BY age;",
    # a full sort of the fed messages: under the tiny sort budget this
    # spills run files, so faults can strike mid-spill
    "SELECT VALUE m.text FROM Msgs m ORDER BY m.text;",
]


def message_stream():
    for i in range(N_MESSAGES):
        yield {"messageId": i, "authorId": i % N_USERS,
               "text": f"t{i * 37 % N_MESSAGES:04d}-" + "z" * (i % 23)}


def make_schedule(seed: int) -> FaultSchedule:
    """Four fault types against five different sites.  Node-scoped rules
    are pinned (per-node hit streams are serialized, hence exactly
    reproducible); the crashes land mid-ingest — one at a WAL flush
    boundary, one after a feed batch's commits were appended but before
    their group force — so recovery must replay the log and the feed
    must replay the whole batch."""
    return FaultSchedule(seed=seed, rules=[
        FaultRule(site="feed.next_batch", fault=FeedSourceFault, at_hit=2),
        FaultRule(site="wal.flush", fault=NodeCrashFault, at_hit=10,
                  node=0),
        FaultRule(site="txn.group_commit", fault=NodeCrashFault, at_hit=4,
                  node=0),
        FaultRule(site="executor.operator", fault=OperatorFault, at_hit=3,
                  node=1),
        FaultRule(site="disk.read_page", fault=DiskIOFault, at_hit=2,
                  node=1),
    ])


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=str)


def run_workload(base_dir: str, schedule: FaultSchedule | None) -> dict:
    injector = FaultInjector()
    config = ClusterConfig(
        num_nodes=2, partitions_per_node=2,
        # small frames + tiny sort budget: the ORDER BY over the fed
        # messages spills run files, exercising the leak-free lifecycle
        frame_size=8,
        # tiny cache: query scans after the flush go to real pages, so
        # the disk.read_page site sees traffic
        node=NodeConfig(buffer_cache_pages=8, sort_memory_frames=2,
                        group_memory_frames=2),
    )
    db = connect(base_dir, config, injector=injector)
    try:
        db.execute(SCHEMA)
        for i in range(N_USERS):
            db.cluster.insert_record("Default.Users", {
                "id": i, "alias": f"u{i}", "age": 18 + i % 7,
            })
        db.flush_dataset("Users")
        feeds = FeedManager(db)
        feeds.create_feed("msgs", GeneratorSource(message_stream()),
                          batch_size=BATCH_SIZE)
        feeds.connect_feed("msgs", "Msgs")
        feeds.start_feed("msgs")

        if schedule is not None:
            injector.arm(schedule)
        before = get_registry().snapshot()

        query_results = []
        for rnd in range(ROUNDS):
            feeds.pump("msgs", max_batches=2)
            if rnd == 2:
                # seal the fed records mid-workload: later scans must
                # read real pages, giving disk.read_page its traffic.
                # Maintenance is fallible too — recover and re-flush.
                try:
                    db.flush_dataset("Msgs")
                except ResilienceFault as fault:
                    db.cluster.handle_fault(fault)
                    db.cluster.retry_policy.backoff(1, db.cluster.clock)
                    db.flush_dataset("Msgs")
            for q in QUERIES:
                query_results.append(db.query(q))
        feeds.pump("msgs")               # drain the source
        for q in QUERIES:
            query_results.append(db.query(q))

        state = {
            name: [[list(pk), rec] for pk, rec in sorted(
                db.cluster.scan_dataset(f"Default.{name}"))]
            for name in ("Users", "Msgs")
        }
        state_canonical = canonical(state)
        delta = get_registry().delta(before)
        return {
            "query_results": query_results,
            "state_records": {k: len(v) for k, v in state.items()},
            "state_sha256": hashlib.sha256(
                state_canonical.encode()).hexdigest(),
            "_state_canonical": state_canonical,
            "metrics": {k: v for k, v in sorted(delta.items())
                        if k.startswith("resilience.")},
            "fault_firings": list(injector.history),
            "simulated_clock_us": db.cluster.clock.now_us,
            "leaked_temp_files": sum(
                len(node.live_temp_files()) for node in db.cluster.nodes),
        }
    finally:
        injector.disarm()
        db.close()


def main(argv=None) -> int:
    # every plan compiled under chaos runs with the verifier on: a rule
    # corrupting a plan should fail loudly here, not mask a fault bug
    from repro.analysis import set_plan_verification
    set_plan_verification(True)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1337,
                        help="fault-schedule seed (default: 1337)")
    parser.add_argument("-o", "--output", default="chaos_report.json",
                        help="report path (default: chaos_report.json)")
    args = parser.parse_args(argv)

    schedule = make_schedule(args.seed)
    base_dir = tempfile.mkdtemp(prefix="chaos_runner_")
    started = time.perf_counter()
    try:
        baseline = run_workload(os.path.join(base_dir, "baseline"), None)
        chaos = run_workload(os.path.join(base_dir, "chaos"), schedule)
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)

    queries_identical = (canonical(baseline["query_results"])
                         == canonical(chaos["query_results"]))
    state_identical = (baseline.pop("_state_canonical")
                       == chaos.pop("_state_canonical"))
    metrics = chaos["metrics"]
    kinds_fired = sorted({f["fault"] for f in chaos["fault_firings"]})
    fired = {(f["site"], f["node"]) for f in chaos["fault_firings"]}
    checks = {
        "queries_identical": queries_identical,
        "state_identical": state_identical,
        "every_rule_fired": all((rule.site, rule.node) in fired
                                for rule in schedule.rules),
        "fault_kinds_fired_>=3": len(kinds_fired) >= 3,
        "wal_replays_>=1": metrics.get("resilience.wal_replays", 0) >= 1,
        "job_retries_>=1": metrics.get("resilience.job_retries", 0) >= 1,
        "baseline_saw_no_faults": not baseline["fault_firings"],
        "no_leaked_runfiles": (baseline["leaked_temp_files"] == 0
                               and chaos["leaked_temp_files"] == 0),
    }
    report = {
        "seed": args.seed,
        "schedule": schedule.to_dict(),
        "workload": f"{N_USERS} users + {N_MESSAGES} fed messages, "
                    f"{ROUNDS} pump/query rounds on 2 nodes x 2 partitions",
        "baseline": baseline,
        "chaos": chaos,
        "fault_kinds_fired": kinds_fired,
        "checks": checks,
        "ok": all(checks.values()),
        "total_seconds": round(time.perf_counter() - started, 3),
    }
    with open(args.output, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    print(f"wrote {args.output}")
    print(f"  faults fired: {', '.join(kinds_fired) or 'none'} "
          f"({len(chaos['fault_firings'])} firings)")
    for name, value in metrics.items():
        print(f"  {name:<40} {value}")
    for name, passed in checks.items():
        print(f"  [{'ok' if passed else 'FAIL'}] {name}")
    if not report["ok"]:
        print("FAIL: chaos run diverged from the fault-free run or "
              "required recovery paths went unexercised", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around the system's public entry points, and a package profiler.

The benchmark records every span itself: :class:`Tracer` wraps the entry
points listed in ``ENTRY_POINTS`` for the traced pass only and restores
them afterwards, so the program is never edited and untraced passes run
the original functions.  A span has a name, start, end, parent span and
op id.  Spans stay in memory and are written out when the run ends.

Jobs run on the cluster's node worker threads.  A span opened on a thread
with no open span of its own takes as parent the innermost open span of
the client thread, which is blocked in ``run_job`` until every task has
joined, so cross-thread children still nest inside their parent.

:class:`PackageProfile` serves the separate profiled pass: each package's
share of self time under ``src/repro/``.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import sys
import threading
import time

#: (module, attribute, span name).  Class attributes are patched on the
#: class; the compile chain is patched where the API module looks it up.
ENTRY_POINTS = (
    ("repro.api.instance", "parse_sqlpp", "lang.parse"),
    ("repro.api.instance", "analyze_statement", "analysis.analyze"),
    ("repro.lang.translator:Translator", "translate_query",
     "algebricks.translate"),
    ("repro.lang.translator:Translator", "translate_insert",
     "algebricks.translate"),
    ("repro.lang.translator:Translator", "translate_load",
     "algebricks.translate"),
    ("repro.api.instance", "optimize", "algebricks.optimize"),
    ("repro.api.instance", "compile_plan", "algebricks.jobgen"),
    ("repro.hyracks.cluster:ClusterController", "run_job",
     "hyracks.run_job"),
    ("repro.storage.lsm.lsm_btree:LSMBTree", "flush", "storage.flush"),
    ("repro.storage.lsm.lsm_btree:LSMBTree", "merge", "storage.merge"),
    ("repro.storage.btree:BTree", "bulk_load", "storage.bulk_load"),
    ("repro.txn.transaction:EntityTransaction", "commit", "txn.commit"),
    ("repro.txn.log_manager:LogManager", "flush", "txn.wal_force"),
    ("repro.txn.log_manager:LogManager", "append", "txn.wal_append"),
    ("repro.feeds.feed:FeedManager", "pump", "feeds.batch"),
)

COMPILE_SPANS = ("lang.parse", "analysis.analyze", "algebricks.translate",
                 "algebricks.optimize", "algebricks.jobgen")

#: a flush or merge that returns None did no work and records no span
_NOOP_WHEN_NONE = ("storage.flush", "storage.merge")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "thread",
                 "entries")

    def __init__(self, name, parent, op, thread):
        self.name = name
        self.parent = parent
        self.op = op
        self.thread = thread
        self.entries = None
        self.start = time.perf_counter()
        self.end = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _resolve(target: str):
    module_name, _, cls_name = target.partition(":")
    __import__(module_name)
    owner = sys.modules[module_name]
    return getattr(owner, cls_name) if cls_name else owner


class Tracer:
    """In-memory span recorder around the benchmark's own wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None                 # id of the op in flight, if any
        self._local = threading.local()
        self._client_thread = threading.get_ident()
        self._client_stack = self._stack()
        self._saved: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        thread = threading.get_ident()
        if stack:
            parent = stack[-1]
        elif thread != self._client_thread and self._client_stack:
            parent = self._client_stack[-1]
        else:
            parent = None
        span = Span(name, parent, self.op, thread)
        stack.append(span)
        return span

    def close(self, span: Span, keep: bool = True) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if keep:
            self.spans.append(span)

    def wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if name == "storage.bulk_load" and result is not None:
                    span.entries = result.count
                tracer.close(span, keep=not (name in _NOOP_WHEN_NONE
                                             and result is None))
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for target, attr, name in ENTRY_POINTS:
            owner = _resolve(target)
            raw = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr,
                        classmethod(self.wrap(raw.__func__, name)))
            else:
                setattr(owner, attr, self.wrap(raw, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (times in µs from the first)."""
        if not self.spans:
            return
        ids = {id(s): i for i, s in enumerate(self.spans)}
        t0 = min(s.start for s in self.spans)
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s.name, "op": s.op,
                    "parent": ids.get(id(s.parent)),
                    "start_us": round((s.start - t0) * 1e6, 1),
                    "end_us": round((s.end - t0) * 1e6, 1),
                    "thread": s.thread,
                }) + "\n")


def union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


#: slack for perf_counter reads taken on different threads
_EPS = 1e-6


def analyze_spans(spans: list) -> dict:
    """Self time per span and the integrity checks.

    Returns ``self`` (span id -> self seconds), ``children`` (span id ->
    child spans) and ``violations``: children outside their parent,
    negative self time, or one op whose spans of one layer cover more
    time than the op itself."""
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    violations = []
    self_time = {}
    for span in spans:
        kids = children.get(id(span), ())
        for kid in kids:
            if kid.start < span.start - _EPS or kid.end > span.end + _EPS:
                violations.append(f"{kid.name} outside {span.name}")
        covered = union_length((k.start, k.end) for k in kids)
        self_time[id(span)] = span.duration - covered
        if self_time[id(span)] < -_EPS:
            violations.append(f"negative self time in {span.name}")
    by_op: dict = {}
    for span in spans:
        if span.op is not None:
            by_op.setdefault(span.op, []).append(span)
    for op_id, group in by_op.items():
        roots = [s for s in group if s.name.startswith("op.")]
        if not roots:
            continue
        wall = roots[0].duration
        layers: dict = {}
        for s in group:
            if s is not roots[0]:
                layers.setdefault(s.layer, []).append((s.start, s.end))
        for layer, intervals in layers.items():
            if union_length(intervals) > wall + _EPS:
                violations.append(f"op {op_id}: {layer} covers more than "
                                  f"the op's wall time")
        client_self = sum(self_time[id(s)] for s in group
                          if s.thread == roots[0].thread)
        if client_self > wall + _EPS:
            violations.append(f"op {op_id}: self times exceed wall time")
    return {"self": self_time, "children": children,
            "violations": violations}


class PackageProfile:
    """Self time by package under ``src/repro/``, from ``cProfile``.

    Time inside a builtin (an ``fsync``, a ``struct.pack``) is charged to
    the package of the Python function that called it.  ``cProfile`` only
    sees the thread that enabled it, so the profiled pass runs the
    serial executor, which runs every task on the client thread."""

    def __init__(self, src_root: str):
        self.prefix = os.path.join(os.path.abspath(src_root), "repro") \
            + os.sep
        self._profile = cProfile.Profile()

    def _package(self, filename: str) -> str:
        if filename.startswith(self.prefix):
            rest = filename[len(self.prefix):]
            return rest.split(os.sep, 1)[0].removesuffix(".py")
        return "other"

    def start(self) -> None:
        self._profile.enable()

    def stop(self) -> None:
        self._profile.disable()

    def shares(self) -> dict:
        totals: dict = {}
        for (filename, _line, _name), entry in \
                pstats.Stats(self._profile).stats.items():
            self_time, callers = entry[2], entry[4]
            if filename == "~" and callers:
                for (caller_file, _l, _n), caller in callers.items():
                    package = self._package(caller_file)
                    totals[package] = totals.get(package, 0.0) + caller[2]
            else:
                package = self._package(filename)
                totals[package] = totals.get(package, 0.0) + self_time
        total = sum(totals.values())
        return {pkg: t / total for pkg, t in totals.items()} if total else {}

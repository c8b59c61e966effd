"""Frame-at-a-time execution against independent references.

Sorts, group-bys, and aggregates run frame-at-a-time (bulk aggregate
stepping, compiled sort keys, batched key bytes).  This suite checks
them against references built here, not against a second runtime path:

* **Value level** (hypothesis): ``AggregateState.step_many`` — whole or
  chunked — finishes with exactly what the sequential ``step`` fold
  produces, including tie-breaking (``1`` vs ``1.0`` in MIN/MAX);
  ``order_part``/``compile_order_key`` order exactly like
  :func:`repro.adm.comparators.compare` (via ``functools.cmp_to_key``).
* **Operator level** (hypothesis): group-by/aggregate/top-k operators
  over random frames must produce what a per-value ``step`` fold (or a
  ``compare``-based sort) of the same input produces, and charge the
  simulated clock exactly what the cost model prescribes.
* **Observability**: the ``agg.batched_steps`` and
  ``sort.key_cache_hits`` counters tick, and the top-k cost model
  charges ``n * ceil(log2 k)`` comparisons.

Whole queries are pinned by the golden corpus (``tests/golden``) and by
SQLite (``tests/oracle``).
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adm.comparators import (
    compare,
    order_part,
    tuple_key,
    tuple_key_many,
)
from repro.adm.values import MISSING
from repro.common.config import ClusterConfig, NodeConfig
from repro.functions.aggregates import AggregateState
from repro.functions.registry import resolve_aggregate
from repro.hyracks.connectors import MergeConnector
from repro.hyracks.expressions import ColumnRef
from repro.hyracks.operators.base import TaskContext
from repro.hyracks.operators.group import (
    AggregateCall,
    AggregateOp,
    HashGroupByOp,
    PreclusteredGroupByOp,
)
from repro.hyracks.operators.sort import (
    TopKSortOp,
    _compile_sort_plan,
    compile_order_key,
)
from repro.hyracks.profiler import PartitionCost
from repro.observability.metrics import get_registry

GENERAL_VALUES = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.floats(min_value=-20, max_value=20,
              allow_nan=False, allow_infinity=False),
    st.sampled_from(["", "a", "bb", "zz"]),
    st.booleans(),
    st.none(),
    st.just(MISSING),
    st.lists(st.integers(min_value=0, max_value=3), max_size=2),
)

NUMERIC_VALUES = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.floats(min_value=-20, max_value=20,
              allow_nan=False, allow_infinity=False),
    st.none(),
    st.just(MISSING),
)


def canon(x):
    """Strict equality token: distinguishes 1 / 1.0 / True, so the
    tie-breaking of bulk folds is checked, not just ADM equality."""
    return (type(x).__name__, repr(x))


class TestStepManyAgreement:
    def _check(self, name, values, chunk):
        func = resolve_aggregate(name)
        ref = AggregateState(func)
        for v in values:
            ref.step(v)
        whole = AggregateState(func)
        whole.step_many(list(values))
        chunked = AggregateState(func)
        for i in range(0, len(values), chunk):
            chunked.step_many(values[i:i + chunk])
        expected = canon(ref.finish())
        assert canon(whole.finish()) == expected
        assert canon(chunked.finish()) == expected

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(
               ["count", "count_star", "min", "max", "listify"]),
           values=st.lists(GENERAL_VALUES, max_size=30),
           chunk=st.integers(min_value=1, max_value=7))
    def test_general_aggregates(self, name, values, chunk):
        self._check(name, values, chunk)

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(["sum", "avg"]),
           values=st.lists(NUMERIC_VALUES, max_size=30),
           chunk=st.integers(min_value=1, max_value=7))
    def test_numeric_aggregates(self, name, values, chunk):
        self._check(name, values, chunk)

    def test_min_max_keep_earliest_of_ties(self):
        for name in ("min", "max"):
            state = AggregateState(resolve_aggregate(name))
            state.step_many([1, 1.0])
            assert canon(state.finish()) == canon(1)


WIDTH = 3
FRAMES = st.lists(
    st.lists(GENERAL_VALUES, min_size=WIDTH, max_size=WIDTH).map(tuple),
    max_size=25)
FIELD_SPECS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=WIDTH - 1), st.booleans()),
    min_size=1, max_size=WIDTH)


def compare_key(fields, descending):
    """The reference composite sort key: ``compare`` per field, with
    DESC fields negated."""
    def cmp(a, b):
        for f, desc in zip(fields, descending):
            c = compare(a[f], b[f])
            if c:
                return -c if desc else c
        return 0
    return functools.cmp_to_key(cmp)


class TestSortKeyAgreement:
    @settings(max_examples=150, deadline=None)
    @given(a=GENERAL_VALUES, b=GENERAL_VALUES)
    def test_order_part_agrees_with_compare(self, a, b):
        pa, pb = order_part(a), order_part(b)
        c = compare(a, b)
        assert (pa < pb) == (c < 0)
        assert (pa == pb) == (c == 0)

    @settings(max_examples=100, deadline=None)
    @given(data=FRAMES)
    def test_tuple_key_many_orders_like_tuple_key(self, data):
        ref = sorted(range(len(data)), key=lambda i: tuple_key(data[i]))
        many = tuple_key_many(data)
        assert sorted(range(len(data)), key=lambda i: many[i]) == ref

    @settings(max_examples=150, deadline=None)
    @given(data=FRAMES, spec=FIELD_SPECS)
    def test_compiled_key_sorts_like_compare(self, data, spec):
        fields = [f for f, _ in spec]
        descending = [d for _, d in spec]
        ref = sorted(data, key=compare_key(fields, descending))
        compiled = compile_order_key(fields, descending, data)
        assert sorted(data, key=compiled) == ref
        sort_key, reverse, heap_key = _compile_sort_plan(
            fields, descending, data)
        assert sorted(data, key=sort_key, reverse=reverse) == ref
        assert min(data, key=heap_key, default=None) == (
            ref[0] if ref else None)


def _ctx() -> TaskContext:
    # node=None: these operators never touch node services on the
    # in-memory path exercised here
    config = ClusterConfig(num_nodes=1, partitions_per_node=1,
                           node=NodeConfig())
    return TaskContext(None, config, PartitionCost())


def _aggs():
    return [AggregateCall("count", ColumnRef(0)),
            AggregateCall("sum", ColumnRef(1)),
            AggregateCall("min", ColumnRef(2))]


def _fold(name, values):
    """The reference fold: one ``AggregateState.step`` per value."""
    state = AggregateState(resolve_aggregate(name))
    for v in values:
        state.step(v)
    return state.finish()


def _reference_group(rows):
    return (_fold("count", [t[0] for t in rows]),
            _fold("sum", [t[1] for t in rows]),
            _fold("min", [t[2] for t in rows]))


def _reference_groups(data):
    """Group on column 0 (small ints) in first-seen order."""
    groups: dict = {}
    for t in data:
        groups.setdefault(t[0], []).append(t)
    return [(key, *_reference_group(rows)) for key, rows in groups.items()]


def assert_same_rows(out, expected):
    """Strict row equality: :func:`canon` tells 1 / 1.0 / True apart."""
    assert [[canon(v) for v in t] for t in out] == \
        [[canon(v) for v in t] for t in expected]


OP_FRAMES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              NUMERIC_VALUES,
              GENERAL_VALUES),
    max_size=25)


class TestOperatorEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(data=OP_FRAMES)
    def test_global_aggregate(self, data):
        ctx = _ctx()
        op = AggregateOp(_aggs())
        op.prepare(ctx.config)
        out = op.run(ctx, 0, [list(data)])
        assert_same_rows(out, [_reference_group(data)])
        cost = ctx.config.cost
        assert ctx.cost.cpu_us == len(data) * 3 * cost.tuple_cpu_us

    @settings(max_examples=60, deadline=None)
    @given(data=OP_FRAMES)
    def test_hash_group_by(self, data):
        ctx = _ctx()
        op = HashGroupByOp([0], _aggs())
        op.prepare(ctx.config)
        # budget too large to spill: the spill path needs node temp
        # files and is covered by the executor-level suite and the corpus
        out = op._aggregate(ctx, list(data), 10 ** 9, 0)
        assert_same_rows(out, _reference_groups(data))
        cost = ctx.config.cost
        assert ctx.cost.cpu_us == (len(data) * cost.hash_us
                                   + len(data) * 3 * cost.tuple_cpu_us)

    @settings(max_examples=60, deadline=None)
    @given(data=OP_FRAMES)
    def test_preclustered_group_by(self, data):
        clustered = sorted(data, key=lambda t: tuple_key((t[0],)))
        ctx = _ctx()
        op = PreclusteredGroupByOp([0], _aggs())
        op.prepare(ctx.config)
        out = op.run(ctx, 0, [clustered])
        assert_same_rows(out, _reference_groups(clustered))
        cost = ctx.config.cost
        assert ctx.cost.cpu_us == (len(data) * cost.compare_us
                                   + len(data) * cost.tuple_cpu_us)

    @settings(max_examples=60, deadline=None)
    @given(data=FRAMES, spec=FIELD_SPECS,
           k=st.integers(min_value=1, max_value=8))
    def test_topk_sort(self, data, spec, k):
        fields = [f for f, _ in spec]
        descending = [d for _, d in spec]
        out = TopKSortOp(fields, k, descending).run(_ctx(), 0, [list(data)])
        # sorted() is stable, so earlier input wins every tie — as in
        # the operator
        ref = sorted(data, key=compare_key(fields, descending))
        assert out == ref[:k]


class TestCostModelAndCounters:
    def test_topk_charges_heap_sift_comparisons(self):
        # satellite fix: n tuples through a k-bounded heap cost
        # n * max(1, ceil(log2 k)) comparisons, not n
        n, k = 100, 5
        ctx = _ctx()
        TopKSortOp([0], k).run(ctx, 0, [[(i,) for i in range(n)]])
        cost = ctx.config.cost
        expected = (n * cost.tuple_cpu_us
                    + n * max(1, k.bit_length()) * cost.compare_us)
        assert ctx.cost.cpu_us == expected

    def test_batched_steps_counter(self):
        counter = get_registry().counter("agg.batched_steps")
        before = counter.value
        ctx = _ctx()
        op = AggregateOp(_aggs())
        op.prepare(ctx.config)
        op.run(ctx, 0, [[(i, i, i) for i in range(10)]])
        assert counter.value - before == 10 * 3

    def test_merge_connector_key_cache_hits(self):
        class Ctx:
            def charge_network(self, n):
                pass

            def charge_compare(self, n):
                pass

        counter = get_registry().counter("sort.key_cache_hits")
        before = counter.value
        parts = [[(0,), (2,)], [(1,), (3,)]]
        merged = MergeConnector([0]).route(parts, 1, Ctx())
        assert merged == [[(0,), (1,), (2,), (3,)]]
        # every heap push reused a precomputed compiled key
        assert counter.value - before == 4

"""Golden corpus: recorded answers and simulated clocks, replayed exactly.

``corpus.json`` (next to this file) holds one entry per query or job
shape: its row count, the sha256 of its canonical rows, its exact
``simulated_us``, and the plan it ran as (operator names with tuple
counts).  The replay asserts every field is identical, so a change to
any runtime path that moves an answer, a row order, a per-operator
tuple count, or one simulated microsecond fails here.

The corpus covers:

* the six ``tools/bench_runner.py`` queries at ``--quick`` size;
* the serial, non-pipelined baseline of every job shape in
  ``tests/hyracks/test_executor_equivalence.py``, with per-partition
  tuple counts, plus job shapes for a preclustered group-by (no SQL++
  plan here reaches one), a global aggregate, and a DESC top-k merged
  through the sort-merge connector;
* SQL++ queries aimed at specific runtime paths: every runtime
  expression node (quantified, CASE, object/array/multiset
  constructors, comprehensions over nested collections), a spilling
  external sort (ASC, mixed, all-DESC, DESC with ties), top-k (ASC,
  mixed, all-DESC, DESC with ties),
  the sort-merge connector (every parallel ORDER BY gathers through
  it), a spilling hash group-by, a global aggregate,
  INSERT/UPSERT/DELETE/LOAD, and primary, B-tree, array, R-tree and
  keyword index searches.

The corpus is regenerated only by running this module as a script::

    python tests/golden/test_golden.py --write

Do that only for a change that is *meant* to move answers or the
simulated clock, and say so in the change's description.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if __name__ == "__main__":      # run as a script: make the repo importable
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from repro import connect  # noqa: E402
from repro.common.config import (  # noqa: E402
    ClusterConfig,
    ExecutorConfig,
    NodeConfig,
)
from repro.hyracks import (  # noqa: E402
    ClusterController,
    ColumnRef,
    Const,
    FunctionCall,
    HashPartitionConnector,
    JobSpecification,
    MergeConnector,
    OneToOneConnector,
)
from repro.hyracks.operators import (  # noqa: E402
    AggregateCall,
    AggregateOp,
    AssignOp,
    DatasetScanOp,
    DistinctOp,
    ExternalSortOp,
    HashGroupByOp,
    HybridHashJoinOp,
    InMemorySourceOp,
    LimitOp,
    PreclusteredGroupByOp,
    ProjectOp,
    ResultWriterOp,
    RunningAggregateOp,
    SelectOp,
    TopKSortOp,
    UnnestOp,
)
from tools.bench_runner import (  # noqa: E402
    QUERY_BENCHMARKS,
    SCHEMA as BENCH_SCHEMA,
    load_data,
)

CORPUS = Path(__file__).with_name("corpus.json")


def digest(rows) -> str:
    """sha256 of the rows' canonical text: ``repr`` keeps field order,
    row order, and the 1 / 1.0 / True distinctions."""
    text = repr(list(rows))
    assert " at 0x" not in text, "row has no canonical repr"
    return hashlib.sha256(text.encode()).hexdigest()


# --- SQL++ groups: one fresh instance each, statements run in order ---------

def bench_setup(db, workdir):
    db.execute(BENCH_SCHEMA)
    load_data(db, 200, 1000)            # bench_runner --quick sizes


BENCH = {
    "config": lambda: ClusterConfig(
        num_nodes=2, partitions_per_node=2,
        node=NodeConfig(buffer_cache_pages=256)),
    "setup": bench_setup,
    "statements": [(f"bench.{name}", query)
                   for name, query in QUERY_BENCHMARKS],
}

PATHS_DDL = """
CREATE TYPE EmpType AS { id: int, name: string, dept: string, salary: int,
                         zip: int, tags: [string], loc: point,
                         bio: string };
CREATE DATASET Emp(EmpType) PRIMARY KEY id;
CREATE INDEX bySalary ON Emp(salary);
CREATE INDEX byLoc ON Emp(loc) TYPE RTREE;
CREATE INDEX byBio ON Emp(bio) TYPE KEYWORD;
CREATE INDEX byTag ON Emp(UNNEST tags);
CREATE TYPE ItemType AS { id: int };
CREATE DATASET Items(ItemType) PRIMARY KEY id;
CREATE DATASET Loaded(ItemType) PRIMARY KEY id;
"""

WORDS = ["alpha", "beta", "gamma", "delta", "omega"]
TAGS = ["a", "b", "c", "d"]


def paths_setup(db, workdir):
    db.execute(PATHS_DDL)
    for i in range(400):
        db.execute(
            'INSERT INTO Emp ({"id": %d, "name": "e%03d", "dept": "d%d", '
            '"salary": %d, "zip": %d, "tags": [%s], '
            '"loc": create_point(%d.0, %d.0), "bio": "%s %s", '
            '"employment": [%s]});' % (
                i, (i * 37) % 400, i % 6, 1000 + (i * 7919) % 5000,
                (i * 13) % 300,
                ", ".join(f'"{TAGS[(i + j) % 4]}"' for j in range(i % 3)),
                i % 20, (i * 3) % 20,
                WORDS[i % 5], WORDS[(i // 5) % 5],
                ", ".join('{"org": "o%d", "start": %d, "roles": [%s]}' % (
                    (i + j) % 7, 2000 + (i * (j + 3)) % 20,
                    ", ".join(f'"r{k}"' for k in range(j + 1)))
                    for j in range(i % 4))))
    db.flush_dataset("Emp")
    (Path(workdir) / "items.adm").write_text("".join(
        '{"id": %d, "v": %d, "tag": "l%d"}\n' % (i, i * 11 % 23, i % 4)
        for i in range(60)))


PATHS = {
    # tiny frames and budgets: sorts and group-bys spill, merges take
    # more than one pass
    "config": lambda: ClusterConfig(
        num_nodes=2, partitions_per_node=2, frame_size=16,
        node=NodeConfig(buffer_cache_pages=128, sort_memory_frames=2,
                        group_memory_frames=2, join_memory_frames=4)),
    "setup": paths_setup,
    "statements": [
        # runtime expression nodes
        ("expr.quantified_some",
         "SELECT VALUE e.id FROM Emp e "
         "WHERE SOME t IN e.tags SATISFIES t = 'b' ORDER BY e.id;"),
        ("expr.quantified_every",
         "SELECT e.id AS id, EVERY t IN e.tags SATISFIES t >= 'b' AS ok "
         "FROM Emp e WHERE e.id < 40;"),
        ("expr.case",
         "SELECT e.id AS id, CASE WHEN e.salary > 4000 THEN 'high' "
         "WHEN e.salary > 2000 THEN 'mid' ELSE 'low' END AS band "
         "FROM Emp e WHERE e.id < 60;"),
        ("expr.constructors",
         'SELECT VALUE {"id": e.id, "pair": [e.dept, e.salary], '
         '"bag": {{e.zip, e.zip}}, "gone": e.nothing, '
         '"nested": {"tags": e.tags}} FROM Emp e WHERE e.id < 30;'),
        ("expr.comprehension",
         "SELECT e.id AS id, (SELECT VALUE j.org FROM e.employment AS j "
         "WHERE j.start > 2008) AS orgs FROM Emp e WHERE e.id < 50;"),
        ("expr.inline_query_nested",
         "SELECT e.id AS id, (SELECT VALUE r FROM e.employment AS j, "
         "j.roles AS r) AS roles FROM Emp e WHERE e.id < 50;"),
        ("expr.unnest_positional",
         "SELECT e.id AS id, t AS t, p AS p FROM Emp e "
         "UNNEST e.tags AS t AT p WHERE e.id < 30;"),
        ("expr.distinct",
         "SELECT DISTINCT e.dept AS d, e.zip % 4 AS z FROM Emp e;"),
        # external sort: spills at this budget
        ("sort.spill_asc",
         "SELECT VALUE [e.salary, e.id] FROM Emp e "
         "ORDER BY e.salary, e.id;"),
        ("sort.spill_mixed",
         "SELECT VALUE [e.dept, e.salary, e.id] FROM Emp e "
         "ORDER BY e.dept ASC, e.salary DESC, e.id;"),
        ("sort.spill_desc",
         "SELECT VALUE [e.zip, e.id] FROM Emp e "
         "ORDER BY e.zip DESC, e.id DESC;"),
        ("sort.strings_desc",
         "SELECT VALUE e.name FROM Emp e ORDER BY e.name DESC;"),
        ("sort.desc_ties",
         "SELECT VALUE [e.dept, e.id] FROM Emp e ORDER BY e.dept DESC;"),
        # top-k
        ("topk.desc",
         "SELECT VALUE [e.salary, e.id] FROM Emp e "
         "ORDER BY e.salary DESC, e.id DESC LIMIT 7;"),
        ("topk.mixed",
         "SELECT VALUE [e.dept, e.salary, e.id] FROM Emp e "
         "ORDER BY e.dept, e.salary DESC LIMIT 9;"),
        ("topk.asc",
         "SELECT VALUE [e.zip, e.id] FROM Emp e "
         "ORDER BY e.zip, e.id LIMIT 5;"),
        ("topk.desc_ties",
         "SELECT VALUE [e.dept, e.id] FROM Emp e "
         "ORDER BY e.dept DESC LIMIT 12;"),
        # grouping
        ("group.hash_spill",
         "SELECT z AS z, COUNT(*) AS n, SUM(e.salary) AS s, "
         "MIN(e.name) AS lo, MAX(e.salary) AS hi, AVG(e.salary) AS a "
         "FROM Emp e GROUP BY e.zip AS z ORDER BY z;"),
        ("group.global",
         "SELECT COUNT(*) AS n, SUM(e.salary) AS s, AVG(e.zip) AS a, "
         "MIN(e.dept) AS lo FROM Emp e WHERE e.id > 17;"),
        ("group.join",
         "SELECT d AS d, COUNT(*) AS n FROM Emp a JOIN Emp b "
         "ON a.zip = b.id GROUP BY a.dept AS d ORDER BY d;"),
        # index searches and their bounds
        ("index.btree_range",
         "SELECT VALUE e.id FROM Emp e "
         "WHERE e.salary >= 3000 AND e.salary < 3400;"),
        ("index.btree_point",
         "SELECT VALUE e.id FROM Emp e WHERE e.salary = 1000;"),
        ("index.primary_range",
         "SELECT VALUE e.name FROM Emp e WHERE e.id >= 100 AND e.id < 120;"),
        ("index.rtree",
         "SELECT VALUE e.id FROM Emp e WHERE spatial_intersect(e.loc, "
         "create_rectangle(create_point(2.0, 3.0), "
         "create_point(6.0, 9.0)));"),
        ("index.array",
         "SELECT VALUE [e.id, t] FROM Emp e UNNEST e.tags AS t "
         "WHERE t >= 'b' AND t < 'd';"),
        ("index.keyword",
         "SELECT VALUE e.id FROM Emp e "
         "WHERE ftcontains(e.bio, 'beta gamma');"),
        # DML, then the resulting contents
        ("dml.insert",
         'INSERT INTO Items (SELECT VALUE {"id": e.id, "v": e.salary} '
         "FROM Emp e WHERE e.id < 50);"),
        ("dml.insert_literal",
         'INSERT INTO Items ([{"id": 1000, "v": 1}, {"id": 1001, "v": 2}]);'),
        ("dml.upsert",
         'UPSERT INTO Items (SELECT VALUE {"id": e.id, "v": e.zip, '
         '"up": true} FROM Emp e WHERE e.id >= 40 AND e.id < 70);'),
        ("dml.delete",
         "DELETE FROM Items i WHERE i.v < 100;"),
        ("dml.contents",
         "SELECT VALUE i FROM Items i ORDER BY i.id;"),
        ("dml.load",
         "LOAD DATASET Loaded USING localfs "
         '(("path"="{workdir}/items.adm"), ("format"="adm"));'),
        ("dml.load_contents",
         "SELECT VALUE l FROM Loaded l ORDER BY l.id;"),
    ],
}

def observe_statement(result, workdir) -> dict:
    profile = result.profile
    return {
        "rows": len(result.rows),
        "sha256": digest(result.rows),
        "simulated_us": profile.simulated_us,
        "operators": [[op.name.replace(workdir, "{workdir}"),
                       op.total_tuples_out]
                      for op in profile.operators],
    }


def record_sqlpp(group, workdir) -> list:
    out = []
    with connect(str(Path(workdir) / "db"), group["config"]()) as db:
        group["setup"](db, workdir)
        for name, statement in group["statements"]:
            result = db.execute(statement.replace("{workdir}", workdir))
            out.append({"name": name, "query": statement,
                        **observe_statement(result, workdir)})
    return out


# --- job shapes: the serial baseline of the executor-equivalence suite ------

def job_config() -> ClusterConfig:
    return ClusterConfig(
        num_nodes=2, partitions_per_node=2,
        node=NodeConfig(buffer_cache_pages=128, memory_component_pages=64,
                        sort_memory_frames=4, join_memory_frames=4,
                        group_memory_frames=4),
        frame_size=16,
        executor=ExecutorConfig(mode="serial", pipelining=False),
    )


def chain(*ops_and_connectors):
    job = JobSpecification()
    prev = job.add_operator(ops_and_connectors[0])
    for connector, op in ops_and_connectors[1:]:
        op_id = job.add_operator(op)
        job.connect(connector, prev, op_id)
        prev = op_id
    return job


def scan_select_project_limit():
    data = [(i, i * 3 % 97, [i, i + 1]) for i in range(200)]
    return chain(
        InMemorySourceOp(data),
        (OneToOneConnector(),
         SelectOp(FunctionCall("gt", [ColumnRef(1), Const(10)]))),
        (OneToOneConnector(), AssignOp([
            FunctionCall("numeric_add", [ColumnRef(0), Const(1)])])),
        (OneToOneConnector(), ProjectOp([0, 1, 3])),
        (OneToOneConnector(), LimitOp(50, offset=5)),
        (OneToOneConnector(), ResultWriterOp()),
    )


def unnest_and_distinct():
    data = [(i % 7, list(range(i % 4))) for i in range(120)]
    return chain(
        InMemorySourceOp(data),
        (OneToOneConnector(), UnnestOp(ColumnRef(1))),
        (OneToOneConnector(), ProjectOp([0, 2])),
        (HashPartitionConnector([0]), DistinctOp()),
        (OneToOneConnector(), ResultWriterOp()),
    )


def fused_chain():
    return chain(
        InMemorySourceOp([(i,) for i in range(300)]),
        (OneToOneConnector(), SelectOp(Const(True))),
        (OneToOneConnector(), AssignOp([
            FunctionCall("numeric_multiply", [ColumnRef(0), Const(2)])])),
        (OneToOneConnector(), ProjectOp([1])),
        (OneToOneConnector(), ResultWriterOp()),
    )


def spilling_sort_with_merge():
    data = [(i * 7919 % 500, i) for i in range(500)]
    return chain(
        InMemorySourceOp(data),
        (HashPartitionConnector([0]), ExternalSortOp([0], memory_frames=4)),
        (MergeConnector([0]), ResultWriterOp()),
    )


def spilling_hash_join():
    job = JobSpecification()
    left = job.add_operator(InMemorySourceOp([(i % 80, i)
                                              for i in range(400)]))
    right = job.add_operator(InMemorySourceOp([(i, i * 10)
                                               for i in range(80)]))
    join = job.add_operator(HybridHashJoinOp([0], [0], memory_frames=2))
    sink = job.add_operator(ResultWriterOp())
    job.connect(HashPartitionConnector([0]), left, join, 0)
    job.connect(HashPartitionConnector([0]), right, join, 1)
    job.connect(OneToOneConnector(), join, sink)
    return job


def spilling_group_by():
    return chain(
        InMemorySourceOp([(i % 150, i) for i in range(600)]),
        (HashPartitionConnector([0]), HashGroupByOp(
            [0], [AggregateCall("count", ColumnRef(1))], memory_frames=2)),
        (OneToOneConnector(), ResultWriterOp()),
    )


def preclustered_group_by():
    # SQL++ plans here never meet a key-ordered, key-partitioned input,
    # so the preclustered group-by is reached through a job shape
    data = sorted([(i % 40, i, i % 7 or None) for i in range(400)])
    return chain(
        InMemorySourceOp(data),
        (OneToOneConnector(), PreclusteredGroupByOp([0], [
            AggregateCall("count", ColumnRef(2)),
            AggregateCall("sum", ColumnRef(1)),
            AggregateCall("min", ColumnRef(2)),
            AggregateCall("avg", ColumnRef(1))])),
        (OneToOneConnector(), ResultWriterOp()),
    )


def global_aggregate():
    data = [(i, i % 5 or None, f"s{i % 13}") for i in range(300)]
    return chain(
        InMemorySourceOp(data),
        (OneToOneConnector(), AggregateOp([
            AggregateCall("count_star", Const(1)),
            AggregateCall("max", ColumnRef(2)),
            AggregateCall("sum", ColumnRef(1)),
            AggregateCall("listify", ColumnRef(1))])),
        (OneToOneConnector(), ResultWriterOp()),
    )


def topk_desc_through_merge():
    data = [(i * 37 % 101, f"k{i % 9}", i) for i in range(300)]
    return chain(
        InMemorySourceOp(data),
        (HashPartitionConnector([2]), TopKSortOp([1, 0], 11, [True, False])),
        (MergeConnector([1, 0], [True, False]), LimitOp(11)),
        (OneToOneConnector(), ResultWriterOp()),
    )


def outer_unnest_running_aggregate():
    data = [(i, list(range(i % 3))) for i in range(90)]
    return chain(
        InMemorySourceOp(data),
        (OneToOneConnector(),
         UnnestOp(ColumnRef(1), outer=True, positional=True)),
        (OneToOneConnector(), RunningAggregateOp()),
        (OneToOneConnector(), ResultWriterOp()),
    )


def scan_over_lsm_partitions():
    return chain(DatasetScanOp("Users"),
                 (OneToOneConnector(), ResultWriterOp()))


def load_users(cluster):
    cluster.create_dataset("Users", ("id",))
    for i in range(300):
        cluster.insert_record("Users",
                              {"id": i, "grp": i % 9, "name": f"u{i}"})
    cluster.flush_dataset("Users")


JOB_SHAPES = [
    ("job.scan_select_project_limit", scan_select_project_limit, None),
    ("job.unnest_and_distinct", unnest_and_distinct, None),
    ("job.fused_chain", fused_chain, None),
    ("job.spilling_sort_with_merge", spilling_sort_with_merge, None),
    ("job.spilling_hash_join", spilling_hash_join, None),
    ("job.spilling_group_by", spilling_group_by, None),
    ("job.scan_over_lsm_partitions", scan_over_lsm_partitions, load_users),
    ("job.preclustered_group_by", preclustered_group_by, None),
    ("job.global_aggregate", global_aggregate, None),
    ("job.topk_desc_through_merge", topk_desc_through_merge, None),
    ("job.outer_unnest_running_aggregate", outer_unnest_running_aggregate,
     None),
]

SQLPP_EQUIVALENCE_DDL = """
    CREATE TYPE ItemType AS { id: int, cat: string, price: int };
    CREATE DATASET Items(ItemType) PRIMARY KEY id;
    CREATE INDEX byCat ON Items(cat);
"""
SQLPP_EQUIVALENCE_QUERIES = [
    "SELECT VALUE i.id FROM Items i WHERE i.cat = 'c3';",
    "SELECT cat, COUNT(*) AS n FROM Items i "
    "GROUP BY i.cat AS cat ORDER BY cat;",
    "SELECT VALUE i.price FROM Items i ORDER BY i.price DESC LIMIT 7;",
    "SELECT a.id AS x, b.id AS y FROM Items a, Items b "
    "WHERE a.id = b.id AND a.price > 900 ORDER BY x;",
]


def equivalence_setup(db, workdir):
    db.execute(SQLPP_EQUIVALENCE_DDL)
    for i in range(120):
        db.execute('INSERT INTO Items ({"id": %d, "cat": "c%d", '
                   '"price": %d});' % (i, i % 5, i * 13 % 1000))
    db.flush_dataset("Items")


EQUIVALENCE = {
    "config": job_config,
    "setup": equivalence_setup,
    "statements": [(f"job.sqlpp_{i}", query)
                   for i, query in enumerate(SQLPP_EQUIVALENCE_QUERIES)],
}

SQLPP_GROUPS = [BENCH, PATHS, EQUIVALENCE]


def record_job(name, factory, setup, workdir) -> dict:
    cluster = ClusterController(str(Path(workdir) / "cluster"), job_config())
    try:
        if setup is not None:
            setup(cluster)
        result = cluster.run_job(factory())
    finally:
        cluster.close()
    profile = result.profile
    return {
        "name": name,
        "shape": factory.__name__,
        "rows": len(result.tuples),
        "sha256": digest(result.tuples),
        "simulated_us": profile.simulated_us,
        "operators": [
            [op.name, [[p, c.tuples_in, c.tuples_out]
                       for p, c in sorted(op.partitions.items())]]
            for op in profile.operators
        ],
    }


def record_all() -> list:
    entries = []
    for group in SQLPP_GROUPS:
        with tempfile.TemporaryDirectory() as workdir:
            entries.extend(record_sqlpp(group, workdir))
    for name, factory, setup in JOB_SHAPES:
        with tempfile.TemporaryDirectory() as workdir:
            entries.append(record_job(name, factory, setup, workdir))
    return entries


# --- the replay ---------------------------------------------------------------

def load_corpus() -> dict:
    if not CORPUS.exists():     # caught by the names test below
        return {}
    return {entry["name"]: entry
            for entry in json.loads(CORPUS.read_text())["entries"]}


@pytest.fixture(scope="module")
def replayed():
    return {entry["name"]: entry for entry in record_all()}


@pytest.mark.parametrize("name", sorted(load_corpus()))
def test_replay_matches_corpus(replayed, name):
    assert replayed.get(name) == load_corpus()[name]


def test_corpus_names_every_replayed_entry(replayed):
    assert sorted(replayed) == sorted(load_corpus())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/golden/test_golden.py --write")
    from repro.analysis import set_plan_verification

    set_plan_verification(True)         # as under the test suite
    entries = record_all()
    # one entry per line: a change shows up as one changed line per entry
    CORPUS.write_text('{"entries": [\n'
                      + ",\n".join(json.dumps(e) for e in entries)
                      + "\n]}\n")
    print(f"wrote {len(entries)} entries to {CORPUS}")

"""Differential testing against SQLite: an oracle outside the system.

Every other equivalence suite compares the system with itself (serial vs
parallel, index vs scan), so a bug shared by every variant passes them
all.  Here stdlib ``sqlite3`` — a real, independent relational engine —
answers the same queries over the same data, playing the role the
paper's §V-A gives real systems: the common ground for evaluating
alternative approaches.

One seeded data set is loaded once per module into both the system
(2 nodes x 2 partitions) and an in-memory SQLite database, using the
``tools/bench_runner.py`` schema with ``age`` and ``authorId`` made
nullable (about 20% nulls).  A hypothesis generator builds each query as
a small spec and renders it twice, once as SQL++ and once as SQL:

* filters: comparisons (column vs constant, column vs column) combined
  with AND/OR — three-valued logic over the nullable columns;
* an inner join on a nullable key (``m.authorId = u.id`` or
  ``m.authorId = u.age``, nulls on both sides);
* GROUP BY (the SQL++ ``AS`` alias) or a global aggregate, with
  COUNT(*)/COUNT/SUM/MIN/MAX/AVG — including null group keys and
  all-null groups;
* ORDER BY ASC/DESC (null placement included), and LIMIT only under a
  total ORDER BY.

Results compare as multisets unless the query has a total ORDER BY, in
which case they compare as lists.  Out of scope: MISSING (SQL has no
such value), integer division (the languages disagree by design), and
open-type fields.
"""

from __future__ import annotations

import random
import sqlite3
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, connect
from repro.common.config import NodeConfig

SQLPP_SCHEMA = """
CREATE TYPE UserType AS { id: int, alias: string, age: int? };
CREATE TYPE MessageType AS { messageId: int, authorId: int?,
                             message: string };
CREATE DATASET Users(UserType) PRIMARY KEY id;
CREATE DATASET Messages(MessageType) PRIMARY KEY messageId;
CREATE INDEX byAge ON Users(age);
"""

SQL_SCHEMA = """
CREATE TABLE Users (id INTEGER PRIMARY KEY, alias TEXT, age INTEGER);
CREATE TABLE Messages (messageId INTEGER PRIMARY KEY, authorId INTEGER,
                       message TEXT);
"""

N_USERS = 60
N_MESSAGES = 240
NULL_SHARE = 0.2


def make_rows(seed: int = 2019):
    rng = random.Random(seed)

    def maybe_null(value):
        return None if rng.random() < NULL_SHARE else value

    users = [{"id": i, "alias": f"u{i}",
              "age": maybe_null(18 + rng.randrange(40))}
             for i in range(N_USERS)]
    messages = [{"messageId": i,
                 "authorId": maybe_null(rng.randrange(N_USERS + 10)),
                 "message": f"msg-{i} " + "x" * (i % 7)}
                for i in range(N_MESSAGES)]
    return users, messages


@pytest.fixture(scope="module")
def engines(tmp_path_factory):
    users, messages = make_rows()
    lite = sqlite3.connect(":memory:")
    lite.executescript(SQL_SCHEMA)
    lite.executemany("INSERT INTO Users VALUES (:id, :alias, :age)", users)
    lite.executemany(
        "INSERT INTO Messages VALUES (:messageId, :authorId, :message)",
        messages)
    config = ClusterConfig(num_nodes=2, partitions_per_node=2,
                           node=NodeConfig(buffer_cache_pages=256))
    with connect(str(tmp_path_factory.mktemp("differential")),
                 config) as db:
        db.execute(SQLPP_SCHEMA)
        for record in users:
            db.cluster.insert_record("Default.Users", record)
        for record in messages:
            db.cluster.insert_record("Default.Messages", record)
        db.flush_dataset("Users")
        db.flush_dataset("Messages")
        yield db, lite
    lite.close()


# --- the query generator -------------------------------------------------------

INT_COLUMNS = {"u": ["u.id", "u.age"], "m": ["m.messageId", "m.authorId"]}
STR_COLUMNS = {"u": ["u.alias"], "m": ["m.message"]}
PRIMARY_KEYS = {"u": "u.id", "m": "m.messageId"}
JOINS = ["m.authorId = u.id", "m.authorId = u.age"]
COMPARISONS = ["=", "!=", "<", "<=", ">", ">="]


@dataclass
class Query:
    aliases: tuple              # table aliases in scope: ("u",) or ("u", "m")
    join: str | None            # ON condition when joining Messages
    where: str | None           # predicate text (identical in both languages)
    select: list                # [(output name, expression)]
    group: str | None           # GROUP BY expression (None: no GROUP BY)
    aggregates: list            # [(output name, aggregate call)]
    order: list                 # [(expression, descending)]
    total: bool                 # the ORDER BY determines the row order
    limit: int | None

    def _from(self) -> str:
        text = "FROM Users u"
        if self.join is not None:
            text += f" JOIN Messages m ON {self.join}"
        if self.where is not None:
            text += f" WHERE {self.where}"
        return text

    def _tail(self, group_alias: str) -> str:
        text = ""
        if self.order:
            keys = [(group_alias if self.group is not None else expr)
                    + (" DESC" if desc else " ASC")
                    for expr, desc in self.order]
            text += " ORDER BY " + ", ".join(keys)
        if self.limit is not None:
            text += f" LIMIT {self.limit}"
        return text

    def columns(self) -> list:
        return [name for name, _ in self.select + self.aggregates]

    def render_sqlpp(self) -> str:
        if self.group is not None:
            items = ["g AS g"] + [f"{call} AS {name}"
                                  for name, call in self.aggregates]
            return (f"SELECT {', '.join(items)} {self._from()} "
                    f"GROUP BY {self.group} AS g{self._tail('g')};")
        items = [f"{expr} AS {name}" for name, expr in self.select]
        items += [f"{call} AS {name}" for name, call in self.aggregates]
        return f"SELECT {', '.join(items)} {self._from()}{self._tail('')};"

    def render_sql(self) -> str:
        items = [f"{expr} AS {name}" for name, expr in self.select]
        items += [f"{call} AS {name}" for name, call in self.aggregates]
        group = f" GROUP BY {self.group}" if self.group is not None else ""
        return (f"SELECT {', '.join(items)} {self._from()}{group}"
                f"{self._tail('g')}")


@st.composite
def atoms(draw, aliases):
    alias = draw(st.sampled_from(aliases))
    if draw(st.integers(0, 5)) == 0:
        column = draw(st.sampled_from(STR_COLUMNS[alias]))
        prefix = "u" if alias == "u" else "msg-"
        value = f"'{prefix}{draw(st.integers(0, N_MESSAGES))}'"
        return f"{column} {draw(st.sampled_from(COMPARISONS))} {value}"
    column = draw(st.sampled_from(INT_COLUMNS[alias]))
    op = draw(st.sampled_from(COMPARISONS))
    if draw(st.booleans()):
        other = draw(st.sampled_from(
            [c for a in aliases for c in INT_COLUMNS[a]]))
        return f"{column} {op} {other}"
    return f"{column} {op} {draw(st.integers(0, 70))}"


@st.composite
def predicates(draw, aliases, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(atoms(aliases))
    left = draw(predicates(aliases, depth - 1))
    right = draw(predicates(aliases, depth - 1))
    return f"({left} {draw(st.sampled_from(['AND', 'OR']))} {right})"


@st.composite
def queries(draw):
    join = draw(st.one_of(st.none(), st.sampled_from(JOINS)))
    aliases = ("u",) if join is None else ("u", "m")
    where = draw(st.one_of(st.none(), predicates(aliases)))
    every_column = [c for a in aliases
                    for c in INT_COLUMNS[a] + STR_COLUMNS[a]]
    ints = [c for a in aliases for c in INT_COLUMNS[a]]
    shape = draw(st.sampled_from(["select", "group", "global"]))
    select, aggregates, group, order = [], [], None, []
    total, limit = False, None
    if shape == "select":
        picked = draw(st.lists(st.sampled_from(every_column), min_size=1,
                               max_size=3, unique=True))
        select = [(f"c{i}", expr) for i, expr in enumerate(picked)]
        order = draw(st.lists(
            st.tuples(st.sampled_from(every_column), st.booleans()),
            max_size=2, unique_by=lambda key: key[0]))
        if order and draw(st.booleans()):
            # append every primary key still missing: a total order
            keyed = {expr for expr, _ in order}
            order += [(PRIMARY_KEYS[a], draw(st.booleans()))
                      for a in aliases if PRIMARY_KEYS[a] not in keyed]
            total = True
    else:
        calls = (["COUNT(*)"]
                 + [f"COUNT({c})" for c in every_column]
                 + [f"{fn}({c})" for fn in ("SUM", "AVG") for c in ints]
                 + [f"{fn}({c})" for fn in ("MIN", "MAX")
                    for c in every_column])
        picked = draw(st.lists(st.sampled_from(calls), min_size=1,
                               max_size=3, unique=True))
        aggregates = [(f"a{i}", call) for i, call in enumerate(picked)]
        if shape == "group":
            group = draw(st.sampled_from(every_column))
            select = [("g", group)]
            if draw(st.booleans()):
                # one row per group key: ordering by it is total
                order = [(group, draw(st.booleans()))]
                total = True
        else:
            total = True              # exactly one row
    if total and shape != "global" and draw(st.booleans()):
        limit = draw(st.integers(1, 15))
    return Query(aliases, join, where, select, group, aggregates, order,
                 total, limit)


def run_both(engines, query: Query):
    db, lite = engines
    columns = query.columns()
    ours = [tuple(row[name] for name in columns)
            for row in db.query(query.render_sqlpp())]
    theirs = [tuple(row) for row in lite.execute(query.render_sql())]
    return ours, theirs


def assert_same_answer(engines, query: Query):
    ours, theirs = run_both(engines, query)
    context = f"\nSQL++: {query.render_sqlpp()}\nSQL:   {query.render_sql()}"
    if query.total:
        assert ours == theirs, context
    else:
        assert Counter(ours) == Counter(theirs), context


# --- the tests -------------------------------------------------------------------

class TestHandWritten:
    """Fixed probes of the corners the generator covers at random."""

    QUERIES = [
        # null group keys sort first ASC, last DESC; all-null groups
        Query(("u",), None, None, [("g", "u.age")], "u.age",
              [("a0", "COUNT(*)"), ("a1", "COUNT(u.age)"),
               ("a2", "SUM(u.age)"), ("a3", "AVG(u.age)")],
              [("u.age", True)], True, None),
        # DESC null placement with a LIMIT under a total order
        Query(("u",), None, None, [("c0", "u.age"), ("c1", "u.id")], None,
              [], [("u.age", True), ("u.id", False)], True, 12),
        # join on a key that is null on both sides
        Query(("u", "m"), "m.authorId = u.age", "u.id < 30",
              [("c0", "u.id"), ("c1", "m.messageId")], None, [], [],
              False, None),
        # MIN/MAX/COUNT/SUM over an all-null column after a filter
        Query(("u",), None, "u.age > 1000", [], None,
              [("a0", "COUNT(*)"), ("a1", "MIN(u.age)"),
               ("a2", "SUM(u.age)")], [], True, None),
    ]

    @pytest.mark.parametrize("index", range(len(QUERIES)))
    def test_probe(self, engines, index):
        assert_same_answer(engines, self.QUERIES[index])

    def test_data_has_nulls_and_unmatched_keys(self, engines):
        _, lite = engines
        (null_ages,), = lite.execute(
            "SELECT COUNT(*) FROM Users WHERE age IS NULL")
        (null_authors,), = lite.execute(
            "SELECT COUNT(*) FROM Messages WHERE authorId IS NULL")
        assert 0.1 * N_USERS < null_ages < 0.3 * N_USERS
        assert 0.1 * N_MESSAGES < null_authors < 0.3 * N_MESSAGES


class TestGenerated:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(query=queries())
    def test_same_answer_as_sqlite(self, engines, query):
        assert_same_answer(engines, query)

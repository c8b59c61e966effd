"""Unit tests for the runtime expression IR.

Every expression is compiled (``compile_expr(e)(tup, env)``) — the only
way the runtime evaluates one — and checked against values written out
by hand: those are the oracle.
"""

import pytest

from repro.adm import MISSING, Multiset
from repro.common.errors import CompilationError
from repro.hyracks.expressions import (
    CaseExpr,
    CollectionConstructor,
    ColumnRef,
    Comprehension,
    Const,
    FunctionCall,
    ObjectConstructor,
    Quantified,
    VarRef,
    compile_expr,
    compile_predicate,
)


def ev(expr, tup=(), env=None):
    return compile_expr(expr)(tup, env)


class TestBasics:
    def test_const_and_column(self):
        assert ev(Const(42), ()) == 42
        assert ev(ColumnRef(1), (10, 20)) == 20

    def test_var_ref_env(self):
        assert ev(VarRef("x"), (), {"x": 7}) == 7

    def test_unbound_var_raises(self):
        with pytest.raises(CompilationError, match="unbound"):
            ev(VarRef("x"), (), {})

    def test_function_call(self):
        e = FunctionCall("numeric_add", [ColumnRef(0), Const(5)])
        assert ev(e, (10,)) == 15

    def test_bad_arity_at_construction(self):
        with pytest.raises(CompilationError):
            FunctionCall("abs", [Const(1), Const(2)])

    def test_unknown_propagation(self):
        e = FunctionCall("numeric_add", [ColumnRef(0), Const(1)])
        assert ev(e, (MISSING,)) is MISSING
        assert ev(e, (None,)) is None

    def test_columns_collection(self):
        e = FunctionCall("numeric_add", [
            ColumnRef(0),
            FunctionCall("numeric_multiply", [ColumnRef(2), Const(2)]),
        ])
        assert e.columns() == {0, 2}


class TestQuantified:
    def q(self, some=True):
        return Quantified(
            some, "f", ColumnRef(0),
            FunctionCall("gt", [VarRef("f"), Const(10)]),
        )

    def test_some_true(self):
        assert ev(self.q(), ([5, 20],)) is True

    def test_some_false(self):
        assert ev(self.q(), ([1, 2],)) is False

    def test_some_empty_is_false(self):
        assert ev(self.q(), ([],)) is False

    def test_every_empty_is_true(self):
        assert ev(self.q(some=False), ([],)) is True

    def test_every(self):
        assert ev(self.q(some=False), ([11, 12],)) is True
        assert ev(self.q(some=False), ([11, 2],)) is False

    def test_non_collection_is_null(self):
        assert ev(self.q(), (42,)) is None

    def test_missing_propagates(self):
        assert ev(self.q(), (MISSING,)) is MISSING


class TestConstructors:
    def test_object_drops_missing(self):
        e = ObjectConstructor([
            (Const("a"), ColumnRef(0)),
            (Const("b"), ColumnRef(1)),
        ])
        assert ev(e, (1, MISSING)) == {"a": 1}

    def test_object_null_name_skipped(self):
        e = ObjectConstructor([(Const(None), Const(1)),
                               (Const("k"), Const(2))])
        assert ev(e) == {"k": 2}

    def test_collection_multiset(self):
        e = CollectionConstructor([Const(1), Const(2)], multiset=True)
        out = ev(e)
        assert isinstance(out, Multiset) and out == Multiset([1, 2])

    def test_case(self):
        e = CaseExpr(
            [(FunctionCall("gt", [ColumnRef(0), Const(0)]), Const("pos"))],
            Const("nonpos"),
        )
        assert ev(e, (5,)) == "pos"
        assert ev(e, (-5,)) == "nonpos"
        assert ev(e, (None,)) == "nonpos"   # unknown cond != True


class TestComprehension:
    def test_map_filter(self):
        e = Comprehension(
            "x", ColumnRef(0),
            FunctionCall("gt", [VarRef("x"), Const(1)]),
            FunctionCall("numeric_multiply", [VarRef("x"), Const(10)]),
        )
        assert ev(e, ([1, 2, 3],)) == [20, 30]

    def test_nested_flattens(self):
        inner = Comprehension("y", VarRef("x"), None, VarRef("y"))
        outer = Comprehension("x", ColumnRef(0), None, inner)
        assert ev(outer, ([[1, 2], [3]],)) == [1, 2, 3]

    def test_null_missing(self):
        e = Comprehension("x", ColumnRef(0), None, VarRef("x"))
        assert ev(e, (None,)) is None
        assert ev(e, (MISSING,)) is MISSING

    def test_scalar_source_iterates_once(self):
        e = Comprehension("x", ColumnRef(0), None, VarRef("x"))
        assert ev(e, (7,)) == [7]


class TestPredicateSemantics:
    def test_only_true_passes(self):
        assert compile_predicate(Const(True))(()) is True
        for value in (False, None, MISSING, 1, "true"):
            assert compile_predicate(Const(value))(()) is False


T, F, N, M = True, False, None, MISSING


class TestFunctionSemantics:
    """Explicit values for every call shape the compiler specializes:
    column/column and constant operands of binary calls, unary calls,
    and n-ary calls."""

    @staticmethod
    def binary(name, a, b):
        by_column = ev(FunctionCall(name, [ColumnRef(0), ColumnRef(1)]),
                       (a, b))
        by_const = ev(FunctionCall(name, [Const(a), Const(b)]))
        mixed = ev(FunctionCall(name, [ColumnRef(0), Const(b)]), (a,))
        assert by_column is by_const or by_column == by_const
        assert mixed is by_const or mixed == by_const
        return by_const

    def test_three_valued_and(self):
        # a list, not a dict: (1, T) and (T, T) are equal dict keys
        cases = [(T, T, T), (T, F, F), (F, N, F), (N, F, F), (M, F, F),
                 (T, N, N), (T, M, N), (N, M, N), (M, M, N), (1, T, N)]
        for a, b, want in cases:
            assert self.binary("and", a, b) is want, (a, b)

    def test_three_valued_or(self):
        cases = [(F, F, F), (T, F, T), (N, T, T), (M, T, T), (F, N, N),
                 (F, M, N), (M, N, N), (1, F, N)]
        for a, b, want in cases:
            assert self.binary("or", a, b) is want, (a, b)

    def test_comparisons(self):
        cases = [("eq", 1, 1.0, T), ("lt", 1, 2.5, T), ("gt", "b", "a", T),
                 ("ge", 2, 2, T), ("neq", "a", "a", F),
                 # incomparable types compare to null
                 ("eq", 1, "1", N), ("eq", 1, True, N), ("lt", [1], 2, N),
                 # MISSING beats null whichever side it is on
                 ("lt", N, M, M), ("lt", M, N, M), ("eq", N, 1, N)]
        for name, a, b, want in cases:
            assert self.binary(name, a, b) is want, (name, a, b)

    def test_deep_equal(self):
        assert self.binary("deep_equal", [1, 2], [1, 2]) is T
        assert self.binary("deep_equal", 1, "1") is F
        assert self.binary("deep_equal", N, N) is N

    def test_unary_functions(self):
        expected = {  # function -> values for (T, N, M, 1, "a")
            "not": (F, N, M, N, N),
            "is_null": (F, T, F, F, F),
            "is_missing": (F, F, T, F, F),
            "is_unknown": (F, T, T, F, F),
            "is_boolean": (T, N, M, F, F),
            "is_number": (F, N, M, T, F),
            "is_string": (F, N, M, F, T),
        }
        for name, wants in expected.items():
            for value, want in zip((T, N, M, 1, "a"), wants):
                assert ev(FunctionCall(name, [ColumnRef(0)]), (value,)) \
                    is want, (name, value)

    def test_nary_unknowns(self):
        def between(*args):
            return ev(FunctionCall("between", [Const(a) for a in args]))
        assert between(5, 1, 10) is T
        assert between(0, 1, 10) is F
        assert between(5, N, 10) is N
        assert between(N, 1, M) is M

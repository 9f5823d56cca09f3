"""Unit and property tests for algebraic simplification."""

from hypothesis import given, settings

from repro.boolean.bdd import BddManager
from repro.boolean.expr import and_, not_, or_, var
from repro.boolean.simplify import simplify
from tests.test_expr import envs, exprs


class TestSimplifyRules:
    def test_absorption_or(self):
        a, b = var("a"), var("b")
        assert simplify(or_(a, and_(a, b))) == a

    def test_absorption_and(self):
        a, b = var("a"), var("b")
        assert simplify(and_(a, or_(a, b))) == a

    def test_subsumption(self):
        a, b, c = var("a"), var("b"), var("c")
        e = or_(and_(a, b), and_(a, b, c))
        assert simplify(e) == and_(a, b)

    def test_duplicate_terms_collapse_to_product(self):
        # Both OR terms simplify to c·a; the OR dedups to an AND node,
        # which must not then be treated as an OR (was c + a).
        a, b, c = var("a"), var("b"), var("c")
        e = or_(and_(c, a), and_(c, a, or_(a, b)))
        assert simplify(e) == and_(c, a)

    def test_unit_propagation_in_and(self):
        a, b = var("a"), var("b")
        # a * (a + b) -> a ; a * (!a + b) -> a*b
        assert simplify(and_(a, or_(not_(a), b))) == and_(a, b)

    def test_unit_propagation_in_or(self):
        a, b = var("a"), var("b")
        # a + (!a * b) -> a + b
        assert simplify(or_(a, and_(not_(a), b))) == or_(a, b)

    def test_already_simple_untouched(self):
        e = or_(and_(var("S2"), var("G1")), and_(not_(var("S0")), var("S1"), var("G0")))
        assert simplify(e) == e

    def test_literal_count_never_increases_on_examples(self):
        cases = [
            or_(var("a"), and_(var("a"), var("b"), var("c"))),
            and_(var("a"), var("a"), or_(var("b"), var("b"))),
            or_(and_(var("a"), var("b")), and_(var("b"), var("a"))),
        ]
        for e in cases:
            assert simplify(e).literal_count() <= e.literal_count()


class TestSimplifyProperties:
    @settings(max_examples=300, deadline=None)
    @given(e=exprs(), env=envs())
    def test_preserves_semantics_pointwise(self, e, env):
        assert simplify(e).evaluate(env) == e.evaluate(env)

    @settings(max_examples=150, deadline=None)
    @given(e=exprs())
    def test_preserves_function_canonically(self, e):
        manager = BddManager()
        assert manager.equivalent(e, simplify(e))

    @settings(max_examples=150, deadline=None)
    @given(e=exprs())
    def test_idempotent(self, e):
        once = simplify(e)
        assert simplify(once) == once

    @settings(max_examples=150, deadline=None)
    @given(e=exprs())
    def test_never_grows(self, e):
        assert simplify(e).literal_count() <= e.literal_count()

"""Algebraic simplification of Boolean expressions.

The smart constructors in :mod:`repro.boolean.expr` already fold constants
and flatten; :func:`simplify` adds the classic factored-form cleanups that
matter for activation-logic area:

* **absorption** — ``x + x·y = x`` and ``x·(x + y) = x``;
* **subsumption between terms** — a term of an OR that implies another
  term is dropped (``a·b + a·b·c = a·b``); dual for AND;
* **single-literal unit simplification** — inside ``x·f``, occurrences of
  ``x`` in ``f`` are replaced by 1 (and ``x̄`` by 0); dual for OR.

The routine runs to a fixed point. It is deliberately not a full
minimiser (the paper only assumes a factored form); BDD-based checks in
:mod:`repro.boolean.bdd` guarantee we never change the function.
"""

from __future__ import annotations

from typing import FrozenSet, Set, Tuple

from repro.boolean.expr import And, Const, Expr, Not, Or, Var, and_, not_, or_


def _literals(term: Expr) -> FrozenSet[Expr]:
    """The literal factors of a product term (or the term itself)."""
    if isinstance(term, And):
        return frozenset(term.args)
    return frozenset((term,))


def _drop_subsumed(args: Tuple[Expr, ...], outer_is_or: bool) -> Tuple[Expr, ...]:
    """Remove OR terms subsumed by shorter ones (dually for AND).

    In an OR, term T1 subsumes T2 when literals(T1) ⊆ literals(T2): then
    T2 is redundant. In an AND the subset relation keeps the *larger*
    factor... dually, a factor whose literal set is a superset of another
    factor's is the redundant one as well, so the same rule applies.
    """
    literal_sets = [_literals(arg) for arg in args]
    keep = []
    for i, arg in enumerate(args):
        subsumed = False
        for j, other in enumerate(args):
            if i == j:
                continue
            if literal_sets[j] < literal_sets[i]:
                subsumed = True
                break
            if literal_sets[j] == literal_sets[i] and j < i:
                subsumed = True
                break
        if not subsumed:
            keep.append(arg)
    return tuple(keep)


def _propagate_literal(expr: Expr, literal: Expr, value: bool) -> Expr:
    """Replace occurrences of ``literal`` in ``expr`` by ``value``.

    Handles positive and negative literals (``x`` / ``x̄``).
    """
    if expr == literal:
        from repro.boolean.expr import FALSE, TRUE

        return TRUE if value else FALSE
    if isinstance(expr, Not) and expr.child == literal:
        from repro.boolean.expr import FALSE, TRUE

        return FALSE if value else TRUE
    if isinstance(expr, And):
        return and_(*(_propagate_literal(a, literal, value) for a in expr.args))
    if isinstance(expr, Or):
        return or_(*(_propagate_literal(a, literal, value) for a in expr.args))
    if isinstance(expr, Not):
        return not_(_propagate_literal(expr.child, literal, value))
    return expr


def _is_literal(expr: Expr) -> bool:
    return isinstance(expr, Var) or (isinstance(expr, Not) and isinstance(expr.child, Var))


def _simplify_once(expr: Expr) -> Expr:
    if isinstance(expr, (Const, Var)):
        return expr
    if isinstance(expr, Not):
        return not_(_simplify_once(expr.child))
    if isinstance(expr, (And, Or)):
        args = tuple(_simplify_once(a) for a in expr.args)
        rebuilt = or_(*args) if isinstance(expr, Or) else and_(*args)
        if not isinstance(rebuilt, (And, Or)):
            return rebuilt
        # The constructor may collapse to the other operator (``x·y + x·y``
        # dedups to the product ``x·y``), so the rules below follow the
        # rebuilt node, not the original one.
        is_or = isinstance(rebuilt, Or)
        args = _drop_subsumed(rebuilt.args, is_or)
        # Unit propagation: literal factors fix their value inside siblings.
        unit_literals = [a for a in args if _is_literal(a)]
        if unit_literals:
            fixed_value = not is_or  # x·f -> x is 1 inside f; x + f -> x is 0
            new_args = []
            for arg in args:
                if _is_literal(arg):
                    new_args.append(arg)
                    continue
                for lit in unit_literals:
                    base = lit.child if isinstance(lit, Not) else lit
                    positive = not isinstance(lit, Not)
                    arg = _propagate_literal(arg, base, positive == fixed_value)
                new_args.append(arg)
            args = tuple(new_args)
        return or_(*args) if is_or else and_(*args)
    return expr


def simplify(expr: Expr, max_passes: int = 8) -> Expr:
    """Simplify ``expr`` to a fixed point (bounded by ``max_passes``)."""
    current = expr
    for _ in range(max_passes):
        reduced = _simplify_once(current)
        if reduced == current:
            return reduced
        current = reduced
    return current

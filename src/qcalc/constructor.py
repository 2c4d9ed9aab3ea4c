"""Generators for slot-level constructions: expressions that mark one
chosen slot of an arbitrary tuple, and expressions realizing an arbitrary
slot permutation (optionally with marks).

Both constructions juxtapose single-mark selector factors of the shape
`[ <operator applied to X> <interference pattern> ]`: the interference
pattern blocks every slot except the target, the operator routes the
wanted source slot there, and the operator's sign is chosen so that the
outer mark either cancels (plain output) or survives (marked output).
Each selector's operator is read off the operators' signed permutations
in ``kernel``.
"""

from __future__ import annotations

from .kernel import Q8Op, QValue, SignedPerm, q8_to_signed_perm
from .semantics import evaluate
from .textio import (
    Expr,
    Mark,
    Power,
    Tuple4,
    Var,
    juxt,
    mark,
    parse,
    substitute,
)
from .verifier import check_equiv

# Interference patterns: juxtapositions of empty marks that block every
# slot except one.
_PATTERN_TEXTS = {
    "IJ": "[]i []j",
    "IK": "[]i []k",
    "JK": "[]j []k",
    "I3J3": "[]i^3 []j^3",
}

INTERFERENCE_NAMES = tuple(_PATTERN_TEXTS)

# Blocker leaving slot t open, per target slot.
_BLOCKER_FOR_SLOT = {1: "I3J3", 2: "IK", 3: "IJ", 4: "JK"}


def interference_expr(name: str) -> Expr:
    if name not in _PATTERN_TEXTS:
        raise KeyError(
            f"unknown interference pattern {name!r}; one of {INTERFERENCE_NAMES}"
        )
    return parse(_PATTERN_TEXTS[name])


def interference(name: str) -> QValue:
    """Value of a named interference pattern."""
    return evaluate(interference_expr(name), {})


def selector_op(target: int, source: int, marked: bool = False) -> Q8Op:
    """The operator routing `source` into `target` whose mark flag there is
    opposite to the requested output flag, so that the selector's outer
    mark turns it into that flag."""
    for g in Q8Op:
        perm = q8_to_signed_perm(g)
        if perm.target[target - 1] == source and perm.marked[target - 1] != marked:
            return g
    raise ValueError(f"no operator routes slot {source} into slot {target}")


def op_form(g: Q8Op, body: Expr) -> Expr:
    """Canonical expression for an operator applied to a body."""
    if g is Q8Op.P1:
        return body
    if g is Q8Op.M1:
        return mark(body)
    if not g.negated:
        return Mark(g.axis, body)
    return Power(g.axis, body, 3)


def spec_tuple(p: SignedPerm) -> Expr:
    """Tuple literal over a,b,c,d specifying the result of p: output slot
    t is source letter p.target[t-1], marked when p.marked[t-1] is set."""
    slots = (Var("abcd"[s - 1]) for s in p.target)
    return Tuple4(tuple(mark(v) if m else v for v, m in zip(slots, p.marked)))


def _selector_factor(target: int, source: int, marked: bool, x: Expr) -> Expr:
    blocker = interference_expr(_BLOCKER_FOR_SLOT[target])
    g = selector_op(target, source, marked)
    return mark(juxt(op_form(g, x), blocker))


def mark_slot(x: int) -> Expr:
    """An expression in X whose value is X's value with slot x marked; for
    x=3 this is structurally the two-factor interference construction over
    the IJ pattern."""
    if x not in (1, 2, 3, 4):
        raise ValueError("slot index must be 1..4")
    X = Var("X")
    blocker = interference_expr(_BLOCKER_FOR_SLOT[x])
    return juxt(
        mark(juxt(X, blocker)),
        mark(juxt(mark(X), mark(blocker))),
    )


def permute_expr(p: SignedPerm) -> Expr:
    """An expression in X realizing the arity-4 signed permutation p: one
    selector factor per target slot, juxtaposed."""
    if p.arity != 4:
        raise ValueError("permute_expr needs arity 4")
    X = Var("X")
    return juxt(
        *(
            _selector_factor(t, source, marked, X)
            for t, source, marked in zip((1, 2, 3, 4), p.target, p.marked)
        )
    )


def verify_construction(e: Expr, p: SignedPerm):
    """check_equiv the construction against its tuple-literal spec with X
    instantiated to the generic tuple."""
    generic = parse("{a, b, c, d}")
    return check_equiv(substitute(e, {"X": generic}), spec_tuple(p))

"""Generators for slot-level constructions: expressions that mark one
chosen slot of an arbitrary tuple, and expressions realizing an arbitrary
slot permutation (optionally with marks).

Both constructions juxtapose single-mark selector factors of the shape
`[ <operator applied to X> <interference pattern> ]`: the interference
pattern blocks every slot except the target, the operator routes the
wanted source slot there, and the operator's sign is chosen so that the
outer mark either cancels (plain output) or survives (marked output).
The selector table is frozen below; a test re-derives it by brute force
over the eight operator forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .kernel import Q8Op, QValue, q8_mul
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


# Selector operators for unmarked output: entry (target, source) is the
# operator whose action feeds source into target *with* a mark, so that
# the selector's outer mark cancels it.  For marked output use the
# negated operator.
_SELECTOR_UNMARKED: dict[tuple[int, int], Q8Op] = {
    (1, 1): Q8Op.M1, (1, 2): Q8Op.I, (1, 3): Q8Op.J, (1, 4): Q8Op.K,
    (2, 1): Q8Op.MI, (2, 2): Q8Op.M1, (2, 3): Q8Op.MK, (2, 4): Q8Op.J,
    (3, 1): Q8Op.MJ, (3, 2): Q8Op.K, (3, 3): Q8Op.M1, (3, 4): Q8Op.MI,
    (4, 1): Q8Op.MK, (4, 2): Q8Op.MJ, (4, 3): Q8Op.I, (4, 4): Q8Op.M1,
}


def selector_op(target: int, source: int, marked: bool = False) -> Q8Op:
    """The operator routing `source` into `target` whose mark flag there is
    opposite to the requested output flag."""
    g = _SELECTOR_UNMARKED[(target, source)]
    return q8_mul(g, Q8Op.M1) if marked else g


def op_form(g: Q8Op, body: Expr) -> Expr:
    """Canonical expression for an operator applied to a body."""
    if g is Q8Op.P1:
        return body
    if g is Q8Op.M1:
        return mark(body)
    if not g.negated:
        return Mark(g.axis, body)
    return Power(g.axis, body, 3)


@dataclass(frozen=True)
class SlotPermutation:
    """Target layout: output slot t takes source slot source[t-1], marked
    when marks[t-1] is set."""

    source: tuple[int, int, int, int]
    marks: tuple[bool, bool, bool, bool] = (False, False, False, False)

    def __post_init__(self) -> None:
        if sorted(self.source) != [1, 2, 3, 4]:
            raise ValueError(f"not a permutation of 1..4: {self.source}")

    def act(self, v: QValue) -> QValue:
        slots = v.slots
        return QValue.from_slots(
            *(slots[s - 1] ^ m for s, m in zip(self.source, self.marks))
        )

    def spec_tuple(self) -> Expr:
        """Tuple literal over a,b,c,d specifying the intended result."""
        letters = "abcd"
        slots: list[Expr] = []
        for s, m in zip(self.source, self.marks):
            slot: Expr = Var(letters[s - 1])
            if m:
                slot = mark(slot)
            slots.append(slot)
        return Tuple4(tuple(slots))

    def compose(self, inner: "SlotPermutation") -> "SlotPermutation":
        """The permutation acting as inner first, then self."""
        source = tuple(inner.source[s - 1] for s in self.source)
        marks = tuple(
            m ^ inner.marks[s - 1] for s, m in zip(self.source, self.marks)
        )
        return SlotPermutation(source, marks)


def _selector_factor(target: int, source: int, marked: bool, x: Expr) -> Expr:
    blocker = interference_expr(_BLOCKER_FOR_SLOT[target])
    g = selector_op(target, source, marked)
    return mark(juxt(op_form(g, x), blocker))


def mark_slot(x: int, var: str = "X") -> Expr:
    """An expression with one free variable whose value is the variable's
    value with slot x marked; for x=3 this is structurally the two-factor
    interference construction over the IJ pattern."""
    if x not in (1, 2, 3, 4):
        raise ValueError("slot index must be 1..4")
    X = Var(var)
    blocker = interference_expr(_BLOCKER_FOR_SLOT[x])
    return juxt(
        mark(juxt(X, blocker)),
        mark(juxt(mark(X), mark(blocker))),
    )


def permute_expr(p: SlotPermutation | Sequence[int], var: str = "X") -> Expr:
    """An expression with one free variable realizing the given slot
    permutation (and optional per-slot marks): one selector factor per
    target slot, juxtaposed."""
    if not isinstance(p, SlotPermutation):
        p = SlotPermutation(tuple(p))
    X = Var(var)
    factors = [
        _selector_factor(t, p.source[t - 1], p.marks[t - 1], X)
        for t in (1, 2, 3, 4)
    ]
    return juxt(*factors)


def verify_construction(e: Expr, p: SlotPermutation, var: str = "X"):
    """check_equiv the construction against its tuple-literal spec with
    the free variable instantiated to the generic tuple."""
    generic = parse("{a, b, c, d}")
    return check_equiv(substitute(e, {var: generic}), p.spec_tuple())

"""Finite-domain evaluation: the four mark operators on 4-tuples,
tuple-wise juxtaposition, operator powers and exponent forms, the nine
logical connectives, and the 2-tuple pair mode.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Union

from .kernel import (
    IMAGINARY_SUBS,
    MARK_OPS,
    LoFValue,
    Packed,
    QValue,
    Record,
    op_of_value,
    q8_apply,
    q8_power,
)
from .textio import (
    PLAIN,
    ExpApply,
    Expr,
    Juxt,
    Mark,
    Power,
    Tuple4,
    Var,
    Void,
    juxt as juxt_expr,
    mark as mark_expr,
    power as power_expr,
    print_expr,
)

EnvValue = Union[QValue, bool]
Env = Mapping[str, EnvValue]


class EvalError(ValueError):
    pass


class UnboundVariable(EvalError):
    def __init__(self, name: str) -> None:
        super().__init__(f"unbound variable {name!r}")
        self.name = name


class BadBinding(EvalError):
    def __init__(self, name: str, expected: str, value: object) -> None:
        super().__init__(
            f"variable {name!r} must be bound to {expected}, got {value_text(value)}"
        )
        self.name = name


def value_text(value: object) -> str:
    """A bound value as ``--env`` writes it: its pattern, such as MUUM, or
    M or U for a slot value; anything else as its repr."""
    if isinstance(value, bool):
        return "M" if value else "U"
    if isinstance(value, Packed):
        return value.pattern()
    return repr(value)


class BadExponentValue(EvalError):
    """Exponent application with a value outside the eight operator values."""

    def __init__(self, value: QValue) -> None:
        super().__init__(
            f"exponent value {value.pattern()} is not an operator value"
        )
        self.value = value


def apply_op(sub: str, v: QValue) -> QValue:
    """One mark application: plain marks every slot, i/j/k route and mark
    slots as ([b],a,d,[c]), ([c],[d],a,b) and ([d],c,[b],a) respectively."""
    return q8_apply(MARK_OPS[sub], v)


def apply_op_power(sub: str, v: QValue, n: int) -> QValue:
    """sub applied n times; reduces mod 4 (plain has order 2, i/j/k order 4)."""
    return q8_apply(q8_power(MARK_OPS[sub], n), v)


def juxtapose(v: QValue, w: QValue) -> QValue:
    """Tuple-wise juxtaposition: a slot is marked if either side's slot is."""
    return QValue(v.bits | w.bits)


def _lof_eval(e: Expr, env: Env) -> LoFValue:
    if isinstance(e, Void):
        return False
    if isinstance(e, Var):
        if e.name not in env:
            raise UnboundVariable(e.name)
        val = env[e.name]
        if not isinstance(val, bool):
            raise BadBinding(e.name, "an LoF value (slot variable)", val)
        return val
    if isinstance(e, Mark):
        return not _lof_eval(e.body, env)
    if isinstance(e, Juxt):
        # |=, not or: every part is evaluated, so an unbound one still raises.
        out = False
        for p in e.parts:
            out |= _lof_eval(p, env)
        return out
    raise EvalError(f"not a plain-LoF expression: {print_expr(e)}")


def evaluate(e: Expr, env: Env | None = None) -> QValue:
    """Evaluate an expression to one of the 16 values.

    Variables inside tuple slots must be bound to LoF values, all other
    variables to QValues.  Exponent applications are defined only when the
    exponent evaluates to one of the eight empty-mark operator values.
    """
    env = env or {}
    if isinstance(e, Void):
        return QValue(0)
    if isinstance(e, Var):
        if e.name not in env:
            raise UnboundVariable(e.name)
        val = env[e.name]
        if not isinstance(val, QValue):
            raise BadBinding(e.name, "a QValue", val)
        return val
    if isinstance(e, Mark):
        return apply_op(e.sub, evaluate(e.body, env))
    if isinstance(e, Power):
        return apply_op_power(e.sub, evaluate(e.body, env), e.exponent)
    if isinstance(e, Juxt):
        bits = 0
        for p in e.parts:
            bits |= evaluate(p, env).bits
        return QValue(bits)
    if isinstance(e, Tuple4):
        return QValue.from_slots(*(_lof_eval(s, env) for s in e.slots))
    if isinstance(e, ExpApply):
        exp = evaluate(e.exponent, env)
        g = op_of_value(exp)
        if g is None:
            raise BadExponentValue(exp)
        return q8_apply(g, evaluate(e.base, env))
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Logical connectives
# ---------------------------------------------------------------------------

CONNECTIVES = ("or", "and", "or_i", "and_i", "or_j", "and_j", "or_k", "and_k")
ALL_CONNECTIVES = CONNECTIVES + ("xor",)


def connective(kind: str, a: Expr, b: Expr) -> Expr:
    """The defining expression tree of a connective applied to a and b.

    `or` is juxtaposition and `and` is [[A][B]]; the subscripted pairs use
    the cube-power forms, e.g. or_i(A,B) = [[A]i^3 [B]i^3]i.  `xor` is the
    exponent form [[A]B] [[B]A].
    """
    if kind == "or":
        return juxt_expr(a, b)
    if kind == "and":
        return mark_expr(juxt_expr(mark_expr(a), mark_expr(b)))
    if kind == "xor":
        return juxt_expr(
            mark_expr(juxt_expr(mark_expr(a), b)),
            mark_expr(juxt_expr(mark_expr(b), a)),
        )
    if kind.startswith("or_") and kind[3:] in IMAGINARY_SUBS:
        s = kind[3:]
        return mark_expr(
            juxt_expr(power_expr(s, a, 3), power_expr(s, b, 3)), s
        )
    if kind.startswith("and_") and kind[4:] in IMAGINARY_SUBS:
        s = kind[4:]
        return power_expr(
            s, juxt_expr(mark_expr(a, s), mark_expr(b, s)), 3
        )
    raise ValueError(f"unknown connective {kind!r}")


# ---------------------------------------------------------------------------
# Pair mode (2-tuples with a single imaginary mark)
# ---------------------------------------------------------------------------

class BFValue(Packed, Record):
    """A pair of LoF values; bit 1 is the first slot, bit 0 the second."""

    _width = 2
    _noun = "pair"


ALL_BFVALUES = tuple(BFValue(n) for n in range(4))

BF_TRUE = BFValue.from_pattern("UM")
BF_FALSE = BFValue.from_pattern("MU")


def bf_apply(sub: str, v: BFValue) -> BFValue:
    """Pair-mode marks: plain marks both slots, i sends (x,y) to ([y], x)."""
    x, y = v.slots
    if sub == PLAIN:
        return BFValue.from_slots(not x, not y)
    if sub == "i":
        return BFValue.from_slots(not y, x)
    raise EvalError(f"pair mode has no {sub!r} mark")


def bf_apply_power(sub: str, v: BFValue, n: int) -> BFValue:
    for _ in range(n % 4):
        v = bf_apply(sub, v)
    return v


BFEnv = Mapping[str, BFValue]


def bf_evaluate(e: Expr, env: BFEnv | None = None) -> BFValue:
    """Evaluate in pair mode; only plain and i marks are defined."""
    env = env or {}
    if isinstance(e, Void):
        return BFValue(0)
    if isinstance(e, Var):
        if e.name not in env:
            raise UnboundVariable(e.name)
        val = env[e.name]
        if not isinstance(val, BFValue):
            raise BadBinding(e.name, "a BFValue", val)
        return val
    if isinstance(e, Mark):
        return bf_apply(e.sub, bf_evaluate(e.body, env))
    if isinstance(e, Power):
        return bf_apply_power(e.sub, bf_evaluate(e.body, env), e.exponent)
    if isinstance(e, Juxt):
        bits = 0
        for p in e.parts:
            bits |= bf_evaluate(p, env).bits
        return BFValue(bits)
    raise EvalError(f"expression form not defined in pair mode: {print_expr(e)}")


# ---------------------------------------------------------------------------
# Embedding the four pair values into the i/j/k subspaces
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _embeddings() -> dict[str, dict[BFValue, QValue]]:
    """The injection of the 4 pair values into each subspace.

    The unmarked pair maps to the all-unmarked tuple and the pair i-mark
    intertwines with the subspace mark.  The i-orbit of the unmarked pair,
    UU -> MU -> MM -> UM, holds all four pair values, so these two
    constraints fix the table; walking the orbit builds it.  The plain mark
    must then intertwine with the plain mark, else AssertionError.
    """
    out: dict[str, dict[BFValue, QValue]] = {}
    for alpha in IMAGINARY_SUBS:
        phi: dict[BFValue, QValue] = {}
        v, w = BFValue(0), QValue(0)
        for _ in ALL_BFVALUES:
            phi[v] = w
            v, w = bf_apply("i", v), apply_op(alpha, w)
        ok = (
            len(phi) == len(set(phi.values())) == 4  # an injection of all four
            and phi[v] == w  # the orbit's last step intertwines too
            and all(
                phi[bf_apply(PLAIN, u)] == apply_op(PLAIN, phi[u]) for u in ALL_BFVALUES
            )
        )
        if not ok:
            raise AssertionError(f"no embedding of the pair values into {alpha}")
        out[alpha] = phi
    return out


def solve_bf_embeddings() -> dict[str, dict[str, str]]:
    """Each subspace's embedding as patterns, pair value to tuple value."""
    return {
        alpha: {u.pattern(): phi[u].pattern() for u in ALL_BFVALUES}
        for alpha, phi in _embeddings().items()
    }


def embed_bf(alpha: str, v: BFValue) -> QValue:
    """The injection of a pair value into the alpha subspace."""
    if alpha not in IMAGINARY_SUBS:
        raise ValueError(f"no {alpha!r} subspace")
    return _embeddings()[alpha][v]

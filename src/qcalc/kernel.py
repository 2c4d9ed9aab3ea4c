"""Core finite domain: two-state values, 4-tuples, the eight-element
operator group, and signed permutations.

Everything here is a small immutable value; the whole calculus lives on
16 tuple values, so tables are precomputed and exhaustive loops are the
normal way to verify anything.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, Sequence

# An LoF value is a plain bool: True = marked, False = unmarked.
LoFValue = bool
MARKED: LoFValue = True
UNMARKED: LoFValue = False


def lof_mark(v: LoFValue) -> LoFValue:
    """Crossing: the mark toggles the state; mark(mark(v)) == v."""
    return not v


def lof_juxt(v: LoFValue, w: LoFValue) -> LoFValue:
    """Calling/Integration: juxtaposition is marked if either side is."""
    return v or w


# Sets a field of a Record, past its frozen guard; for __init__ only.
_set = object.__setattr__


class Record:
    """An immutable record: the base of every value class in qcalc.

    A subclass declares its fields as annotations in its body, which
    ``_fields`` lists in order.  Equality (same class and equal field
    tuples), hashing (of the field tuple) and repr
    (``Name(field=value, ...)``) read that tuple, and assigning or deleting
    an attribute raises AttributeError.  The inherited ``__init__`` takes
    the fields by position or keyword; ``_defaults`` maps a field that may
    be left out to a function making its value, so each instance gets its
    own.  The values used in every evaluation (QValue, SignedPerm and the
    expression nodes) write ``__init__``, ``__eq__`` and ``__hash__`` out
    by hand with the same meaning, which is faster than these generic ones.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Callable[[], object]] = {}

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields += tuple(name for name in own if not name.startswith("_"))

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """The field values given by position, keyword or default."""
        name = type(self).__qualname__
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields or key in values:
                raise TypeError(f"{name} got an unexpected or repeated field {key!r}")
            values[key] = value
        for key in fields:
            if key not in values:
                if key not in self._defaults:
                    raise TypeError(f"{name} is missing field {key!r}")
                values[key] = self._defaults[key]()
        return tuple(values[key] for key in fields)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class QValue(Record):
    """A 4-tuple of LoF values packed into 4 bits.

    Slot `a` is bit 3 and slot `d` is bit 0, so ``QValue(0b1001)`` is the
    value (marked, unmarked, unmarked, marked) and prints as ``MUUM``.
    Values order by their bits.
    """

    bits: int

    def __init__(self, bits: int) -> None:
        if not 0 <= bits <= 15:
            raise ValueError(f"QValue bits out of range: {bits}")
        _set(self, "bits", bits)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.bits == other.bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.bits,))

    def __lt__(self, other: QValue) -> bool:
        if other.__class__ is self.__class__:
            return self.bits < other.bits
        return NotImplemented

    def __le__(self, other: QValue) -> bool:
        if other.__class__ is self.__class__:
            return self.bits <= other.bits
        return NotImplemented

    def __gt__(self, other: QValue) -> bool:
        if other.__class__ is self.__class__:
            return self.bits > other.bits
        return NotImplemented

    def __ge__(self, other: QValue) -> bool:
        if other.__class__ is self.__class__:
            return self.bits >= other.bits
        return NotImplemented

    @classmethod
    def from_slots(cls, a: bool, b: bool, c: bool, d: bool) -> QValue:
        return cls((a << 3) | (b << 2) | (c << 1) | int(d))

    @classmethod
    def from_pattern(cls, text: str) -> QValue:
        """Build a value from a 4-char pattern like ``MUUM`` (slots a,b,c,d)."""
        if len(text) != 4 or set(text) - {"M", "U"}:
            raise ValueError(f"bad value pattern {text!r}; want 4 chars of M/U")
        return cls.from_slots(*(ch == "M" for ch in text))

    @property
    def slots(self) -> tuple[bool, bool, bool, bool]:
        return (
            bool(self.bits & 8),
            bool(self.bits & 4),
            bool(self.bits & 2),
            bool(self.bits & 1),
        )

    def slot(self, index: int) -> bool:
        """Slot by 1-based position (1=a .. 4=d)."""
        return self.slots[index - 1]

    def pattern(self) -> str:
        return "".join("M" if s else "U" for s in self.slots)

    def __repr__(self) -> str:
        return f"QValue({self.pattern()!r})"


ALL_QVALUES: tuple[QValue, ...] = tuple(QValue(n) for n in range(16))
UNMARKED_Q = QValue(0)


class Q8Op(enum.Enum):
    """The eight operator-group elements: +-1, +-i, +-j, +-k."""

    P1 = (False, "1")
    M1 = (True, "1")
    I = (False, "i")
    MI = (True, "i")
    J = (False, "j")
    MJ = (True, "j")
    K = (False, "k")
    MK = (True, "k")

    def __init__(self, negated: bool, axis: str) -> None:
        self.negated = negated
        self.axis = axis

    def __repr__(self) -> str:
        return f"Q8Op.{self.name}"

    @property
    def symbol(self) -> str:
        return ("-" if self.negated else "") + self.axis

    @classmethod
    def from_parts(cls, negated: bool, axis: str) -> Q8Op:
        return _Q8_BY_PARTS[(negated, axis)]


_Q8_BY_PARTS = {(op.negated, op.axis): op for op in Q8Op}

# Axis products for the quaternion units, written g*h with g applied first:
# ij = k, jk = i, ki = j and the reversed orders pick up a sign.
_AXIS_MUL: dict[tuple[str, str], tuple[bool, str]] = {
    ("1", "1"): (False, "1"),
    ("i", "i"): (True, "1"),
    ("j", "j"): (True, "1"),
    ("k", "k"): (True, "1"),
    ("i", "j"): (False, "k"),
    ("j", "k"): (False, "i"),
    ("k", "i"): (False, "j"),
    ("j", "i"): (True, "k"),
    ("k", "j"): (True, "i"),
    ("i", "k"): (True, "j"),
}
for _axis in ("i", "j", "k"):
    _AXIS_MUL[("1", _axis)] = (False, _axis)
    _AXIS_MUL[(_axis, "1")] = (False, _axis)


def q8_mul(g: Q8Op, h: Q8Op) -> Q8Op:
    """Group product g*h, with g applied first and h second.

    The order matches mark nesting: the h-mark encloses the g-marked
    expression, so q8_mul(I, J) == K while q8_mul(J, I) == MK.
    """
    neg, axis = _AXIS_MUL[(g.axis, h.axis)]
    return Q8Op.from_parts(neg ^ g.negated ^ h.negated, axis)


def q8_inverse(g: Q8Op) -> Q8Op:
    for h in Q8Op:
        if q8_mul(g, h) is Q8Op.P1:
            return h
    raise AssertionError("unreachable: Q8 has inverses")


def q8_power(g: Q8Op, n: int) -> Q8Op:
    out = Q8Op.P1
    for _ in range(n % 4):
        out = q8_mul(out, g)
    return out


class SignedPerm(Record):
    """A permutation of n slots with a per-slot mark flag.

    Output slot p takes input slot ``target[p]`` (both 1-based) and is
    additionally marked when ``marked[p]`` is set.  This single fixed
    reading avoids the usual row/column ambiguity.
    """

    target: tuple[int, ...]
    marked: tuple[bool, ...]

    def __init__(self, target: tuple[int, ...], marked: tuple[bool, ...]) -> None:
        n = len(target)
        if len(marked) != n:
            raise ValueError("target and marked lengths differ")
        if sorted(target) != list(range(1, n + 1)):
            raise ValueError(f"target is not a permutation of 1..{n}: {target}")
        _set(self, "target", target)
        _set(self, "marked", marked)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.target, self.marked) == (other.target, other.marked)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.target, self.marked))

    @classmethod
    def identity(cls, n: int) -> SignedPerm:
        return cls(tuple(range(1, n + 1)), (False,) * n)

    @property
    def arity(self) -> int:
        return len(self.target)

    def then(self, other: SignedPerm) -> SignedPerm:
        """Composite that applies self first, then other."""
        if other.arity != self.arity:
            raise ValueError("arity mismatch in composition")
        return SignedPerm(
            *_then_key(self.target, self.marked, other.target, other.marked)
        )

    def inverse(self) -> SignedPerm:
        target = [0] * self.arity
        marked = [False] * self.arity
        for p in range(self.arity):
            src = self.target[p] - 1
            target[src] = p + 1
            marked[src] = self.marked[p]
        return SignedPerm(tuple(target), tuple(marked))

    def apply(self, slots: Sequence[LoFValue]) -> tuple[LoFValue, ...]:
        """Act on a tuple of LoF values."""
        if len(slots) != self.arity:
            raise ValueError("tuple arity mismatch")
        return tuple(
            slots[self.target[p] - 1] ^ self.marked[p] for p in range(self.arity)
        )

    def apply_q(self, v: QValue) -> QValue:
        if self.arity != 4:
            raise ValueError("apply_q needs arity 4")
        return QValue.from_slots(*self.apply(v.slots))

    def __repr__(self) -> str:
        body = ", ".join(
            f"{p + 1}<-{'[' if self.marked[p] else ''}{self.target[p]}{']' if self.marked[p] else ''}"
            for p in range(self.arity)
        )
        return f"SignedPerm({body})"


# Signed permutations of the four basic marks, read off the defining
# tuple equations: i sends (a,b,c,d) to ([b], a, d, [c]), and so on.
_Q8_PERMS: dict[Q8Op, SignedPerm] = {
    Q8Op.P1: SignedPerm((1, 2, 3, 4), (False, False, False, False)),
    Q8Op.M1: SignedPerm((1, 2, 3, 4), (True, True, True, True)),
    Q8Op.I: SignedPerm((2, 1, 4, 3), (True, False, False, True)),
    Q8Op.MI: SignedPerm((2, 1, 4, 3), (False, True, True, False)),
    Q8Op.J: SignedPerm((3, 4, 1, 2), (True, True, False, False)),
    Q8Op.MJ: SignedPerm((3, 4, 1, 2), (False, False, True, True)),
    Q8Op.K: SignedPerm((4, 3, 2, 1), (True, False, True, False)),
    Q8Op.MK: SignedPerm((4, 3, 2, 1), (False, True, False, True)),
}


# The operator of each mark subscript; "" is the plain mark.
MARK_OPS: dict[str, Q8Op] = {"": Q8Op.M1, "i": Q8Op.I, "j": Q8Op.J, "k": Q8Op.K}

# The action of each operator on the 16 values, indexed by value bits.
_Q8_ACTIONS: dict[Q8Op, tuple[QValue, ...]] = {
    g: tuple(perm.apply_q(v) for v in ALL_QVALUES) for g, perm in _Q8_PERMS.items()
}


def q8_to_signed_perm(g: Q8Op) -> SignedPerm:
    """The arity-4 signed permutation whose action equals the operator g."""
    return _Q8_PERMS[g]


def q8_apply(g: Q8Op, v: QValue) -> QValue:
    """Apply an operator-group element to a value."""
    return _Q8_ACTIONS[g][v.bits]


def op_value(g: Q8Op) -> QValue:
    """The value of the empty g-mark: g applied to the all-unmarked tuple.

    The eight results are pairwise distinct, e.g. the empty i-mark is
    (marked, unmarked, unmarked, marked).
    """
    return _Q8_ACTIONS[g][UNMARKED_Q.bits]


_OP_OF_BITS = {op_value(g).bits: g for g in Q8Op}


def op_of_value(v: QValue) -> Q8Op | None:
    """The operator whose empty mark has value v, or None if v is none of
    the eight operator values."""
    return _OP_OF_BITS.get(v.bits)


def generate_closure(generators: Iterable[SignedPerm]) -> list[SignedPerm]:
    """Close a set of signed permutations under composition."""
    gens = list(generators)
    if not gens:
        return []
    seen: dict[tuple, SignedPerm] = {}
    frontier = [SignedPerm.identity(gens[0].arity)]
    seen[(frontier[0].target, frontier[0].marked)] = frontier[0]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = cur.then(g)
            key = (nxt.target, nxt.marked)
            if key not in seen:
                seen[key] = nxt
                frontier.append(nxt)
    return sorted(seen.values(), key=lambda p: (p.target, p.marked))


def _then_key(
    first_target: tuple[int, ...],
    first_marked: tuple[bool, ...],
    target: tuple[int, ...],
    marked: tuple[bool, ...],
) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """(target, marked) of the composite applying the first signed
    permutation, then the second."""
    return (
        tuple([first_target[t - 1] for t in target]),
        tuple([m ^ first_marked[t - 1] for t, m in zip(target, marked)]),
    )


def cayley_table(elements: Sequence[SignedPerm]) -> list[list[int]]:
    """Index-valued multiplication table (row applied first, column second).

    Products are composed as (target, marked) keys; building a SignedPerm
    for each of them would validate all n^2 of them again.
    """
    keys = [(p.target, p.marked) for p in elements]
    index = {key: i for i, key in enumerate(keys)}
    return [[index[_then_key(*g, *h)] for h in keys] for g in keys]


def is_isomorphic_to_q8(elements: Sequence[SignedPerm]) -> bool:
    """Check a closed 8-element set of signed permutations against Q8.

    Works by locating the identity and the unique element of order 2, then
    trying all assignments of generators; Q8 is small enough to brute-force.
    """
    if len(elements) != 8:
        return False
    table = cayley_table(elements)
    idx = range(8)

    def mul(i: int, j: int) -> int:
        return table[i][j]

    ident = next((i for i in idx if all(mul(i, j) == j == mul(j, i) for j in idx)), None)
    if ident is None:
        return False

    def order(i: int) -> int:
        n, cur = 1, i
        while cur != ident:
            cur = mul(cur, i)
            n += 1
        return n

    orders = sorted(order(i) for i in idx)
    if orders != [1, 2, 4, 4, 4, 4, 4, 4]:
        return False
    # Q8 is the only group of order 8 with a single involution.
    minus_one = next(i for i in idx if order(i) == 2)
    return all(mul(i, minus_one) == mul(minus_one, i) for i in idx)


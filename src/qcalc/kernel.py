"""Core finite domain: two-state values, 4-tuples, the eight-element
operator group, and signed permutations.

Everything here is a small immutable value; the whole calculus lives on
16 tuple values, so tables are precomputed and exhaustive loops are the
normal way to verify anything.
"""

from __future__ import annotations

import enum
from itertools import product
from operator import itemgetter
from typing import Callable, Iterable, Sequence

# An LoF value is a plain bool: True = marked, False = unmarked.
LoFValue = bool
MARKED: LoFValue = True
UNMARKED: LoFValue = False


def _same_class_order(compare: Callable[[tuple, tuple], bool]) -> Callable:
    """A tuple comparison that refuses any operand of another class."""

    def order(self: Record, other: object) -> bool:
        if other.__class__ is not self.__class__:
            raise TypeError(
                f"cannot order {type(self).__qualname__} and {type(other).__qualname__}"
            )
        return compare(self, other)

    return order


class Record(tuple):
    """An immutable record: a tuple whose items are its fields, and the
    base of every value class in qcalc.

    A subclass declares its fields as annotations in its body; ``_fields``
    lists them in order, and each reads its item through a property.  The
    one constructor takes the fields by position or keyword; ``_defaults``
    maps a field that may be left out to a function making its value, so
    each instance gets its own.  A class that validates its arguments
    writes an ``__init__`` that only checks them and does not call
    ``super().__init__``.

    No subclass writes equality, hashing or construction by hand.  Records
    are equal when of the same class with equal fields, so a plain tuple
    never equals one; the hash is the field tuple's.  Records of one class
    order as their field tuples, and ordering against anything else raises
    TypeError.  Every record is truthy, ``repr`` is ``Name(field=value,
    ...)``, copies and pickle round trips are equal, and assigning or
    deleting an attribute raises AttributeError.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Callable[[], object]] = {}

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        for name in cls.__dict__.get("__annotations__", {}):
            if not name.startswith("_"):
                setattr(cls, name, property(itemgetter(len(cls._fields))))
                cls._fields += (name,)

    def __new__(cls, *args: object, **kwargs: object) -> Record:
        if kwargs or len(args) != len(cls._fields):
            args = cls._bind(args, kwargs)
        return tuple.__new__(cls, args)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values given by position, keyword or default."""
        name = cls.__qualname__
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields or key in values:
                raise TypeError(f"{name} got an unexpected or repeated field {key!r}")
            values[key] = value
        for key in fields:
            if key not in values:
                if key not in cls._defaults:
                    raise TypeError(f"{name} is missing field {key!r}")
                values[key] = cls._defaults[key]()
        return tuple(values[key] for key in fields)

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __bool__(self) -> bool:
        return True

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__
    __lt__ = _same_class_order(tuple.__lt__)
    __le__ = _same_class_order(tuple.__le__)
    __gt__ = _same_class_order(tuple.__gt__)
    __ge__ = _same_class_order(tuple.__ge__)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Verdict:
    """The verdict of a record with a ``holds`` field."""

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "fails"

    def to_json(self) -> dict:
        """The fields, with ``holds`` given as ``verdict``; a field that is
        None or "" is left out (an empty counterexample is kept)."""
        out = {k: v for k, v in zip(self._fields, self) if v is not None and v != ""}
        del out["holds"]
        out["verdict"] = self.verdict
        return out


class Report:
    """A record whose ``checks`` field is a tuple of Verdict records."""

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    def to_json(self) -> dict:
        """The fields, with the checks as JSON, and ``all_hold``."""
        out = dict(zip(self._fields, self))
        out["checks"] = [c.to_json() for c in self.checks]
        out["all_hold"] = self.all_hold
        return out


class Packed:
    """A record whose one field, ``bits``, packs ``_width`` LoF values, the
    first slot highest; a pattern spells them as M (marked) and U, and
    ``_noun`` names it in errors.  Listed before Record among the bases."""

    _fields = ("bits",)
    bits = property(itemgetter(0))

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._slot_table = tuple(product((False, True), repeat=cls._width))
        cls._bits_of = {slots: bits for bits, slots in enumerate(cls._slot_table)}

    def __init__(self, bits: int) -> None:
        if not 0 <= bits < 1 << self._width:
            raise ValueError(f"{type(self).__qualname__} bits out of range: {bits}")

    @classmethod
    def from_slots(cls, *slots: bool) -> Packed:
        return cls(cls._bits_of[slots])

    @classmethod
    def from_pattern(cls, text: str) -> Packed:
        if len(text) != cls._width or set(text) - {"M", "U"}:
            raise ValueError(
                f"bad {cls._noun} pattern {text!r}; want {cls._width} chars of M/U"
            )
        return cls.from_slots(*(ch == "M" for ch in text))

    @property
    def slots(self) -> tuple[bool, ...]:
        return self._slot_table[self[0]]

    def pattern(self) -> str:
        return "".join("M" if s else "U" for s in self.slots)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({self.pattern()!r})"


class QValue(Packed, Record):
    """A 4-tuple of LoF values, slots a to d: ``QValue(0b1001)`` is (marked,
    unmarked, unmarked, marked) and prints as ``MUUM``.  Values order by
    their bits."""

    _width = 4
    _noun = "value"


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


_Q8_BY_PARTS = {(op.negated, op.axis): op for op in Q8Op}

# The subscripts of the three imaginary marks, which are also the axes of
# the quaternion units.
IMAGINARY_SUBS = ("i", "j", "k")

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
for _axis in IMAGINARY_SUBS:
    _AXIS_MUL[("1", _axis)] = (False, _axis)
    _AXIS_MUL[(_axis, "1")] = (False, _axis)


def q8_mul(g: Q8Op, h: Q8Op) -> Q8Op:
    """Group product g*h, with g applied first and h second.

    The order matches mark nesting: the h-mark encloses the g-marked
    expression, so q8_mul(I, J) == K while q8_mul(J, I) == MK.
    """
    neg, axis = _AXIS_MUL[(g.axis, h.axis)]
    return _Q8_BY_PARTS[(neg ^ g.negated ^ h.negated, axis)]


def q8_inverse(g: Q8Op) -> Q8Op:
    """Every element's order divides 4, so its cube is its inverse."""
    return q8_power(g, 3)


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

    @classmethod
    def identity(cls, n: int) -> SignedPerm:
        return cls(tuple(range(1, n + 1)), (False,) * n)

    @property
    def arity(self) -> int:
        return len(self.target)

    def then(self, other: SignedPerm) -> SignedPerm:
        """Composite that applies self first, then other.  A composite of
        signed permutations is one, so it is not validated again."""
        (first_target, first_marked), (target, marked) = self, other
        if len(target) != len(first_target):
            raise ValueError("arity mismatch in composition")
        return tuple.__new__(SignedPerm, (
            tuple([first_target[t - 1] for t in target]),
            tuple([m ^ first_marked[t - 1] for t, m in zip(target, marked)]),
        ))

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
    frontier = [SignedPerm.identity(gens[0].arity)]
    seen = set(frontier)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = cur.then(g)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return sorted(seen)


def cayley_table(elements: Sequence[SignedPerm]) -> list[list[int]]:
    """Index-valued multiplication table (row applied first, column second)."""
    index = {p: i for i, p in enumerate(elements)}
    return [[index[g.then(h)] for h in elements] for g in elements]


def is_isomorphic_to_q8(elements: Sequence[SignedPerm]) -> bool:
    """Check a closed 8-element set of signed permutations against Q8.

    Q8 is the only group of order 8 whose element orders are one 1, one 2
    and six 4s: Z8 has elements of order 8, and Z4xZ2, D4 and Z2^3 each
    have more than one element of order 2.  So the orders decide.
    """
    if len(elements) != 8:
        return False
    table = cayley_table(elements)
    # In a group, g*g == g holds only for the identity.
    ident = next(i for i in range(8) if table[i][i] == i)

    def order(i: int) -> int:
        n, cur = 1, i
        while cur != ident:
            cur = table[cur][i]
            n += 1
        return n

    return sorted(map(order, range(8))) == [1, 2, 4, 4, 4, 4, 4, 4]

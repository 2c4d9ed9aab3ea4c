"""Reference answers for equivalence checks, computed without qcalc.

Each side of an equation is four slot truth tables over the underlying
two-state inputs, held as bitmask integers with one bit per row.  The rows
are laid out in qcalc's enumeration order: variables sorted by name, the
first most significant, a tuple variable's digit being its value bits
(slot a is bit 3) and a slot variable's digit 0 for unmarked and 1 for
marked.  Row r is then assignment index r, so the lowest differing row is
the first counterexample and `assignments_checked` must be its index + 1.

The mark routing is written from the defining tuple equations:
i sends (a, b, c, d) to ([b], a, d, [c]), j to ([c], [d], a, b) and k to
([d], c, [b], a); the plain mark marks every slot.
"""

from __future__ import annotations

from terms import free_vars


def _route(sub: str, slots, full: int):
    a, b, c, d = slots
    if sub == "":
        return (full ^ a, full ^ b, full ^ c, full ^ d)
    if sub == "i":
        return (full ^ b, a, d, full ^ c)
    if sub == "j":
        return (full ^ c, full ^ d, a, b)
    if sub == "k":
        return (full ^ d, c, full ^ b, a)
    raise ValueError(f"bad subscript {sub!r}")


class Layout:
    """Variable order, digit widths and row masks of one equation."""

    def __init__(self, qvars, svars) -> None:
        both = set(qvars) & set(svars)
        if both:
            raise ValueError(f"variables used in and out of slots: {sorted(both)}")
        self.names = sorted(set(qvars) | set(svars))
        self.tuple_vars = set(qvars)
        self.offset = {}
        bit = 0
        for name in reversed(self.names):
            self.offset[name] = bit
            bit += 4 if name in self.tuple_vars else 1
        self.bits = bit
        self.space = 1 << bit
        self.full = (1 << self.space) - 1
        self._masks = {}

    def mask(self, k: int) -> int:
        """Rows whose index has bit k set."""
        if k not in self._masks:
            period = 1 << (k + 1)
            out = ((1 << (1 << k)) - 1) << (1 << k)
            while period < self.space:
                out |= out << period
                period <<= 1
            self._masks[k] = out
        return self._masks[k]

    def slots(self, e):
        kind = e[0]
        if kind == "0":
            return (0, 0, 0, 0)
        if kind == "v":
            base = self.offset[e[1]]
            return tuple(self.mask(base + 3 - s) for s in range(4))
        if kind == "m":
            return _route(e[1], self.slots(e[2]), self.full)
        if kind == "p":
            out = self.slots(e[2])
            for _ in range(e[3] % 4):
                out = _route(e[1], out, self.full)
            return out
        if kind == "j":
            acc = [0, 0, 0, 0]
            for p in e[1]:
                for s, t in enumerate(self.slots(p)):
                    acc[s] |= t
            return tuple(acc)
        if kind == "t":
            return tuple(self.lof(s) for s in e[1])
        if kind == "x":
            return self.slots(e[3])
        raise ValueError(f"not a term: {e!r}")

    def lof(self, e) -> int:
        kind = e[0]
        if kind == "0":
            return 0
        if kind == "v":
            return self.mask(self.offset[e[1]])
        if kind == "m" and e[1] == "":
            return self.full ^ self.lof(e[2])
        if kind == "j":
            out = 0
            for p in e[1]:
                out |= self.lof(p)
            return out
        raise ValueError(f"not a plain-LoF slot: {e!r}")

    def index_of(self, env: dict) -> int:
        """Assignment index of a counterexample given as value patterns
        ("MUUM" for tuple variables, "M"/"U" for slot variables)."""
        if set(env) != set(self.names):
            raise ValueError(f"counterexample binds {sorted(env)}, want {self.names}")
        idx = 0
        for name in self.names:
            digits = env[name]
            width = 4 if name in self.tuple_vars else 1
            if len(digits) != width or set(digits) - {"M", "U"}:
                raise ValueError(f"bad value {digits!r} for {name}")
            value = int("".join("1" if ch == "M" else "0" for ch in digits), 2)
            idx |= value << self.offset[name]
        return idx

    def env_of(self, idx: int) -> dict:
        out = {}
        for name in self.names:
            width = 4 if name in self.tuple_vars else 1
            value = (idx >> self.offset[name]) & ((1 << width) - 1)
            out[name] = format(value, f"0{width}b").replace("1", "M").replace("0", "U")
        return out


def layout_of(lhs, rhs) -> Layout:
    q, s = free_vars(lhs)
    free_vars(rhs, out=(q, s))
    return Layout(q, s)


def first_difference(lhs, rhs) -> tuple[int | None, Layout]:
    """(index of the first differing assignment or None, layout)."""
    lay = layout_of(lhs, rhs)
    diff = 0
    for x, y in zip(lay.slots(lhs), lay.slots(rhs)):
        diff |= x ^ y
    if diff == 0:
        return None, lay
    return (diff & -diff).bit_length() - 1, lay

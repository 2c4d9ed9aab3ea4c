"""Independent equivalence oracle: slot-wise truth tables at the level of
the underlying two-state variables.

Each tuple-level variable contributes four independent LoF variables (one
per slot) and each slot variable one, so an expression over v tuple
variables denotes four slot functions over 4v two-state inputs.  Two
expressions are equivalent exactly when the four slot functions agree as
truth tables.  Slot functions are computed on packed bitmask integers,
one bit per input row; the slot routing of the subscripted marks is coded
directly from their defining tuple equations rather than shared with the
value-level evaluator, so this path is an independent check of it.
"""

from __future__ import annotations

from .textio import (
    Expr,
    ExpApply,
    Juxt,
    Mark,
    Power,
    Tuple4,
    Var,
    Void,
    free_vars,
    print_expr,
)


class OracleUnsupported(Exception):
    """Raised for forms the truth-table oracle does not cover."""


def _input_masks(total_bits: int) -> list[int]:
    """mask[k] has bit n set exactly when bit k of the row index n is set."""
    rows = 1 << total_bits
    masks = []
    for k in range(total_bits):
        block = (1 << (1 << k)) - 1  # 2^k ones
        out = block << (1 << k)  # one period: 2^k zeros then 2^k ones
        width = 1 << (k + 1)
        while width < rows:  # replicate by doubling
            out |= out << width
            width <<= 1
        masks.append(out)
    return masks


class _SlotTables:
    def __init__(self, qvars: list[str], lofvars: list[str]) -> None:
        self.bit_index: dict[tuple[str, int], int] = {}
        bit = 0
        for name in qvars:
            for slot in (1, 2, 3, 4):
                self.bit_index[(name, slot)] = bit
                bit += 1
        for name in lofvars:
            self.bit_index[(name, 0)] = bit
            bit += 1
        self.total_bits = bit
        if self.total_bits > 24:
            raise OracleUnsupported(
                f"truth table would need 2^{self.total_bits} rows"
            )
        masks = _input_masks(self.total_bits)
        self.masks = masks
        self.full = (1 << (1 << self.total_bits)) - 1

    def var_slot(self, name: str, slot: int) -> int:
        return self.masks[self.bit_index[(name, slot)]]

    def q_slots(self, e: Expr) -> tuple[int, int, int, int]:
        if isinstance(e, Void):
            return (0, 0, 0, 0)
        if isinstance(e, Var):
            return tuple(self.var_slot(e.name, s) for s in (1, 2, 3, 4))
        if isinstance(e, Mark):
            return self._route(e.sub, self.q_slots(e.body))
        if isinstance(e, Power):
            slots = self.q_slots(e.body)
            for _ in range(e.exponent % 4):
                slots = self._route(e.sub, slots)
            return slots
        if isinstance(e, Juxt):
            a = b = c = d = 0
            for p in e.parts:
                pa, pb, pc, pd = self.q_slots(p)
                a |= pa
                b |= pb
                c |= pc
                d |= pd
            return (a, b, c, d)
        if isinstance(e, Tuple4):
            return tuple(self.lof_table(s) for s in e.slots)
        if isinstance(e, ExpApply):
            raise OracleUnsupported(
                f"exponent application not covered: {print_expr(e)}"
            )
        raise TypeError(f"not an expression: {e!r}")

    def _route(self, sub: str, slots: tuple[int, int, int, int]):
        a, b, c, d = slots
        full = self.full
        # The defining slot equations of the four marks.
        if sub == "":
            return (full ^ a, full ^ b, full ^ c, full ^ d)
        if sub == "i":
            return (full ^ b, a, d, full ^ c)
        if sub == "j":
            return (full ^ c, full ^ d, a, b)
        if sub == "k":
            return (full ^ d, c, full ^ b, a)
        raise ValueError(f"bad mark subscript {sub!r}")

    def lof_table(self, e: Expr) -> int:
        if isinstance(e, Void):
            return 0
        if isinstance(e, Var):
            return self.var_slot(e.name, 0)
        if isinstance(e, Mark):
            return self.full ^ self.lof_table(e.body)
        if isinstance(e, Juxt):
            out = 0
            for p in e.parts:
                out |= self.lof_table(p)
            return out
        raise OracleUnsupported(f"not a plain-LoF expression: {print_expr(e)}")


def equivalent(a: Expr, b: Expr) -> bool:
    """Decide equivalence by comparing the four slot truth tables."""
    qvars, lofvars = free_vars(a, b)
    tables = _SlotTables(sorted(qvars), sorted(lofvars))
    return tables.q_slots(a) == tables.q_slots(b)

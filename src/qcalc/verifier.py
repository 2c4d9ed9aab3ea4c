"""Equivalence decision by exhaustive evaluation, plus the named law
suites and the 8x8 distribution matrix.

Equivalence of two expressions is decided by evaluating both under every
assignment of values to the shared free variables: tuple-level variables
range over the 16 values, slot variables over the 2 states.  All the
operators act slot-wise, so this enumeration is the same thing as a truth
table over the underlying two-state variables; the independent oracle in
``qcalc.oracle`` checks that claim from the other side.

The enumeration is vectorized: a value per assignment is one byte lane of
a big integer, marks are byte-translation tables and juxtaposition is
bitwise or.  The per-assignment semantics is exactly ``semantics.evaluate``
(property-tested against it).
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping

from .kernel import ALL_QVALUES, Q8Op, QValue, op_value, q8_apply, q8_mul, q8_power
from .semantics import (
    ALL_BFVALUES,
    CONNECTIVES,
    OP_BY_VALUE_BITS,
    BadExponentValue,
    apply_op,
    bf_apply,
    connective,
    embed_bf,
    evaluate,
)
from .textio import (
    ExpApply,
    Expr,
    Juxt,
    Mark,
    Power,
    Tuple4,
    Var,
    Void,
    free_vars,
    parse,
    parse_qlf,
    print_expr,
)

DEFAULT_BUDGET = 16 ** 6


def assignment_budget() -> int:
    """The default budget, overridable via the QCALC_BUDGET variable."""
    raw = os.environ.get("QCALC_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    try:
        return max(16, int(raw))
    except ValueError:
        raise ValueError(f"QCALC_BUDGET must be an integer, not {raw!r}") from None


class BudgetExceeded(Exception):
    def __init__(self, num_variables: int, required: int, budget: int) -> None:
        super().__init__(
            f"{num_variables} variables need {required} assignments"
            f" (budget {budget})"
        )
        self.num_variables = num_variables
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class EquivResult:
    equivalent: bool
    counterexample: dict[str, QValue | bool] | None
    assignments_checked: int

    @property
    def verdict(self) -> str:
        return "equivalent" if self.equivalent else "inequivalent"


def _var_spec(exprs: Iterable[Expr]) -> tuple[tuple[str, int], ...]:
    qvars: set[str] = set()
    lofvars: set[str] = set()
    for e in exprs:
        q, l = free_vars(e)
        qvars |= q
        lofvars |= l
    both = qvars & lofvars
    if both:
        raise ValueError(
            f"variables used both inside and outside tuple slots: {sorted(both)}"
        )
    return tuple(
        (name, 16 if name in qvars else 2) for name in sorted(qvars | lofvars)
    )


def _radices(spec: tuple[tuple[str, int], ...]) -> list[int]:
    """Stride of each variable; the first (sorted) variable is most
    significant, so assignment index 0 is the all-smallest assignment."""
    radices = [1] * len(spec)
    for t in range(len(spec) - 2, -1, -1):
        radices[t] = radices[t + 1] * spec[t + 1][1]
    return radices


def _decode_assignment(
    spec: tuple[tuple[str, int], ...], idx: int
) -> dict[str, QValue | bool]:
    radices = _radices(spec)
    env: dict[str, QValue | bool] = {}
    for (name, dom), r in zip(spec, radices):
        digit = (idx // r) % dom
        env[name] = QValue(digit) if dom == 16 else bool(digit)
    return env


def _pattern_range(dom: int, radix: int, start: int, end: int) -> bytes:
    """Byte lanes of one variable's value for assignment indices [start, end)."""
    base = b"".join(bytes([v]) * radix for v in range(dom))
    period = len(base)
    offset = start % period
    reps = (offset + (end - start) + period - 1) // period
    return (base * reps)[offset : offset + (end - start)]


# Byte-translation tables for each operator-group element.
_OP_TABLES: dict[Q8Op, bytes] = {
    g: bytes(q8_apply(g, QValue(b & 15)).bits for b in range(256))
    for g in Q8Op
}
_SUB_OPS = {"": Q8Op.M1, "i": Q8Op.I, "j": Q8Op.J, "k": Q8Op.K}


class _NotVectorizable(Exception):
    pass


class _VectorEval:
    """Evaluate an expression over a contiguous range of assignments,
    one byte lane per assignment."""

    def __init__(self, spec, start: int, end: int) -> None:
        self.n = end - start
        radices = _radices(spec)
        self.kinds = dict(spec)
        self.vectors = {
            name: int.from_bytes(
                _pattern_range(dom, r, start, end), "little"
            )
            for (name, dom), r in zip(spec, radices)
        }
        self.ones = int.from_bytes(b"\x01" * self.n, "little")

    def _translate(self, vec: int, g: Q8Op) -> int:
        data = vec.to_bytes(self.n, "little").translate(_OP_TABLES[g])
        return int.from_bytes(data, "little")

    def q_vector(self, e: Expr) -> int:
        if isinstance(e, Void):
            return 0
        if isinstance(e, Var):
            if self.kinds[e.name] != 16:
                raise ValueError(f"slot variable {e.name!r} used at tuple level")
            return self.vectors[e.name]
        if isinstance(e, Mark):
            return self._translate(self.q_vector(e.body), _SUB_OPS[e.sub])
        if isinstance(e, Power):
            g = q8_power(_SUB_OPS[e.sub], e.exponent)
            return self._translate(self.q_vector(e.body), g)
        if isinstance(e, Juxt):
            out = 0
            for p in e.parts:
                out |= self.q_vector(p)
            return out
        if isinstance(e, Tuple4):
            a, b, c, d = (self.lof_vector(s) for s in e.slots)
            return (a << 3) | (b << 2) | (c << 1) | d
        if isinstance(e, ExpApply):
            q, l = free_vars(e.exponent)
            if q or l:
                raise _NotVectorizable("open exponent application")
            g = OP_BY_VALUE_BITS.get(evaluate(e.exponent, {}).bits)
            if g is None:
                raise BadExponentValue(evaluate(e.exponent, {}))
            return self._translate(self.q_vector(e.base), g)
        raise TypeError(f"not an expression: {e!r}")

    def lof_vector(self, e: Expr) -> int:
        if isinstance(e, Void):
            return 0
        if isinstance(e, Var):
            if self.kinds[e.name] != 2:
                raise ValueError(f"tuple variable {e.name!r} used inside a slot")
            return self.vectors[e.name]
        if isinstance(e, Mark):
            return self.lof_vector(e.body) ^ self.ones
        if isinstance(e, Juxt):
            out = 0
            for p in e.parts:
                out |= self.lof_vector(p)
            return out
        raise TypeError(f"not a plain-LoF expression: {print_expr(e)}")


def _first_difference(spec, a: Expr, b: Expr, start: int, end: int) -> int | None:
    """Smallest assignment index in [start, end) where a and b differ."""
    ev = _VectorEval(spec, start, end)
    diff = ev.q_vector(a) ^ ev.q_vector(b)
    if diff == 0:
        return None
    lowest_bit = (diff & -diff).bit_length() - 1
    return start + lowest_bit // 8


def _first_difference_text(args) -> int | None:
    a_text, b_text, spec, start, end = args
    return _first_difference(spec, parse(a_text), parse(b_text), start, end)


def _first_difference_scalar(spec, a: Expr, b: Expr) -> int | None:
    for idx, values in enumerate(product(*(range(dom) for _, dom in spec))):
        env = {
            name: (QValue(v) if dom == 16 else bool(v))
            for (name, dom), v in zip(spec, values)
        }
        if evaluate(a, env) != evaluate(b, env):
            return idx
    return None


def check_equiv(
    a: Expr | str,
    b: Expr | str,
    budget: int | None = None,
    jobs: int = 1,
) -> EquivResult:
    """Decide equivalence over every assignment to the shared free
    variables; on failure return the first counterexample in enumeration
    order (names sorted, values ascending)."""
    if isinstance(a, str):
        a = parse(a)
    if isinstance(b, str):
        b = parse(b)
    spec = _var_spec((a, b))
    count = 1
    for _, dom in spec:
        count *= dom
    limit = budget if budget is not None else assignment_budget()
    if count > limit:
        raise BudgetExceeded(len(spec), count, limit)

    try:
        if jobs > 1 and count >= 1 << 16:
            chunk = -(-count // jobs)
            tasks = [
                (print_expr(a), print_expr(b), spec, lo, min(lo + chunk, count))
                for lo in range(0, count, chunk)
            ]
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                hits = [h for h in pool.map(_first_difference_text, tasks) if h is not None]
            first = min(hits) if hits else None
        else:
            first = _first_difference(spec, a, b, 0, count)
    except _NotVectorizable:
        first = _first_difference_scalar(spec, a, b)

    if first is None:
        return EquivResult(True, None, count)
    return EquivResult(False, _decode_assignment(spec, first), first + 1)


def env_patterns(env: Mapping[str, QValue | bool] | None) -> dict[str, str] | None:
    if env is None:
        return None
    return {
        name: (val.pattern() if isinstance(val, QValue) else ("M" if val else "U"))
        for name, val in env.items()
    }


# ---------------------------------------------------------------------------
# Law suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LawCheck:
    name: str
    holds: bool
    counterexample: dict[str, str] | None
    assignments_checked: int
    note: str = ""

    def to_json(self) -> dict:
        out: dict = {
            "name": self.name,
            "verdict": "holds" if self.holds else "fails",
            "assignments_checked": self.assignments_checked,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class LawSuiteReport:
    suite: str
    checks: tuple[LawCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "all_hold": self.all_hold,
            "checks": [c.to_json() for c in self.checks],
        }

    def render(self) -> str:
        lines = [f"suite {self.suite}:"]
        for c in self.checks:
            status = "holds" if c.holds else "FAILS"
            extra = f"  counterexample {c.counterexample}" if c.counterexample else ""
            note = f"  ({c.note})" if c.note else ""
            lines.append(
                f"  {c.name:<28} {status:<6} [{c.assignments_checked} assignments]{note}{extra}"
            )
        lines.append(
            f"  => {'all hold' if self.all_hold else 'FAILURES PRESENT'}"
        )
        return "\n".join(lines)


def _equiv_check(name: str, lhs: str, rhs: str, note: str = "") -> LawCheck:
    res = check_equiv(parse(lhs), parse(rhs))
    return LawCheck(
        name, res.equivalent, env_patterns(res.counterexample),
        res.assignments_checked, note,
    )


APPENDIX_A_LAWS: tuple[tuple[str, str, str], ...] = (
    ("A1-Position", "[[A] A]", ""),
    ("A2-Transposition", "[[A] [B]] C", "[[A C] [B C]]"),
    ("A3-Reflexion", "[[A]]", "A"),
    ("A4-Generation", "[A] B", "[A B] B"),
    ("A5-Integration", "A []", "[]"),
    ("A6-Occultation", "[[A] B] A", "A"),
    ("A7-Iteration", "A A", "A"),
    ("A8-Extension", "[[A] [B]] [[A] B]", "A"),
    ("A9-Echelon", "[[[A] B] C]", "[A C] [[B] C]"),
    ("A10-Crosstransposition", "[[[A] B] [[A] [B]]]", "[A B] [A [B]]"),
)

ALPHAS = ("i", "j", "k")


def appendix_b_laws() -> list[tuple[str, str, str]]:
    """Q1-Q10 instantiated for every applicable alpha (and beta)."""
    laws: list[tuple[str, str, str]] = []
    for a in ALPHAS:
        laws.append((f"Q1-SQR[{a}]", f"[[A]{a}]{a}", "[A]"))
    laws.append(("Q2-IJK", "[[[A]i]j]k", "[A]"))
    for a in ALPHAS:
        laws.append((f"Q3-QuadraReflexion[{a}]", f"[A]{a}^4", "A"))
    for a in ALPHAS:
        laws.append((f"Q4-MarkCommutes[{a}]", f"[[A]{a}]", f"[[A]]{a}"))
    for a in ALPHAS:
        for b in ALPHAS:
            if a != b:
                laws.append(
                    (f"Q5-AntiCommutes[{a},{b}]", f"[[A]{a}]{b}", f"[[[A]{b}]{a}]")
                )
    for a in ALPHAS:
        laws.append(
            (f"Q6-SplitGeneration[{a}]", f"[[A]{a} B]{a} C", f"[[A C]{a} B]{a} C")
        )
    for a in ALPHAS:
        laws.append((f"Q7-Extraction[{a}]", f"[A []{a}]{a}", f"[A]{a} []{a}^3"))
    for a in ALPHAS:
        laws.append(
            (
                f"Q8-Disintegration[{a}]",
                f"[A B]{a}",
                f"[[[A]{a} [B]{a}] [[A]{a} []{a}^3] [[B]{a} []{a}^3]]",
            )
        )
    for a in ALPHAS:
        laws.append(
            (
                f"Q9-RightDistribution[{a}]",
                f"[[A]{a}^3 [B]{a}^3]{a} C",
                f"[[A C]{a}^3 [B C]{a}^3]{a}",
            )
        )
    for a in ALPHAS:
        laws.append(
            (
                f"Q10-LeftDistribution[{a}]",
                f"C [[A]{a}^3 [B]{a}^3]{a}",
                f"[[C A]{a}^3 [C B]{a}^3]{a}",
            )
        )
    return laws


COMPILE_LAWS: tuple[tuple[str, str, Q8Op], ...] = (
    ("Q11-CompileK", "[[]i []j] [[]i^3 []j^3]", Q8Op.K),
    ("Q12-CompileI", "[[]j []k] [[]j^3 []k^3]", Q8Op.I),
    ("Q13-CompileJ", "[[]i []k] [[]i^3 []k^3]", Q8Op.J),
)

SUITES = ("lof_appendix_a", "q_appendix_b", "bf_subspaces", "q8_relations")


def run_law_suite(suite: str) -> LawSuiteReport:
    """Run one of the named law suites and report per-law results."""
    if suite == "lof_appendix_a":
        checks = [_equiv_check(*law) for law in APPENDIX_A_LAWS]
    elif suite == "q_appendix_b":
        checks = [_equiv_check(*law) for law in appendix_b_laws()]
        for name, text, op in COMPILE_LAWS:
            got = evaluate(parse(text), {})
            want = op_value(op)
            note = f"value {got.pattern()}, empty {op.axis}-mark {want.pattern()}"
            ce = None if got == want else {"value": got.pattern()}
            checks.append(LawCheck(name, got == want, ce, 1, note))
    elif suite == "bf_subspaces":
        checks = _bf_subspace_checks()
    elif suite == "q8_relations":
        checks = _q8_relation_checks()
    else:
        raise ValueError(f"unknown suite {suite!r}; one of {SUITES}")
    return LawSuiteReport(suite, tuple(checks))


def _bf_subspace_checks() -> list[LawCheck]:
    checks: list[LawCheck] = []
    # Pair-mode defining equations, on all four pair values.
    bad = [
        v.pattern()
        for v in ALL_BFVALUES
        if bf_apply("i", bf_apply("i", v)) != bf_apply("", v)
    ]
    checks.append(
        LawCheck(
            "Pair-SquareRootOfMark",
            not bad,
            {"pair": bad[0]} if bad else None,
            4,
            "i-mark twice equals the plain mark",
        )
    )
    bad = [
        v.pattern() for v in ALL_BFVALUES if bf_apply("", bf_apply("", v)) != v
    ]
    checks.append(
        LawCheck(
            "Pair-Reflexion",
            not bad,
            {"pair": bad[0]} if bad else None,
            4,
            "plain mark twice is the identity",
        )
    )
    for a in ALPHAS:
        checks.append(
            _equiv_check(
                f"SplitGeneration[{a}]",
                f"[[A]{a} B]{a} C",
                f"[[A C]{a} B]{a} C",
            )
        )
        checks.append(_equiv_check(f"SquareIsMark[{a}]", f"[[A]{a}]{a}", "[A]"))
        checks.append(_equiv_check(f"PowerSquare[{a}]", f"[A]{a}^2", "[A]"))
        checks.append(_equiv_check(f"QuadraReflexion[{a}]", f"[A]{a}^4", "A"))
        for opname, bf_sub, q_sub in (
            ("imaginary", "i", a),
            ("mark", "", ""),
        ):
            bad = [
                v.pattern()
                for v in ALL_BFVALUES
                if embed_bf(a, bf_apply(bf_sub, v)) != apply_op(q_sub, embed_bf(a, v))
            ]
            checks.append(
                LawCheck(
                    f"Embedding[{a}]-{opname}",
                    not bad,
                    {"pair": bad[0]} if bad else None,
                    4,
                    f"embedding intertwines the {opname} operation",
                )
            )
    return checks


def _q8_relation_checks() -> list[LawCheck]:
    checks = []
    for g in Q8Op:
        for h in Q8Op:
            r = q8_mul(g, h)
            bad = [
                v.pattern()
                for v in ALL_QVALUES
                if q8_apply(h, q8_apply(g, v)) != q8_apply(r, v)
            ]
            checks.append(
                LawCheck(
                    f"{g.symbol}*{h.symbol}={r.symbol}",
                    not bad,
                    {"value": bad[0]} if bad else None,
                    16,
                )
            )
    return checks


# ---------------------------------------------------------------------------
# Distribution matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistCell:
    op1: str
    op2: str
    trivial: bool
    holds: bool
    counterexample: dict[str, str] | None
    assignments_checked: int

    def to_json(self) -> dict:
        out = {
            "op1": self.op1,
            "op2": self.op2,
            "trivial": self.trivial,
            "verdict": "holds" if self.holds else "fails",
            "assignments_checked": self.assignments_checked,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass(frozen=True)
class DistributionReport:
    cells: tuple[DistCell, ...]

    @property
    def off_diagonal(self) -> tuple[DistCell, ...]:
        return tuple(c for c in self.cells if not c.trivial)

    @property
    def holding_count(self) -> int:
        return sum(1 for c in self.off_diagonal if c.holds)

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.cells)

    def to_json(self) -> dict:
        return {
            "connectives": list(CONNECTIVES),
            "off_diagonal_holding": self.holding_count,
            "all_hold": self.all_hold,
            "cells": [c.to_json() for c in self.cells],
        }

    def render(self) -> str:
        width = max(len(c) for c in CONNECTIVES) + 1
        head = " " * width + "".join(f"{c:>{width}}" for c in CONNECTIVES)
        by_key = {(c.op1, c.op2): c for c in self.cells}
        lines = [head]
        for op1 in CONNECTIVES:
            row = f"{op1:>{width}}"
            for op2 in CONNECTIVES:
                cell = by_key[(op1, op2)]
                mark = "." if cell.trivial else ("+" if cell.holds else "X")
                row += f"{mark:>{width}}"
            lines.append(row)
        lines.append(
            f"rows distribute over columns; {self.holding_count} of 56"
            " off-diagonal laws hold (+), diagonal is trivial (.)"
        )
        return "\n".join(lines)


def distribution_matrix() -> DistributionReport:
    """Check (A op2 B) op1 C == (A op1 C) op2 (B op1 C) for every ordered
    pair of the eight connectives, over all 4096 assignments each."""
    A, B, C = Var("A"), Var("B"), Var("C")
    cells = []
    for op1 in CONNECTIVES:
        for op2 in CONNECTIVES:
            lhs = connective(op1, connective(op2, A, B), C)
            rhs = connective(op2, connective(op1, A, C), connective(op1, B, C))
            res = check_equiv(lhs, rhs)
            cells.append(
                DistCell(
                    op1,
                    op2,
                    op1 == op2,
                    res.equivalent,
                    env_patterns(res.counterexample),
                    res.assignments_checked,
                )
            )
    return DistributionReport(tuple(cells))


# ---------------------------------------------------------------------------
# The two non-commutative distribution demonstrations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DemoReport:
    demo1_holds: bool
    demo2_template_holds: bool
    demo2_printed_holds: bool

    @property
    def demo2_resolved(self) -> str:
        if self.demo2_template_holds and not self.demo2_printed_holds:
            return "template"
        if self.demo2_printed_holds and not self.demo2_template_holds:
            return "printed"
        return "ambiguous"

    def to_json(self) -> dict:
        return {
            "demo1_or_i_over_and_j": "holds" if self.demo1_holds else "fails",
            "demo2_template_form": "holds" if self.demo2_template_holds else "fails",
            "demo2_printed_form": "holds" if self.demo2_printed_holds else "fails",
            "demo2_valid_form": self.demo2_resolved,
        }

    def render(self) -> str:
        return (
            "demonstration 1: A or_i (B and_j C) == (A or_i B) and_j (A or_i C):"
            f" {'holds' if self.demo1_holds else 'FAILS'}\n"
            "demonstration 2: (A and_k B) and_j C ==\n"
            "  (A and_j C) and_k (B and_j C):"
            f" {'holds' if self.demo2_template_holds else 'fails'}\n"
            "  (A and_j B) and_k (B and_j C):"
            f" {'holds' if self.demo2_printed_holds else 'fails'}\n"
            f"  valid right-hand side: the {self.demo2_resolved} form"
        )


def distribution_demos() -> DemoReport:
    """Check the two demonstrated laws; the second has two candidate
    right-hand sides (a transcription discrepancy) and exactly one of them
    is expected to survive the oracle."""
    A, B, C = Var("A"), Var("B"), Var("C")
    demo1 = check_equiv(
        connective("or_i", A, connective("and_j", B, C)),
        connective("and_j", connective("or_i", A, B), connective("or_i", A, C)),
    )
    lhs2 = connective("and_j", connective("and_k", A, B), C)
    template = check_equiv(
        lhs2,
        connective("and_k", connective("and_j", A, C), connective("and_j", B, C)),
    )
    printed = check_equiv(
        lhs2,
        connective("and_k", connective("and_j", A, B), connective("and_j", B, C)),
    )
    return DemoReport(demo1.equivalent, template.equivalent, printed.equivalent)


# ---------------------------------------------------------------------------
# Assertion files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssertionReport:
    checks: tuple[LawCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    def to_json(self) -> dict:
        return {
            "all_hold": self.all_hold,
            "checks": [c.to_json() for c in self.checks],
        }

    def render(self) -> str:
        lines = []
        for c in self.checks:
            status = "holds" if c.holds else "FAILS"
            extra = f"  counterexample {c.counterexample}" if c.counterexample else ""
            lines.append(f"  {c.name:<8} {status:<6} {c.note}{extra}")
        return "\n".join(lines) if lines else "  (no assertions)"


def check_assertions(text: str, budget: int | None = None, jobs: int = 1) -> AssertionReport:
    """Check every `LHS == RHS` line of a .qlf file body."""
    checks = []
    for line in parse_qlf(text):
        if line.rhs is None:
            continue
        res = check_equiv(line.lhs, line.rhs, budget=budget, jobs=jobs)
        checks.append(
            LawCheck(
                f"L{line.lineno}",
                res.equivalent,
                env_patterns(res.counterexample),
                res.assignments_checked,
                line.source,
            )
        )
    return AssertionReport(tuple(checks))


def report_to_json_text(report) -> str:
    """Stable JSON rendering: sorted keys, no trailing whitespace."""
    return json.dumps(report.to_json(), sort_keys=True, indent=2)

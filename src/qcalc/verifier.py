"""Equivalence decision by exhaustive evaluation, plus the named law
suites and the 8x8 distribution matrix.

Equivalence of two expressions is decided by evaluating both under every
assignment of values to the shared free variables: tuple-level variables
range over the 16 values, slot variables over the 2 states.  All the
operators act slot-wise, so this enumeration is the same thing as a truth
table over the underlying two-state variables; the independent oracle in
``qcalc.oracle`` checks that claim from the other side.

A value under every assignment is four planes, one per slot, and each
plane is a BDD over the bits of the assignment index.  A mark moves and
complements planes as its signed permutation in ``kernel`` says,
juxtaposition is plane-wise or, and an exponent application selects, per
assignment, one of the eight operator actions.  Equal functions have
equal edges, so the first counterexample, the least row where a pair of
planes differs or an exponent is bad, is found by walking the edges,
without building a difference.  The cost follows the size of the BDDs,
not the number of assignments, and the size depends on the level order,
the sorted names: ``[[A0]i [B0]i]j ... [[A7]i [B7]i]j`` builds 1,705
nodes, 321 when each pair's names sort together.  The per-assignment
semantics is exactly ``semantics.evaluate`` (property-tested against it).
"""

from __future__ import annotations

import os
from itertools import permutations
from operator import itemgetter, xor
from typing import Callable, Iterable, Mapping, Sequence

from .kernel import (
    ALL_QVALUES,
    IMAGINARY_SUBS,
    MARK_OPS,
    Q8Op,
    QValue,
    Record,
    Report,
    Verdict,
    op_value,
    q8_apply,
    q8_mul,
    q8_power,
    q8_to_signed_perm,
)
from .semantics import (
    ALL_BFVALUES,
    CONNECTIVES,
    apply_op,
    bf_apply,
    connective,
    embed_bf,
    evaluate,
    value_text,
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


class BudgetExceeded(ValueError):
    def __init__(self, num_variables: int, required: int, budget: int) -> None:
        super().__init__(
            f"{num_variables} variables need {required} assignments"
            f" (budget {budget})"
        )
        self.num_variables = num_variables
        self.required = required
        self.budget = budget


class EquivResult(Record):
    equivalent: bool
    counterexample: dict[str, QValue | bool] | None
    assignments_checked: int

    @property
    def verdict(self) -> str:
        return "equivalent" if self.equivalent else "inequivalent"


def _var_spec(exprs: Iterable[Expr]) -> tuple[tuple[str, int], ...]:
    """(name, number of values) of every free variable, sorted by name."""
    qvars, lofvars = free_vars(*exprs)
    return tuple(
        (name, 16 if name in qvars else 2) for name in sorted(qvars | lofvars)
    )


# A BDD edge is an int, (node << 1) | complemented; node 0 is the TRUE
# terminal, so edge 0 is TRUE, edge 1 is FALSE and NOT is ``e ^ 1``.
TRUE, FALSE = 0, 1


class _BDD:
    """A reduced ordered BDD with complement edges (Bryant, IEEE Trans.
    Computers C-35(8), 1986; Brace, Rudell & Bryant, DAC 1990) for one
    check.  ``nodes[n]`` is (level, high, low), level 0 on top: node n goes
    to high if that level's bit is set, else to low.  A stored low edge is
    never complemented, so equal functions get the same edge.  AND alone
    builds nodes; ``least`` finds where functions differ by reading edges.
    """

    def __init__(self, levels: int) -> None:
        self.levels = levels
        # Node 1 + v is the variable at level v; the terminal's level sorts
        # below every variable's.
        self.nodes = [(levels, TRUE, TRUE)]
        self.nodes += [(v, FALSE, TRUE) for v in range(levels)]
        self.unique = {key: n for n, key in enumerate(self.nodes)}
        self.and_cache: dict[int, int] = {}

    def var(self, v: int) -> int:
        """The function that is true where the bit at level v is set."""
        return (v + 1) << 1 | 1

    def cofactor(self, f: int, v: int, bit: int) -> int:
        """f with the bit at level v fixed; f's top level is v or below."""
        fv, high, low = self.nodes[f >> 1]
        return (low, high)[bit] ^ (f & 1) if fv == v else f

    def and_(self, f: int, g: int) -> int:
        if f > g:
            f, g = g, f
        if f == TRUE or f == g:
            return g
        if f == FALSE or f ^ g == 1:
            return FALSE
        key = f << 32 | g
        r = self.and_cache.get(key)
        if r is not None:
            return r
        # Shannon expansion on the top level of f and g.
        fv, fh, fl = self.nodes[f >> 1]
        gv, gh, gl = self.nodes[g >> 1]
        v = fv if fv < gv else gv
        fh, fl = (fh ^ (f & 1), fl ^ (f & 1)) if fv == v else (f, f)
        gh, gl = (gh ^ (g & 1), gl ^ (g & 1)) if gv == v else (g, g)
        high, low = self.and_(fh, gh), self.and_(fl, gl)
        if high == low:
            r = low
        else:
            flip = low & 1
            node = (v, high ^ flip, low ^ flip)
            n = self.unique.get(node)
            if n is None:
                n = self.unique[node] = len(self.nodes)
                self.nodes.append(node)
            r = n << 1 | flip
        self.and_cache[key] = r
        return r

    def or_(self, f: int, g: int) -> int:
        return self.and_(f ^ 1, g ^ 1) ^ 1

    def least(self, fs: Iterable[int], gs: Iterable[int]) -> int | None:
        """The least row where some edge of fs differs from its partner in
        gs, or None if none does.  It builds no node: level by level, the
        row takes the low branch if a pair of low cofactors still differs,
        else the high one, and pairs that agree there are dropped.  Equal
        functions have equal edges, so "differs" is an edge comparison."""
        pairs = [(f, g) for f, g in zip(fs, gs) if f != g]
        row = 0
        while pairs:
            v = min(self.nodes[e >> 1][0] for pair in pairs for e in pair)
            if v == self.levels:
                return row
            for bit in (0, 1):
                sub = [(self.cofactor(f, v, bit), self.cofactor(g, v, bit))
                       for f, g in pairs]
                sub = [(f, g) for f, g in sub if f != g]
                if sub:
                    break
            pairs = sub
            row |= bit << (self.levels - 1 - v)
        return None

    def at(self, f: int, row: int) -> bool:
        """f's value at one row."""
        while f > FALSE:
            v = self.nodes[f >> 1][0]
            f = self.cofactor(f, v, row >> (self.levels - 1 - v) & 1)
        return f == TRUE


# Each operator's signed permutation: the planes it reads and complements.
_ROUTES = {
    g: (itemgetter(*(t - 1 for t in q8_to_signed_perm(g).target)),
        q8_to_signed_perm(g).marked)
    for g in Q8Op
}


class _Planes:
    """Evaluation under every assignment at once.

    A value is four planes, slots a to d; a plane is a BDD edge, the
    function of the row index that gives the slot's state in each row, and
    row r is assignment index r.  Each variable owns a field of the row
    index, the first sorted variable the most significant: four bits for a
    tuple variable, its value's bits with slot a highest, and one bit for a
    slot variable.  Row bit k is BDD level bits - 1 - k, so the first
    sorted variable is on top and the least path is the first row.

    A slot variable's value is four equal planes, its one bit, so a tuple
    literal's slot is plane 0 of that slot's value.
    """

    def __init__(self, spec: tuple[tuple[str, int], ...]) -> None:
        self.spec = spec
        bits = sum(dom.bit_length() - 1 for _, dom in spec)
        self.bdd = _BDD(bits)
        # The planes of each variable's value, and its field's lowest row bit.
        self.vars: dict[str, tuple[int, ...]] = {}
        self.offset: dict[str, int] = {}
        level = 0
        for name, dom in spec:
            width = dom.bit_length() - 1
            masks = tuple(self.bdd.var(level + s) for s in range(width))
            self.vars[name] = masks if width == 4 else masks * 4
            level += width
            self.offset[name] = bits - level
        # Rows where an exponent is not an operator value.
        self.bad = FALSE

    def assignment(self, row: int) -> dict[str, QValue | bool]:
        env: dict[str, QValue | bool] = {}
        for name, dom in self.spec:
            digit = (row >> self.offset[name]) & (dom - 1)
            env[name] = QValue(digit) if dom == 16 else bool(digit)
        return env

    def route(self, g: Q8Op, planes: tuple[int, ...]) -> tuple[int, ...]:
        """The operator g on planes, read off its signed permutation."""
        pick, flips = _ROUTES[g]
        return tuple(map(xor, pick(planes), flips))

    def value(self, e: Expr) -> tuple[int, ...]:
        if isinstance(e, Void):
            return (FALSE, FALSE, FALSE, FALSE)
        if isinstance(e, Var):
            return self.vars[e.name]
        if isinstance(e, Mark):
            return self.route(MARK_OPS[e.sub], self.value(e.body))
        if isinstance(e, Power):
            g = q8_power(MARK_OPS[e.sub], e.exponent)
            return self.route(g, self.value(e.body))
        if isinstance(e, Juxt):
            out = self.value(e.parts[0])
            for p in e.parts[1:]:
                out = tuple(map(self.bdd.or_, out, self.value(p)))
            return out
        if isinstance(e, Tuple4):
            return tuple(self.value(s)[0] for s in e.slots)
        if isinstance(e, ExpApply):
            # An 8-way multiplexer: the rows where the exponent is the
            # value of g take the base routed by g.
            exp = self.value(e.exponent)
            base = self.value(e.base)
            bdd = self.bdd
            out = [FALSE] * 4
            covered = FALSE
            for g in Q8Op:
                sel = TRUE
                for p, bit in zip(exp, op_value(g).slots):
                    sel = bdd.and_(sel, p if bit else p ^ 1)
                if sel != FALSE:
                    covered = bdd.or_(covered, sel)
                    for s, plane in enumerate(self.route(g, base)):
                        out[s] = bdd.or_(out[s], bdd.and_(plane, sel))
            self.bad = bdd.or_(self.bad, covered ^ 1)
            return tuple(out)
        raise TypeError(f"not an expression: {e!r}")


def check_equiv(a: Expr | str, b: Expr | str) -> EquivResult:
    """Decide equivalence over every assignment to the shared free
    variables; on failure return the first counterexample in enumeration
    order (names sorted, values ascending).

    An exponent that is not an operator value raises BadExponentValue, as
    ``semantics.evaluate`` does, if it occurs before the first difference.
    """
    if isinstance(a, str):
        a = parse(a)
    if isinstance(b, str):
        b = parse(b)
    spec = _var_spec((a, b))
    count = 1
    for _, dom in spec:
        count *= dom
    limit = assignment_budget()
    if count > limit:
        raise BudgetExceeded(len(spec), count, limit)

    planes = _Planes(spec)
    bdd = planes.bdd
    sides = planes.value(a), planes.value(b)
    row = bdd.least((*sides[0], planes.bad), (*sides[1], FALSE))
    if row is None:
        return EquivResult(True, None, count)
    env = planes.assignment(row)
    if bdd.at(planes.bad, row):
        # evaluate raises here, with the error the scalar semantics give
        # this assignment.
        evaluate(a, env)
        evaluate(b, env)
        raise AssertionError(f"row {row} has a bad exponent but evaluates")
    return EquivResult(False, env, row + 1)


def env_patterns(env: Mapping[str, QValue | bool] | None) -> dict[str, str] | None:
    if env is None:
        return None
    return {name: value_text(val) for name, val in env.items()}


# ---------------------------------------------------------------------------
# Law suites
# ---------------------------------------------------------------------------

class LawCheck(Verdict, Record):
    name: str
    holds: bool
    counterexample: dict[str, str] | None
    assignments_checked: int
    note: str

    _defaults = {"note": str}


class LawSuiteReport(Report, Record):
    suite: str
    checks: tuple[LawCheck, ...]

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


def _equiv_check(
    name: str, lhs: Expr | str, rhs: Expr | str, note: str = ""
) -> LawCheck:
    res = check_equiv(lhs, rhs)
    return LawCheck(
        name, res.equivalent, env_patterns(res.counterexample),
        res.assignments_checked, note,
    )


def _table_check(
    name: str, key: str, values: Sequence, holds: Callable[..., bool], note: str = ""
) -> LawCheck:
    """A law over a finite table of values: it holds when ``holds(v)`` for
    every value, the first value that fails is the counterexample, and the
    count is the table's length."""
    bad = next((v for v in values if not holds(v)), None)
    ce = None if bad is None else {key: bad.pattern()}
    return LawCheck(name, bad is None, ce, len(values), note)


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


# Q1-Q10 as (id, lhs, rhs, params): the texts are templates in which {a}
# and {b} stand for the subscripts alpha and beta.  The rewrite rule base
# reads this table too.
APPENDIX_B_LAWS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("Q1-SQR", "[[A]{a}]{a}", "[A]", ("alpha",)),
    ("Q2-IJK", "[[[A]i]j]k", "[A]", ()),
    ("Q3-QuadraReflexion", "[A]{a}^4", "A", ("alpha",)),
    ("Q4-MarkCommutes", "[[A]{a}]", "[[A]]{a}", ("alpha",)),
    ("Q5-AntiCommutes", "[[A]{a}]{b}", "[[[A]{b}]{a}]", ("alpha", "beta")),
    ("Q6-SplitGeneration", "[[A]{a} B]{a} C", "[[A C]{a} B]{a} C", ("alpha",)),
    ("Q7-Extraction", "[A []{a}]{a}", "[A]{a} []{a}^3", ("alpha",)),
    (
        "Q8-Disintegration",
        "[A B]{a}",
        "[[[A]{a} [B]{a}] [[A]{a} []{a}^3] [[B]{a} []{a}^3]]",
        ("alpha",),
    ),
    (
        "Q9-RightDistribution",
        "[[A]{a}^3 [B]{a}^3]{a} C",
        "[[A C]{a}^3 [B C]{a}^3]{a}",
        ("alpha",),
    ),
    (
        "Q10-LeftDistribution",
        "C [[A]{a}^3 [B]{a}^3]{a}",
        "[[C A]{a}^3 [C B]{a}^3]{a}",
        ("alpha",),
    ),
)


def appendix_b_laws() -> list[tuple[str, str, str]]:
    """Q1-Q10 instantiated for every applicable alpha (and beta).

    Only Q5 takes two subscripts, and it needs them distinct.
    """
    laws: list[tuple[str, str, str]] = []
    for law_id, lhs, rhs, params in APPENDIX_B_LAWS:
        for subs in permutations(IMAGINARY_SUBS, len(params)):
            fill = dict(zip("ab", subs))
            name = f"{law_id}[{','.join(subs)}]" if subs else law_id
            laws.append((name, lhs.format(**fill), rhs.format(**fill)))
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
            checks.append(
                _table_check(name, "value", (got,), lambda v: v == want, note)
            )
    elif suite == "bf_subspaces":
        checks = _bf_subspace_checks()
    elif suite == "q8_relations":
        checks = _q8_relation_checks()
    else:
        raise ValueError(f"unknown suite {suite!r}; one of {SUITES}")
    return LawSuiteReport(suite, tuple(checks))


def _bf_subspace_checks() -> list[LawCheck]:
    # Pair-mode defining equations, on all four pair values.
    checks = [
        _table_check(
            "Pair-SquareRootOfMark", "pair", ALL_BFVALUES,
            lambda v: bf_apply("i", bf_apply("i", v)) == bf_apply("", v),
            "i-mark twice equals the plain mark",
        ),
        _table_check(
            "Pair-Reflexion", "pair", ALL_BFVALUES,
            lambda v: bf_apply("", bf_apply("", v)) == v,
            "plain mark twice is the identity",
        ),
    ]
    for a in IMAGINARY_SUBS:
        checks += [
            _equiv_check(
                f"SplitGeneration[{a}]", f"[[A]{a} B]{a} C", f"[[A C]{a} B]{a} C"
            ),
            _equiv_check(f"SquareIsMark[{a}]", f"[[A]{a}]{a}", "[A]"),
            _equiv_check(f"PowerSquare[{a}]", f"[A]{a}^2", "[A]"),
            _equiv_check(f"QuadraReflexion[{a}]", f"[A]{a}^4", "A"),
        ]
        for opname, bf_sub, q_sub in (("imaginary", "i", a), ("mark", "", "")):
            checks.append(
                _table_check(
                    f"Embedding[{a}]-{opname}", "pair", ALL_BFVALUES,
                    lambda v: embed_bf(a, bf_apply(bf_sub, v))
                    == apply_op(q_sub, embed_bf(a, v)),
                    f"embedding intertwines the {opname} operation",
                )
            )
    return checks


def _q8_relation_checks() -> list[LawCheck]:
    checks = []
    for g in Q8Op:
        for h in Q8Op:
            r = q8_mul(g, h)
            checks.append(
                _table_check(
                    f"{g.symbol}*{h.symbol}={r.symbol}", "value", ALL_QVALUES,
                    lambda v: q8_apply(h, q8_apply(g, v)) == q8_apply(r, v),
                )
            )
    return checks


# ---------------------------------------------------------------------------
# Distribution matrix
# ---------------------------------------------------------------------------

class DistCell(Verdict, Record):
    op1: str
    op2: str
    trivial: bool
    holds: bool
    counterexample: dict[str, str] | None
    assignments_checked: int


class DistributionReport(Record):
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


def distribution_law(op1: str, op2: str) -> tuple[Expr, Expr]:
    """(A op2 B) op1 C and (A op1 C) op2 (B op1 C): op1 over op2 from the right."""
    A, B, C = Var("A"), Var("B"), Var("C")
    return (
        connective(op1, connective(op2, A, B), C),
        connective(op2, connective(op1, A, C), connective(op1, B, C)),
    )


def left_distribution_law(op1: str, op2: str) -> tuple[Expr, Expr]:
    """A op1 (B op2 C) and (A op1 B) op2 (A op1 C): op1 over op2 from the left."""
    A, B, C = Var("A"), Var("B"), Var("C")
    return (
        connective(op1, A, connective(op2, B, C)),
        connective(op2, connective(op1, A, B), connective(op1, A, C)),
    )


def distribution_matrix() -> DistributionReport:
    """Check every ordered pair of the eight connectives against its
    distribution_law, over all 4096 assignments each."""
    cells = []
    for op1 in CONNECTIVES:
        for op2 in CONNECTIVES:
            res = check_equiv(*distribution_law(op1, op2))
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

class DemoReport(Record):
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

    @property
    def ok(self) -> bool:
        return self.demo1_holds and self.demo2_resolved == "template"

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
    demo1 = check_equiv(*left_distribution_law("or_i", "and_j"))
    lhs2, rhs2 = distribution_law("and_j", "and_k")
    template = check_equiv(lhs2, rhs2)
    A, B, C = Var("A"), Var("B"), Var("C")
    printed = check_equiv(
        lhs2,
        connective("and_k", connective("and_j", A, B), connective("and_j", B, C)),
    )
    return DemoReport(demo1.equivalent, template.equivalent, printed.equivalent)


# ---------------------------------------------------------------------------
# Assertion files
# ---------------------------------------------------------------------------

class AssertionReport(Report, Record):
    checks: tuple[LawCheck, ...]

    def render(self) -> str:
        lines = []
        for c in self.checks:
            status = "holds" if c.holds else "FAILS"
            extra = f"  counterexample {c.counterexample}" if c.counterexample else ""
            lines.append(f"  {c.name:<8} {status:<6} {c.note}{extra}")
        return "\n".join(lines) if lines else "  (no assertions)"


def check_assertions(text: str) -> AssertionReport:
    """Check every `LHS == RHS` line of a .qlf file body."""
    checks = [
        _equiv_check(f"L{line.lineno}", line.lhs, line.rhs, line.source)
        for line in parse_qlf(text)
        if line.rhs is not None
    ]
    return AssertionReport(tuple(checks))

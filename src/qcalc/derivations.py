"""Replayable derivation scripts for the classical identities of the
calculus: the void-level operator relations, the QR chain, the seven
operation-preservation steps, the two non-commutative distribution
demonstrations, and the slot-construction examples.

Each script is built by applying database rules step by step; the
``expect`` checkpoints pin the intermediate terms, so an incorrectly
transcribed step fails at construction time, and ``check_derivation``
re-verifies every step both syntactically and semantically.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from .rewrite import (
    Derivation,
    Step,
    _normalize_subst,
    addressed_children,
    apply_rule,
    find_applications,
)
from .textio import Expr, Juxt, Var, ac_equal, parse, print_expr
from .semantics import connective


class _Script:
    def __init__(self, name: str, start: Expr | str) -> None:
        self.name = name
        self.start = parse(start) if isinstance(start, str) else start
        self.current = self.start
        self.steps: list[Step] = []

    def apply(
        self,
        rule: str,
        direction: str = "ltr",
        subst: Mapping[str, Expr | str] | None = None,
        params: Mapping[str, object] | None = None,
        inside: int | None = None,
    ) -> "_Script":
        subst = _normalize_subst(subst)
        hits = find_applications(self.current, rule, direction, subst, params)
        if inside is not None:
            # Restrict to one stored child of the top-level juxtaposition.
            assert isinstance(self.current, Juxt), self.name
            addr = next(
                i
                for i, (_, stored) in enumerate(addressed_children(self.current))
                if stored == inside
            )
            hits = [h for h in hits if h[:1] == (addr,)]
        if not hits:
            raise AssertionError(
                f"{self.name}: {rule} ({direction}) has no application"
                f" site in {print_expr(self.current)!r}"
            )
        pos = hits[0]
        result = apply_rule(self.current, rule, direction, pos, subst, params)
        self.steps.append(
            Step(
                rule,
                direction,
                pos,
                subst,
                dict(params or {}),
                result,
            )
        )
        self.current = result
        return self

    def expect(self, text: str) -> "_Script":
        want = parse(text)
        if not ac_equal(self.current, want):
            raise AssertionError(
                f"{self.name}: expected {text!r},\n  got {print_expr(self.current)!r}"
            )
        return self

    def done(self, end: Expr | str | None = None) -> Derivation:
        end_expr = self.current
        if end is not None:
            end_expr = parse(end) if isinstance(end, str) else end
            if not ac_equal(self.current, end_expr):
                raise AssertionError(
                    f"{self.name}: ends at {print_expr(self.current)!r},"
                    f" not {print_expr(end_expr) if not isinstance(end, str) else end!r}"
                )
        return Derivation(self.name, self.start, tuple(self.steps), end_expr)


# ---------------------------------------------------------------------------
# Void-level operator relations
# ---------------------------------------------------------------------------

def _void_ijk() -> Derivation:
    s = _Script("void-ijk", "[[[]i]j]k")
    s.apply("C-IJ", subst={"A": ""}).expect("[[]k]k")
    s.apply("Q1-SQR", subst={"A": ""}, params={"alpha": "k"}).expect("[]")
    return s.done("[]")


def _void_neg_i() -> Derivation:
    s = _Script("void-neg-i", "[[]i]")
    s.apply("Q2-IJK", "rtl", {"A": "[]i"}).expect("[[[[]i]i]j]k")
    s.apply("Q1-SQR", subst={"A": ""}, params={"alpha": "i"}).expect("[[[]]j]k")
    s.apply("Q4-MarkCommutes", "rtl", {"A": ""}, {"alpha": "j"}).expect("[[[]j]]k")
    s.apply("Q4-MarkCommutes", "rtl", {"A": "[]j"}, {"alpha": "k"}).expect("[[[]j]k]")
    return s.done("[[[]j]k]")


def _void_i_as_jk() -> Derivation:
    s = _Script("void-i-as-jk", "[]i")
    s.apply("A3-Reflexion", "rtl", {"A": "[]i"}).expect("[[[]i]]")
    s.apply("Q2-IJK", "rtl", {"A": "[]i"}).expect("[[[[[]i]i]j]k]")
    s.apply("Q1-SQR", subst={"A": ""}, params={"alpha": "i"}).expect("[[[[]]j]k]")
    s.apply("Q4-MarkCommutes", "rtl", {"A": ""}, {"alpha": "j"})
    s.apply("Q4-MarkCommutes", "rtl", {"A": "[]j"}, {"alpha": "k"}).expect("[[[[]j]k]]")
    s.apply("A3-Reflexion", subst={"A": "[[]j]k"}).expect("[[]j]k")
    return s.done("[[]j]k")


def _void_jki_hint() -> Derivation:
    s = _Script("void-jki-hint", "[[[]j]k]i")
    s.apply("C-JK", subst={"A": ""}).expect("[[]i]i")
    s.apply("Q1-SQR", subst={"A": ""}, params={"alpha": "i"}).expect("[]")
    return s.done("[]")


def _void_j_as_ki() -> Derivation:
    # The reader exercise, completed along the same lines as void-i-as-jk.
    s = _Script("void-j-as-ki", "[]j")
    s.apply("A3-Reflexion", "rtl", {"A": "[]j"}).expect("[[[]j]]")
    s.apply("C-JKI", "rtl", {"A": "[]j"}).expect("[[[[[]j]j]k]i]")
    s.apply("Q1-SQR", subst={"A": ""}, params={"alpha": "j"}).expect("[[[[]]k]i]")
    s.apply("Q4-MarkCommutes", "rtl", {"A": ""}, {"alpha": "k"}).expect("[[[[]k]]i]")
    s.apply("Q4-MarkCommutes", "rtl", {"A": "[]k"}, {"alpha": "i"}).expect("[[[[]k]i]]")
    s.apply("A3-Reflexion", subst={"A": "[[]k]i"}).expect("[[]k]i")
    return s.done("[[]k]i")


def _void_neg_k_as_ji() -> Derivation:
    s = _Script("void-neg-k-as-ji", "[[]k]")
    s.apply("Q1-SQR", "rtl", {"A": "[]k"}, {"alpha": "i"}).expect("[[[]k]i]i")
    s.apply("C-KI", subst={"A": ""}).expect("[[]j]i")
    return s.done("[[]j]i")


# ---------------------------------------------------------------------------
# The QR chain
# ---------------------------------------------------------------------------

def _qr1() -> Derivation:
    s = _Script("QR1", "[[[X]i]j]k")
    s.apply("C-IJ", subst={"A": "X"}).expect("[[X]k]k")
    s.apply("Q1-SQR", subst={"A": "X"}, params={"alpha": "k"}).expect("[X]")
    return s.done("[X]")


def _qr2() -> Derivation:
    s = _Script("QR2", "[[[X]j]k]")
    s.apply("Q4-MarkCommutes", subst={"A": "[X]j"}, params={"alpha": "k"})
    s.apply("Q4-MarkCommutes", subst={"A": "X"}, params={"alpha": "j"})
    s.expect("[[[X]]j]k")
    s.apply("Q1-SQR", "rtl", {"A": "X"}, {"alpha": "i"}).expect("[[[[X]i]i]j]k")
    s.apply("Q2-IJK", subst={"A": "[X]i"}).expect("[[X]i]")
    s.apply("Q1-SQR", "rtl", {"A": "[X]i"}, {"alpha": "j"}).expect("[[[X]i]j]j")
    s.apply("C-IJ", subst={"A": "X"}).expect("[[X]k]j")
    return s.done("[[X]k]j")


def _qr3() -> Derivation:
    s = _Script("QR3", "[[X]j]k")
    s.apply("A3-Reflexion", "rtl", {"A": "[[X]j]k"}).expect("[[[[X]j]k]]")
    s.apply("Q4-MarkCommutes", subst={"A": "[X]j"}, params={"alpha": "k"})
    s.apply("Q4-MarkCommutes", subst={"A": "X"}, params={"alpha": "j"})
    s.apply("Q1-SQR", "rtl", {"A": "X"}, {"alpha": "i"})
    s.apply("Q2-IJK", subst={"A": "[X]i"}).expect("[[[X]i]]")
    s.apply("A3-Reflexion", subst={"A": "[X]i"}).expect("[X]i")
    return s.done("[X]i")


# ---------------------------------------------------------------------------
# Operation preservation on tuples
# ---------------------------------------------------------------------------

_T = "{a, b, c, d}"
_SLOTS = {"s1": "a", "s2": "b", "s3": "c", "s4": "d"}


def _qcc() -> Derivation:
    s = _Script("QCC", f"[[{_T}]]")
    s.apply("D1-PlainTuple", subst=_SLOTS).expect("[{[a], [b], [c], [d]}]")
    s.apply("D1-PlainTuple", subst={"s1": "[a]", "s2": "[b]", "s3": "[c]", "s4": "[d]"})
    s.expect("{[[a]], [[b]], [[c]], [[d]]}")
    for v in "abcd":
        s.apply("A3-Reflexion", subst={"A": v})
    return s.done(_T)


def _qii() -> Derivation:
    s = _Script("QII", f"[[{_T}]i]i")
    s.apply("D1-ITuple", subst=_SLOTS).expect("[{[b], a, d, [c]}]i")
    s.apply("D1-ITuple", subst={"s1": "[b]", "s2": "a", "s3": "d", "s4": "[c]"})
    s.expect("{[a], [b], [c], [d]}")
    s.apply("D1-PlainTuple", "rtl", _SLOTS).expect(f"[{_T}]")
    return s.done(f"[{_T}]")


def _qij() -> Derivation:
    s = _Script("QIJ", f"[[{_T}]i]j")
    s.apply("D1-ITuple", subst=_SLOTS).expect("[{[b], a, d, [c]}]j")
    s.apply("D1-JTuple", subst={"s1": "[b]", "s2": "a", "s3": "d", "s4": "[c]"})
    s.expect("{[d], [[c]], [b], a}")
    s.apply("A3-Reflexion", subst={"A": "c"}).expect("{[d], c, [b], a}")
    s.apply("D1-KTuple", "rtl", _SLOTS).expect(f"[{_T}]k")
    return s.done(f"[{_T}]k")


def _qijk() -> Derivation:
    s = _Script("QIJK", f"[[[{_T}]i]j]k")
    s.apply("C-IJ", subst={"A": _T}).expect(f"[[{_T}]k]k")
    s.apply("D1-KTuple", subst=_SLOTS).expect("[{[d], c, [b], a}]k")
    s.apply("D1-KTuple", subst={"s1": "[d]", "s2": "c", "s3": "[b]", "s4": "a"})
    s.expect("{[a], [b], [c], [d]}")
    s.apply("D1-PlainTuple", "rtl", _SLOTS).expect(f"[{_T}]")
    return s.done(f"[{_T}]")


def _qji() -> Derivation:
    s = _Script("QJI", f"[[{_T}]j]i")
    s.apply("D1-JTuple", subst=_SLOTS).expect("[{[c], [d], a, b}]i")
    s.apply("D1-ITuple", subst={"s1": "[c]", "s2": "[d]", "s3": "a", "s4": "b"})
    s.expect("{[[d]], [c], b, [a]}")
    s.apply("A3-Reflexion", "rtl", {"A": "b"}).expect("{[[d]], [c], [[b]], [a]}")
    s.apply("D1-PlainTuple", "rtl", {"s1": "[d]", "s2": "c", "s3": "[b]", "s4": "a"})
    s.expect("[{[d], c, [b], a}]")
    s.apply("D1-KTuple", "rtl", _SLOTS).expect(f"[[{_T}]k]")
    s.apply("C-IJ", "rtl", {"A": _T}).expect(f"[[[{_T}]i]j]")
    return s.done(f"[[[{_T}]i]j]")


def _qmc() -> Derivation:
    s = _Script("QMC", f"[[{_T}]i]")
    s.apply("D1-ITuple", subst=_SLOTS).expect("[{[b], a, d, [c]}]")
    s.apply("D1-PlainTuple", subst={"s1": "[b]", "s2": "a", "s3": "d", "s4": "[c]"})
    s.expect("{[[b]], [a], [d], [[c]]}")
    s.apply("D1-ITuple", "rtl", {"s1": "[a]", "s2": "[b]", "s3": "[c]", "s4": "[d]"})
    s.expect("[{[a], [b], [c], [d]}]i")
    s.apply("D1-PlainTuple", "rtl", _SLOTS).expect(f"[[{_T}]]i")
    return s.done(f"[[{_T}]]i")


def _qinv(alpha: str) -> Derivation:
    s = _Script(f"QINV-{alpha}", f"[[[{_T}]{alpha}]{alpha}]")
    s.apply("Q1-SQR", subst={"A": _T}, params={"alpha": alpha}).expect(f"[[{_T}]]")
    s.apply("A3-Reflexion", subst={"A": _T}).expect(_T)
    return s.done(_T)


# ---------------------------------------------------------------------------
# The two non-commutative distribution demonstrations
# ---------------------------------------------------------------------------

def _demo_or_i_over_and_j() -> Derivation:
    A, B, C = Var("A"), Var("B"), Var("C")
    start = connective("or_i", A, connective("and_j", B, C))
    end = connective(
        "and_j", connective("or_i", A, B), connective("or_i", A, C)
    )
    s = _Script("distribute-or_i-over-and_j", start)
    s.expect("[[A]i^3 [[[B]j [C]j]j^3]i^3]i")
    s.apply(
        "QCOMP",
        subst={"A": "[B]j [C]j"},
        params={"alpha": "j", "m": 3, "beta": "i", "n": 3},
    ).expect("[[A]i^3 [[B]j [C]j]k^3]i")
    s.apply("QCOMP", "rtl", {"A": "B"}, {"alpha": "i", "m": 3, "beta": "k", "n": 1})
    s.apply("QCOMP", "rtl", {"A": "C"}, {"alpha": "i", "m": 3, "beta": "k", "n": 1})
    s.expect("[[A]i^3 [[[B]i^3]k [[C]i^3]k]k^3]i")
    s.apply(
        "QD-AndDistribution",
        subst={"A": "[B]i^3", "B": "[C]i^3", "C": "[A]i^3"},
        params={"alpha": "k"},
    ).expect("[[[[A]i^3 [B]i^3]k [[A]i^3 [C]i^3]k]k^3]i")
    s.apply(
        "QCOMP",
        subst={"A": "[[A]i^3 [B]i^3]k [[A]i^3 [C]i^3]k"},
        params={"alpha": "k", "m": 3, "beta": "i", "n": 1},
    ).expect("[[[A]i^3 [B]i^3]k [[A]i^3 [C]i^3]k]j^3")
    s.apply(
        "QCOMP", "rtl", {"A": "[A]i^3 [B]i^3"},
        {"alpha": "i", "m": 1, "beta": "j", "n": 1},
    )
    s.apply(
        "QCOMP", "rtl", {"A": "[A]i^3 [C]i^3"},
        {"alpha": "i", "m": 1, "beta": "j", "n": 1},
    )
    s.expect("[[[[A]i^3 [B]i^3]i]j [[[A]i^3 [C]i^3]i]j]j^3")
    return s.done(end)


def _demo_and_j_over_and_k() -> Derivation:
    # The transcribed final line of this demonstration disagrees with the
    # distribution template; the template form is the one the exhaustive
    # check validates, and it is what this script derives.
    A, B, C = Var("A"), Var("B"), Var("C")
    start = connective("and_j", connective("and_k", A, B), C)
    end = connective(
        "and_k", connective("and_j", A, C), connective("and_j", B, C)
    )
    s = _Script("distribute-and_j-over-and_k", start)
    s.expect("[[[[A]k [B]k]k^3]j [C]j]j^3")
    s.apply(
        "QCOMP",
        subst={"A": "[A]k [B]k"},
        params={"alpha": "k", "m": 3, "beta": "j", "n": 1},
    ).expect("[[[A]k [B]k]i [C]j]j^3")
    s.apply("QCOMP", "rtl", {"A": "A"}, {"alpha": "j", "m": 1, "beta": "i", "n": 3})
    s.apply("QCOMP", "rtl", {"A": "B"}, {"alpha": "j", "m": 1, "beta": "i", "n": 3})
    s.expect("[[[[A]j]i^3 [[B]j]i^3]i [C]j]j^3")
    s.apply(
        "Q9-RightDistribution",
        subst={"A": "[A]j", "B": "[B]j", "C": "[C]j"},
        params={"alpha": "i"},
    ).expect("[[[[A]j [C]j]i^3 [[B]j [C]j]i^3]i]j^3")
    s.apply(
        "QCOMP",
        subst={"A": "[[A]j [C]j]i^3 [[B]j [C]j]i^3"},
        params={"alpha": "i", "m": 1, "beta": "j", "n": 3},
    ).expect("[[[A]j [C]j]i^3 [[B]j [C]j]i^3]k^3")
    s.apply(
        "QCOMP", "rtl", {"A": "[A]j [C]j"},
        {"alpha": "j", "m": 3, "beta": "k", "n": 1},
    )
    s.apply(
        "QCOMP", "rtl", {"A": "[B]j [C]j"},
        {"alpha": "j", "m": 3, "beta": "k", "n": 1},
    )
    s.expect("[[[[A]j [C]j]j^3]k [[[B]j [C]j]j^3]k]k^3")
    return s.done(end)


# ---------------------------------------------------------------------------
# Interference-pattern constructions
# ---------------------------------------------------------------------------

def _example_mark_third_slot() -> Derivation:
    s = _Script(
        "mark-third-slot",
        f"[{_T} []i []j] [[{_T}] [[]i []j]]",
    )
    # First factor: build the blocking pattern, absorb it, unwrap.
    s.apply("E-EmptyI", inside=0)
    s.apply("E-EmptyJ", inside=0)
    s.apply(
        "D2-JuxtTuple",
        subst={"s1": "[]", "s2": "", "s3": "", "s4": "[]",
               "t1": "[]", "t2": "[]", "t3": "", "t4": ""},
        inside=0,
    )
    s.apply("A7-Iteration", subst={"A": "[]"}, inside=0)
    s.expect(f"[{_T} {{[], [], , []}}] [[{_T}] [[]i []j]]")
    s.apply(
        "D2-JuxtTuple",
        subst={"s1": "a", "s2": "b", "s3": "c", "s4": "d",
               "t1": "[]", "t2": "[]", "t3": "", "t4": "[]"},
        inside=0,
    )
    for v in ("a", "b", "d"):
        s.apply("A5-Integration", subst={"A": v}, inside=0)
    s.expect(f"[{{[], [], c, []}}] [[{_T}] [[]i []j]]")
    s.apply(
        "D1-PlainTuple",
        subst={"s1": "[]", "s2": "[]", "s3": "c", "s4": "[]"},
        inside=0,
    )
    for _ in range(3):
        s.apply("A3-Reflexion", subst={"A": ""}, inside=0)
    s.expect(f"{{, , [c], }} [[{_T}] [[]i []j]]")
    # Second factor: same pattern under one more mark.
    s.apply("E-EmptyI", inside=1)
    s.apply("E-EmptyJ", inside=1)
    s.apply(
        "D2-JuxtTuple",
        subst={"s1": "[]", "s2": "", "s3": "", "s4": "[]",
               "t1": "[]", "t2": "[]", "t3": "", "t4": ""},
        inside=1,
    )
    s.apply("A7-Iteration", subst={"A": "[]"}, inside=1)
    s.expect(f"{{, , [c], }} [[{_T}] [{{[], [], , []}}]]")
    s.apply("D1-PlainTuple", subst=_SLOTS, inside=1)
    s.apply(
        "D1-PlainTuple",
        subst={"s1": "[]", "s2": "[]", "s3": "", "s4": "[]"},
        inside=1,
    )
    for _ in range(3):
        s.apply("A3-Reflexion", subst={"A": ""}, inside=1)
    s.expect("{, , [c], } [{[a], [b], [c], [d]} {, , [], }]")
    s.apply(
        "D2-JuxtTuple",
        subst={"s1": "[a]", "s2": "[b]", "s3": "[c]", "s4": "[d]",
               "t1": "", "t2": "", "t3": "[]", "t4": ""},
        inside=1,
    )
    s.apply("A5-Integration", subst={"A": "[c]"}, inside=1)
    s.expect("{, , [c], } [{[a], [b], [], [d]}]")
    s.apply(
        "D1-PlainTuple",
        subst={"s1": "[a]", "s2": "[b]", "s3": "[]", "s4": "[d]"},
        inside=1,
    )
    for v in ("a", "b", "", "d"):
        s.apply("A3-Reflexion", subst={"A": v}, inside=1)
    s.expect("{, , [c], } {a, b, , d}")
    s.apply(
        "D2-JuxtTuple",
        subst={"s1": "", "s2": "", "s3": "[c]", "s4": "",
               "t1": "a", "t2": "b", "t3": "", "t4": "d"},
    )
    return s.done("{a, b, [c], d}")


def _example_permute() -> Derivation:
    s = _Script(
        "permute-to-adbc",
        f"[[{_T}] []i^3 []j^3] [[{_T}]j []i []k] [[{_T}]i []j []k] [[{_T}]k []i []j]",
    )
    # Factor 1 extracts slot a.
    s.apply("D1-PlainTuple", subst=_SLOTS, inside=0)
    s.apply("E-EmptyI3", inside=0)
    s.apply("E-EmptyJ3", inside=0)
    s.apply(
        "D2-JuxtTuple",
        subst={"s1": "", "s2": "[]", "s3": "[]", "s4": "",
               "t1": "", "t2": "", "t3": "[]", "t4": "[]"},
        inside=0,
    )
    s.apply("A7-Iteration", subst={"A": "[]"}, inside=0)
    s.expect(
        f"[{{[a], [b], [c], [d]}} {{, [], [], []}}]"
        f" [[{_T}]j []i []k] [[{_T}]i []j []k] [[{_T}]k []i []j]"
    )
    s.apply(
        "D2-JuxtTuple",
        subst={"s1": "[a]", "s2": "[b]", "s3": "[c]", "s4": "[d]",
               "t1": "", "t2": "[]", "t3": "[]", "t4": "[]"},
        inside=0,
    )
    for v in ("[b]", "[c]", "[d]"):
        s.apply("A5-Integration", subst={"A": v}, inside=0)
    s.expect(
        f"[{{[a], [], [], []}}]"
        f" [[{_T}]j []i []k] [[{_T}]i []j []k] [[{_T}]k []i []j]"
    )
    # Factor 2 extracts slot d into position 2.
    s.apply("D1-JTuple", subst=_SLOTS, inside=1)
    s.apply("E-EmptyI", inside=1)
    s.apply("E-EmptyK", inside=1)
    s.apply(
        "D2-JuxtTuple",
        subst={"s1": "[]", "s2": "", "s3": "", "s4": "[]",
               "t1": "[]", "t2": "", "t3": "[]", "t4": ""},
        inside=1,
    )
    s.apply("A7-Iteration", subst={"A": "[]"}, inside=1)
    s.expect(
        f"[{{[a], [], [], []}}] [{{[c], [d], a, b}} {{[], , [], []}}]"
        f" [[{_T}]i []j []k] [[{_T}]k []i []j]"
    )
    s.apply(
        "D2-JuxtTuple",
        subst={"s1": "[c]", "s2": "[d]", "s3": "a", "s4": "b",
               "t1": "[]", "t2": "", "t3": "[]", "t4": "[]"},
        inside=1,
    )
    for v in ("[c]", "a", "b"):
        s.apply("A5-Integration", subst={"A": v}, inside=1)
    s.expect(
        f"[{{[a], [], [], []}}] [{{[], [d], [], []}}]"
        f" [[{_T}]i []j []k] [[{_T}]k []i []j]"
    )
    # Factor 3 extracts slot c into position 4.
    s.apply("D1-ITuple", subst=_SLOTS, inside=2)
    s.apply("E-EmptyJ", inside=2)
    s.apply("E-EmptyK", inside=2)
    s.apply(
        "D2-JuxtTuple",
        subst={"s1": "[]", "s2": "[]", "s3": "", "s4": "",
               "t1": "[]", "t2": "", "t3": "[]", "t4": ""},
        inside=2,
    )
    s.apply("A7-Iteration", subst={"A": "[]"}, inside=2)
    s.apply(
        "D2-JuxtTuple",
        subst={"s1": "[b]", "s2": "a", "s3": "d", "s4": "[c]",
               "t1": "[]", "t2": "[]", "t3": "[]", "t4": ""},
        inside=2,
    )
    for v in ("[b]", "a", "d"):
        s.apply("A5-Integration", subst={"A": v}, inside=2)
    s.expect(
        f"[{{[a], [], [], []}}] [{{[], [d], [], []}}] [{{[], [], [], [c]}}]"
        f" [[{_T}]k []i []j]"
    )
    # Unwrap the first three factors.
    s.apply(
        "D1-PlainTuple",
        subst={"s1": "[a]", "s2": "[]", "s3": "[]", "s4": "[]"},
        inside=0,
    )
    s.apply("A3-Reflexion", subst={"A": "a"}, inside=0)
    for _ in range(3):
        s.apply("A3-Reflexion", subst={"A": ""}, inside=0)
    s.apply(
        "D1-PlainTuple",
        subst={"s1": "[]", "s2": "[d]", "s3": "[]", "s4": "[]"},
        inside=1,
    )
    s.apply("A3-Reflexion", subst={"A": "d"}, inside=1)
    for _ in range(3):
        s.apply("A3-Reflexion", subst={"A": ""}, inside=1)
    s.apply(
        "D1-PlainTuple",
        subst={"s1": "[]", "s2": "[]", "s3": "[]", "s4": "[c]"},
        inside=2,
    )
    s.apply("A3-Reflexion", subst={"A": "c"}, inside=2)
    for _ in range(3):
        s.apply("A3-Reflexion", subst={"A": ""}, inside=2)
    s.expect(
        f"{{a, , , }} {{, d, , }} {{, , , c}} [[{_T}]k []i []j]"
    )
    # Factor 4 extracts slot b into position 3.
    s.apply("D1-KTuple", subst=_SLOTS, inside=3)
    s.apply("E-EmptyI", inside=3)
    s.apply("E-EmptyJ", inside=3)
    s.apply(
        "D2-JuxtTuple",
        subst={"s1": "[]", "s2": "", "s3": "", "s4": "[]",
               "t1": "[]", "t2": "[]", "t3": "", "t4": ""},
        inside=3,
    )
    s.apply("A7-Iteration", subst={"A": "[]"}, inside=3)
    s.expect(
        "{a, , , } {, d, , } {, , , c} [{[d], c, [b], a} {[], [], , []}]"
    )
    s.apply(
        "D2-JuxtTuple",
        subst={"s1": "[d]", "s2": "c", "s3": "[b]", "s4": "a",
               "t1": "[]", "t2": "[]", "t3": "", "t4": "[]"},
        inside=3,
    )
    for v in ("[d]", "c", "a"):
        s.apply("A5-Integration", subst={"A": v}, inside=3)
    s.expect("{a, , , } {, d, , } {, , , c} [{[], [], [b], []}]")
    s.apply(
        "D1-PlainTuple",
        subst={"s1": "[]", "s2": "[]", "s3": "[b]", "s4": "[]"},
        inside=3,
    )
    s.apply("A3-Reflexion", subst={"A": "b"}, inside=3)
    for _ in range(3):
        s.apply("A3-Reflexion", subst={"A": ""}, inside=3)
    s.expect("{a, , , } {, d, , } {, , , c} {, , b, }")
    # Collapse the four extracted slots.
    s.apply(
        "D2-JuxtTuple",
        subst={"s1": "a", "s2": "", "s3": "", "s4": "",
               "t1": "", "t2": "d", "t3": "", "t4": ""},
    )
    s.apply(
        "D2-JuxtTuple",
        subst={"s1": "a", "s2": "d", "s3": "", "s4": "",
               "t1": "", "t2": "", "t3": "", "t4": "c"},
    )
    s.apply(
        "D2-JuxtTuple",
        subst={"s1": "a", "s2": "d", "s3": "", "s4": "c",
               "t1": "", "t2": "", "t3": "b", "t4": ""},
    )
    return s.done("{a, d, b, c}")


def _example_conjunction() -> Derivation:
    # Conjunction of the two constructed tuples; the third slot of the end
    # term is the exhaustively confirmed form.
    s = _Script("conjunction-exercise", "[[{a, b, [c], d}] [{a, d, b, c}]]")
    s.apply("D1-PlainTuple", subst={"s1": "a", "s2": "b", "s3": "[c]", "s4": "d"})
    s.apply("D1-PlainTuple", subst={"s1": "a", "s2": "d", "s3": "b", "s4": "c"})
    s.expect("[{[a], [b], [[c]], [d]} {[a], [d], [b], [c]}]")
    s.apply(
        "D2-JuxtTuple",
        subst={"s1": "[a]", "s2": "[b]", "s3": "[[c]]", "s4": "[d]",
               "t1": "[a]", "t2": "[d]", "t3": "[b]", "t4": "[c]"},
    )
    s.apply("A7-Iteration", subst={"A": "[a]"})
    s.apply("A3-Reflexion", subst={"A": "c"})
    s.expect("[{[a], [b] [d], c [b], [d] [c]}]")
    s.apply(
        "D1-PlainTuple",
        subst={"s1": "[a]", "s2": "[b] [d]", "s3": "c [b]", "s4": "[d] [c]"},
    )
    s.apply("A3-Reflexion", subst={"A": "a"})
    return s.done("{a, [[b] [d]], [[b] c], [[c] [d]]}")


@lru_cache(maxsize=1)
def builtin_derivations() -> tuple[Derivation, ...]:
    """All bundled derivation scripts; each passes check_derivation."""
    return (
        _void_ijk(),
        _void_neg_i(),
        _void_i_as_jk(),
        _void_jki_hint(),
        _void_j_as_ki(),
        _void_neg_k_as_ji(),
        _qr1(),
        _qr2(),
        _qr3(),
        _qcc(),
        _qii(),
        _qij(),
        _qijk(),
        _qji(),
        _qmc(),
        _qinv("i"),
        _qinv("j"),
        _qinv("k"),
        _demo_or_i_over_and_j(),
        _demo_and_j_over_and_k(),
        _example_mark_third_slot(),
        _example_permute(),
        _example_conjunction(),
    )


def builtin_derivation(name: str) -> Derivation:
    for d in builtin_derivations():
        if d.name == name:
            return d
    raise KeyError(f"no builtin derivation named {name!r}")

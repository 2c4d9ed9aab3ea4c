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

from .rewrite import Derivation, Step, _applications, addressed_children
from .textio import Expr, Juxt, ac_equal, parse, print_expr
from .verifier import distribution_law, left_distribution_law


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
        """Apply the rule at its first site, in preorder and address order;
        `inside` names a stored child of the top-level juxtaposition to
        search instead.  Without a subst, the rule's metavariables take
        their first match there."""
        at: tuple[int, ...] = ()
        if inside is not None:
            stored = [i for _, i in addressed_children(self.current)]
            if not isinstance(self.current, Juxt) or inside not in stored:
                raise ValueError(
                    f"{self.name}: inside={inside!r} is not a child of the"
                    f" juxtaposition {print_expr(self.current)!r}"
                )
            at = (stored.index(inside),)
        hit = next(_applications(self.current, rule, direction, subst, params, at), None)
        if hit is None:
            raise AssertionError(
                f"{self.name}: {rule} ({direction}) has no application"
                f" site in {print_expr(self.current)!r}"
            )
        pos, full_subst, result = hit
        self.steps.append(
            Step(rule, direction, pos, full_subst, dict(params or {}), result)
        )
        self.current = result
        return self

    def expect(self, want: Expr | str) -> "_Script":
        want = parse(want) if isinstance(want, str) else want
        if not ac_equal(self.current, want):
            raise AssertionError(
                f"{self.name}: expected {print_expr(want)!r},"
                f"\n  got {print_expr(self.current)!r}"
            )
        return self

    def done(self, end: Expr | str) -> Derivation:
        end = parse(end) if isinstance(end, str) else end
        self.expect(end)
        return Derivation(self.name, self.start, tuple(self.steps), end)


# ---------------------------------------------------------------------------
# Void-level operator relations
# ---------------------------------------------------------------------------

def _void_ijk() -> Derivation:
    s = _Script("void-ijk", "[[[]i]j]k")
    s.apply("C-IJ").expect("[[]k]k")
    s.apply("Q1-SQR", params={"alpha": "k"})
    return s.done("[]")


def _void_neg_i() -> Derivation:
    s = _Script("void-neg-i", "[[]i]")
    s.apply("Q2-IJK", "rtl").expect("[[[[]i]i]j]k")
    s.apply("Q1-SQR", params={"alpha": "i"}).expect("[[[]]j]k")
    s.apply("Q4-MarkCommutes", "rtl", params={"alpha": "j"}).expect("[[[]j]]k")
    s.apply("Q4-MarkCommutes", "rtl", params={"alpha": "k"})
    return s.done("[[[]j]k]")


def _void_i_as_jk() -> Derivation:
    s = _Script("void-i-as-jk", "[]i")
    s.apply("A3-Reflexion", "rtl").expect("[[[]i]]")
    s.apply("Q2-IJK", "rtl", {"A": "[]i"}).expect("[[[[[]i]i]j]k]")
    s.apply("Q1-SQR", params={"alpha": "i"}).expect("[[[[]]j]k]")
    s.apply("Q4-MarkCommutes", "rtl", params={"alpha": "j"})
    s.apply("Q4-MarkCommutes", "rtl", params={"alpha": "k"}).expect("[[[[]j]k]]")
    s.apply("A3-Reflexion")
    return s.done("[[]j]k")


def _void_jki_hint() -> Derivation:
    s = _Script("void-jki-hint", "[[[]j]k]i")
    s.apply("C-JK").expect("[[]i]i")
    s.apply("Q1-SQR", params={"alpha": "i"})
    return s.done("[]")


def _void_j_as_ki() -> Derivation:
    # The reader exercise, completed along the same lines as void-i-as-jk.
    s = _Script("void-j-as-ki", "[]j")
    s.apply("A3-Reflexion", "rtl").expect("[[[]j]]")
    s.apply("C-JKI", "rtl", {"A": "[]j"}).expect("[[[[[]j]j]k]i]")
    s.apply("Q1-SQR", params={"alpha": "j"}).expect("[[[[]]k]i]")
    s.apply("Q4-MarkCommutes", "rtl", params={"alpha": "k"}).expect("[[[[]k]]i]")
    s.apply("Q4-MarkCommutes", "rtl", params={"alpha": "i"}).expect("[[[[]k]i]]")
    s.apply("A3-Reflexion")
    return s.done("[[]k]i")


def _void_neg_k_as_ji() -> Derivation:
    s = _Script("void-neg-k-as-ji", "[[]k]")
    s.apply("Q1-SQR", "rtl", params={"alpha": "i"}).expect("[[[]k]i]i")
    s.apply("C-KI")
    return s.done("[[]j]i")


# ---------------------------------------------------------------------------
# The QR chain
# ---------------------------------------------------------------------------

def _qr1() -> Derivation:
    s = _Script("QR1", "[[[X]i]j]k")
    s.apply("C-IJ").expect("[[X]k]k")
    s.apply("Q1-SQR", params={"alpha": "k"})
    return s.done("[X]")


def _qr2() -> Derivation:
    s = _Script("QR2", "[[[X]j]k]")
    s.apply("Q4-MarkCommutes", params={"alpha": "k"})
    s.apply("Q4-MarkCommutes", params={"alpha": "j"})
    s.expect("[[[X]]j]k")
    s.apply("Q1-SQR", "rtl", params={"alpha": "i"}).expect("[[[[X]i]i]j]k")
    s.apply("Q2-IJK").expect("[[X]i]")
    s.apply("Q1-SQR", "rtl", params={"alpha": "j"}).expect("[[[X]i]j]j")
    s.apply("C-IJ")
    return s.done("[[X]k]j")


def _qr3() -> Derivation:
    s = _Script("QR3", "[[X]j]k")
    s.apply("A3-Reflexion", "rtl").expect("[[[[X]j]k]]")
    s.apply("Q4-MarkCommutes", params={"alpha": "k"})
    s.apply("Q4-MarkCommutes", params={"alpha": "j"})
    s.apply("Q1-SQR", "rtl", {"A": "X"}, {"alpha": "i"})
    s.apply("Q2-IJK").expect("[[[X]i]]")
    s.apply("A3-Reflexion")
    return s.done("[X]i")


# ---------------------------------------------------------------------------
# Operation preservation on tuples
# ---------------------------------------------------------------------------

_T = "{a, b, c, d}"


def _slots(literals: str) -> dict[str, Expr]:
    """The substitution of D1 or D2 that binds s1..s4, then t1..t4, to the
    slots of the tuple literals given, in the order written."""
    e = parse(literals)
    return {
        f"{name}{i}": slot
        for name, literal in zip("st", e.parts if isinstance(e, Juxt) else (e,))
        for i, slot in enumerate(literal.slots, 1)
    }


def _qcc() -> Derivation:
    s = _Script("QCC", f"[[{_T}]]")
    s.apply("D1-PlainTuple").expect("[{[a], [b], [c], [d]}]")
    s.apply("D1-PlainTuple")
    s.expect("{[[a]], [[b]], [[c]], [[d]]}")
    for _ in range(4):
        s.apply("A3-Reflexion")
    return s.done(_T)


def _qii() -> Derivation:
    s = _Script("QII", f"[[{_T}]i]i")
    s.apply("D1-ITuple").expect("[{[b], a, d, [c]}]i")
    s.apply("D1-ITuple")
    s.expect("{[a], [b], [c], [d]}")
    s.apply("D1-PlainTuple", "rtl")
    return s.done(f"[{_T}]")


def _qij() -> Derivation:
    s = _Script("QIJ", f"[[{_T}]i]j")
    s.apply("D1-ITuple").expect("[{[b], a, d, [c]}]j")
    s.apply("D1-JTuple")
    s.expect("{[d], [[c]], [b], a}")
    s.apply("A3-Reflexion").expect("{[d], c, [b], a}")
    s.apply("D1-KTuple", "rtl")
    return s.done(f"[{_T}]k")


def _qijk() -> Derivation:
    s = _Script("QIJK", f"[[[{_T}]i]j]k")
    s.apply("C-IJ").expect(f"[[{_T}]k]k")
    s.apply("D1-KTuple").expect("[{[d], c, [b], a}]k")
    s.apply("D1-KTuple")
    s.expect("{[a], [b], [c], [d]}")
    s.apply("D1-PlainTuple", "rtl")
    return s.done(f"[{_T}]")


def _qji() -> Derivation:
    s = _Script("QJI", f"[[{_T}]j]i")
    s.apply("D1-JTuple").expect("[{[c], [d], a, b}]i")
    s.apply("D1-ITuple")
    s.expect("{[[d]], [c], b, [a]}")
    s.apply("A3-Reflexion", "rtl", {"A": "b"}).expect("{[[d]], [c], [[b]], [a]}")
    s.apply("D1-PlainTuple", "rtl")
    s.expect("[{[d], c, [b], a}]")
    s.apply("D1-KTuple", "rtl").expect(f"[[{_T}]k]")
    s.apply("C-IJ", "rtl")
    return s.done(f"[[[{_T}]i]j]")


def _qmc() -> Derivation:
    s = _Script("QMC", f"[[{_T}]i]")
    s.apply("D1-ITuple").expect("[{[b], a, d, [c]}]")
    s.apply("D1-PlainTuple")
    s.expect("{[[b]], [a], [d], [[c]]}")
    s.apply("D1-ITuple", "rtl")
    s.expect("[{[a], [b], [c], [d]}]i")
    s.apply("D1-PlainTuple", "rtl")
    return s.done(f"[[{_T}]]i")


def _qinv(alpha: str) -> Derivation:
    s = _Script(f"QINV-{alpha}", f"[[[{_T}]{alpha}]{alpha}]")
    s.apply("Q1-SQR", params={"alpha": alpha}).expect(f"[[{_T}]]")
    s.apply("A3-Reflexion")
    return s.done(_T)


# ---------------------------------------------------------------------------
# The two non-commutative distribution demonstrations
# ---------------------------------------------------------------------------

def _demo_or_i_over_and_j() -> Derivation:
    start, end = left_distribution_law("or_i", "and_j")
    s = _Script("distribute-or_i-over-and_j", start)
    s.expect("[[A]i^3 [[[B]j [C]j]j^3]i^3]i")
    s.apply("QCOMP", params={"alpha": "j", "m": 3, "beta": "i", "n": 3})
    s.expect("[[A]i^3 [[B]j [C]j]k^3]i")
    s.apply("QCOMP", "rtl", params={"alpha": "i", "m": 3, "beta": "k", "n": 1})
    s.apply("QCOMP", "rtl", params={"alpha": "i", "m": 3, "beta": "k", "n": 1})
    s.expect("[[A]i^3 [[[B]i^3]k [[C]i^3]k]k^3]i")
    s.apply("QD-AndDistribution", params={"alpha": "k"})
    s.expect("[[[[A]i^3 [B]i^3]k [[A]i^3 [C]i^3]k]k^3]i")
    s.apply(
        "QCOMP",
        subst={"A": "[[A]i^3 [B]i^3]k [[A]i^3 [C]i^3]k"},
        params={"alpha": "k", "m": 3, "beta": "i", "n": 1},
    ).expect("[[[A]i^3 [B]i^3]k [[A]i^3 [C]i^3]k]j^3")
    s.apply("QCOMP", "rtl", params={"alpha": "i", "m": 1, "beta": "j", "n": 1})
    s.apply("QCOMP", "rtl", params={"alpha": "i", "m": 1, "beta": "j", "n": 1})
    s.expect("[[[[A]i^3 [B]i^3]i]j [[[A]i^3 [C]i^3]i]j]j^3")
    return s.done(end)


def _demo_and_j_over_and_k() -> Derivation:
    # The transcribed final line of this demonstration disagrees with the
    # distribution template; the template form is the one the exhaustive
    # check validates, and it is what this script derives.
    start, end = distribution_law("and_j", "and_k")
    s = _Script("distribute-and_j-over-and_k", start)
    s.expect("[[[[A]k [B]k]k^3]j [C]j]j^3")
    s.apply("QCOMP", params={"alpha": "k", "m": 3, "beta": "j", "n": 1})
    s.expect("[[[A]k [B]k]i [C]j]j^3")
    s.apply("QCOMP", "rtl", params={"alpha": "j", "m": 1, "beta": "i", "n": 3})
    s.apply("QCOMP", "rtl", params={"alpha": "j", "m": 1, "beta": "i", "n": 3})
    s.expect("[[[[A]j]i^3 [[B]j]i^3]i [C]j]j^3")
    s.apply("Q9-RightDistribution", params={"alpha": "i"})
    s.expect("[[[[A]j [C]j]i^3 [[B]j [C]j]i^3]i]j^3")
    s.apply("QCOMP", params={"alpha": "i", "m": 1, "beta": "j", "n": 3})
    s.expect("[[[A]j [C]j]i^3 [[B]j [C]j]i^3]k^3")
    s.apply("QCOMP", "rtl", params={"alpha": "j", "m": 3, "beta": "k", "n": 1})
    s.apply("QCOMP", "rtl", params={"alpha": "j", "m": 3, "beta": "k", "n": 1})
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
    s.apply("D2-JuxtTuple", inside=0)
    s.apply("A7-Iteration", inside=0)
    s.expect(f"[{_T} {{[], [], , []}}] [[{_T}] [[]i []j]]")
    s.apply("D2-JuxtTuple", subst=_slots("{a, b, c, d} {[], [], , []}"), inside=0)
    for _ in range(3):
        s.apply("A5-Integration", inside=0)
    s.expect(f"[{{[], [], c, []}}] [[{_T}] [[]i []j]]")
    s.apply("D1-PlainTuple", inside=0)
    for _ in range(3):
        s.apply("A3-Reflexion", inside=0)
    s.expect(f"{{, , [c], }} [[{_T}] [[]i []j]]")
    # Second factor: same pattern under one more mark.
    s.apply("E-EmptyI", inside=1)
    s.apply("E-EmptyJ", inside=1)
    s.apply("D2-JuxtTuple", inside=1)
    s.apply("A7-Iteration", inside=1)
    s.expect(f"{{, , [c], }} [[{_T}] [{{[], [], , []}}]]")
    s.apply("D1-PlainTuple", subst=_slots(_T), inside=1)
    s.apply("D1-PlainTuple", inside=1)
    for _ in range(3):
        s.apply("A3-Reflexion", inside=1)
    s.expect("{, , [c], } [{[a], [b], [c], [d]} {, , [], }]")
    s.apply("D2-JuxtTuple", subst=_slots("{[a], [b], [c], [d]} {, , [], }"), inside=1)
    s.apply("A5-Integration", inside=1)
    s.expect("{, , [c], } [{[a], [b], [], [d]}]")
    s.apply("D1-PlainTuple", inside=1)
    for _ in range(4):
        s.apply("A3-Reflexion", inside=1)
    s.expect("{, , [c], } {a, b, , d}")
    s.apply("D2-JuxtTuple")
    return s.done("{a, b, [c], d}")


def _example_permute() -> Derivation:
    s = _Script(
        "permute-to-adbc",
        f"[[{_T}] []i^3 []j^3] [[{_T}]j []i []k] [[{_T}]i []j []k] [[{_T}]k []i []j]",
    )
    # Factor 1 extracts slot a.
    s.apply("D1-PlainTuple", inside=0)
    s.apply("E-EmptyI3", inside=0)
    s.apply("E-EmptyJ3", inside=0)
    s.apply("D2-JuxtTuple", subst=_slots("{, [], [], } {, , [], []}"), inside=0)
    s.apply("A7-Iteration", inside=0)
    s.expect(
        f"[{{[a], [b], [c], [d]}} {{, [], [], []}}]"
        f" [[{_T}]j []i []k] [[{_T}]i []j []k] [[{_T}]k []i []j]"
    )
    s.apply(
        "D2-JuxtTuple", subst=_slots("{[a], [b], [c], [d]} {, [], [], []}"), inside=0
    )
    for _ in range(3):
        s.apply("A5-Integration", inside=0)
    s.expect(
        f"[{{[a], [], [], []}}]"
        f" [[{_T}]j []i []k] [[{_T}]i []j []k] [[{_T}]k []i []j]"
    )
    # Factor 2 extracts slot d into position 2.
    s.apply("D1-JTuple", inside=1)
    s.apply("E-EmptyI", inside=1)
    s.apply("E-EmptyK", inside=1)
    s.apply("D2-JuxtTuple", inside=1)
    s.apply("A7-Iteration", inside=1)
    s.expect(
        f"[{{[a], [], [], []}}] [{{[c], [d], a, b}} {{[], , [], []}}]"
        f" [[{_T}]i []j []k] [[{_T}]k []i []j]"
    )
    s.apply("D2-JuxtTuple", subst=_slots("{[c], [d], a, b} {[], , [], []}"), inside=1)
    for _ in range(3):
        s.apply("A5-Integration", inside=1)
    s.expect(
        f"[{{[a], [], [], []}}] [{{[], [d], [], []}}]"
        f" [[{_T}]i []j []k] [[{_T}]k []i []j]"
    )
    # Factor 3 extracts slot c into position 4.
    s.apply("D1-ITuple", inside=2)
    s.apply("E-EmptyJ", inside=2)
    s.apply("E-EmptyK", inside=2)
    s.apply("D2-JuxtTuple", subst=_slots("{[], [], , } {[], , [], }"), inside=2)
    s.apply("A7-Iteration", inside=2)
    s.apply("D2-JuxtTuple", subst=_slots("{[b], a, d, [c]} {[], [], [], }"), inside=2)
    for _ in range(3):
        s.apply("A5-Integration", inside=2)
    s.expect(
        f"[{{[a], [], [], []}}] [{{[], [d], [], []}}] [{{[], [], [], [c]}}]"
        f" [[{_T}]k []i []j]"
    )
    # Unwrap the first three factors.
    s.apply("D1-PlainTuple", inside=0)
    for _ in range(4):
        s.apply("A3-Reflexion", inside=0)
    s.apply("D1-PlainTuple", inside=1)
    s.apply("A3-Reflexion", subst={"A": "d"}, inside=1)
    for _ in range(3):
        s.apply("A3-Reflexion", inside=1)
    s.apply("D1-PlainTuple", inside=2)
    s.apply("A3-Reflexion", subst={"A": "c"}, inside=2)
    for _ in range(3):
        s.apply("A3-Reflexion", inside=2)
    s.expect(
        f"{{a, , , }} {{, d, , }} {{, , , c}} [[{_T}]k []i []j]"
    )
    # Factor 4 extracts slot b into position 3.
    s.apply("D1-KTuple", inside=3)
    s.apply("E-EmptyI", inside=3)
    s.apply("E-EmptyJ", inside=3)
    s.apply("D2-JuxtTuple", inside=3)
    s.apply("A7-Iteration", inside=3)
    s.expect(
        "{a, , , } {, d, , } {, , , c} [{[d], c, [b], a} {[], [], , []}]"
    )
    s.apply("D2-JuxtTuple", subst=_slots("{[d], c, [b], a} {[], [], , []}"), inside=3)
    for _ in range(3):
        s.apply("A5-Integration", inside=3)
    s.expect("{a, , , } {, d, , } {, , , c} [{[], [], [b], []}]")
    s.apply("D1-PlainTuple", inside=3)
    s.apply("A3-Reflexion", subst={"A": "b"}, inside=3)
    for _ in range(3):
        s.apply("A3-Reflexion", inside=3)
    s.expect("{a, , , } {, d, , } {, , , c} {, , b, }")
    # Collapse the four extracted slots.
    s.apply("D2-JuxtTuple", subst=_slots("{a, , , } {, d, , }"))
    s.apply("D2-JuxtTuple", subst=_slots("{a, d, , } {, , , c}"))
    s.apply("D2-JuxtTuple", subst=_slots("{a, d, , c} {, , b, }"))
    return s.done("{a, d, b, c}")


def _example_conjunction() -> Derivation:
    # Conjunction of the two constructed tuples; the third slot of the end
    # term is the exhaustively confirmed form.
    s = _Script("conjunction-exercise", "[[{a, b, [c], d}] [{a, d, b, c}]]")
    s.apply("D1-PlainTuple")
    s.apply("D1-PlainTuple")
    s.expect("[{[a], [b], [[c]], [d]} {[a], [d], [b], [c]}]")
    s.apply("D2-JuxtTuple")
    s.apply("A7-Iteration")
    s.apply("A3-Reflexion")
    s.expect("[{[a], [b] [d], c [b], [d] [c]}]")
    s.apply("D1-PlainTuple")
    s.apply("A3-Reflexion")
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

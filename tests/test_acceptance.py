"""Acceptance suite: one test per criterion, each printing a pass/fail
line and enforcing its runtime budget.

Run with `pytest tests/test_acceptance.py -v` (the per-criterion lines are
written past the capture machinery so they always appear).
"""

import time
from itertools import permutations, product
from statistics import median

import pytest

from conftest import random_expr_pair
from qcalc import oracle
from qcalc.braid import (
    braid_to_signed_perm,
    closure_is_q8,
    quaternion_braid_word,
    quaternion_closure,
    verify_braid_relations,
    word_apply,
)
from qcalc.constructor import mark_slot, permute_expr, verify_construction
from qcalc.derivations import builtin_derivation, builtin_derivations
from qcalc.kernel import (
    ALL_QVALUES,
    Q8Op,
    SignedPerm,
    is_isomorphic_to_q8,
    op_value,
    q8_apply,
    q8_mul,
    q8_to_signed_perm,
)
from qcalc.rewrite import check_derivation, validate_rules
from qcalc.semantics import (
    ALL_BFVALUES,
    BFValue,
    apply_op,
    bf_apply,
    embed_bf,
    evaluate,
)
from qcalc.textio import parse, substitute
from qcalc.verifier import (
    check_equiv,
    distribution_matrix,
    run_law_suite,
    distribution_demos,
)


def _announce(line: str) -> None:
    import conftest

    conftest.ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


RUNS = 5


def timed(number: int, description: str, budget_ms: float, fn) -> None:
    """Run fn once to warm it up, then RUNS times; the median run must be
    within the budget.  The printed line gives the spread of the runs."""
    ms_runs = []
    try:
        fn()
        for _ in range(RUNS):
            t0 = time.perf_counter()
            fn()
            ms_runs.append((time.perf_counter() - t0) * 1000)
    except BaseException:
        _announce(f"[criterion {number:>2}] FAIL: {description}")
        raise
    ms = median(ms_runs)
    status = "PASS" if ms < budget_ms else "FAIL"
    _announce(
        f"[criterion {number:>2}] {status}: {description}"
        f" (median {ms:.2f} ms of {RUNS}, spread {min(ms_runs):.2f}-{max(ms_runs):.2f} ms,"
        f" budget {budget_ms:g} ms)"
    )
    assert ms < budget_ms, f"median runtime {ms:.2f} ms exceeds budget {budget_ms} ms"


@pytest.fixture(scope="module", autouse=True)
def warmup():
    # Rule validation and script construction are one-time costs, not part
    # of any criterion's measured operation.
    validate_rules()
    builtin_derivations()
    check_equiv("A", "A")


def test_criterion_01_group_structure():
    maps = {g: tuple(q8_apply(g, v).bits for v in ALL_QVALUES) for g in Q8Op}
    perms = [q8_to_signed_perm(g) for g in Q8Op]

    def body():
        assert len(set(maps.values())) == 8
        for g, h in product(Q8Op, Q8Op):
            mg, mh, mgh = maps[g], maps[h], maps[q8_mul(g, h)]
            for v in range(16):
                assert mh[mg[v]] == mgh[v]
        neg = maps[Q8Op.M1]
        for g, h in ((Q8Op.I, Q8Op.J), (Q8Op.J, Q8Op.K), (Q8Op.K, Q8Op.I)):
            mg, mh = maps[g], maps[h]
            for v in range(16):
                assert mh[mg[v]] == neg[mg[mh[v]]]
        assert is_isomorphic_to_q8(perms)

    timed(1, "operator maps form Q8; 64 products and anti-commutation", 1, body)


def test_criterion_02_operation_preservation_replays():
    names = ("QCC", "QII", "QIJ", "QIJK", "QJI", "QMC", "QINV-i", "QINV-j", "QINV-k")
    scripts = [builtin_derivation(n) for n in names]

    def body():
        for d in scripts:
            report = check_derivation(d)
            assert report.ok, report.render()
            res = check_equiv(d.start, d.end)
            assert res.equivalent and res.assignments_checked == 16

    timed(2, "operation-preservation scripts replay over 16 assignments", 10, body)


def test_criterion_03_appendix_a():
    def body():
        report = run_law_suite("lof_appendix_a")
        assert report.all_hold
        assert all(c.assignments_checked <= 4096 for c in report.checks)

    timed(3, "all 10 shared laws hold exhaustively", 100, body)


def test_criterion_04_appendix_b():
    def body():
        report = run_law_suite("q_appendix_b")
        assert report.all_hold
        for text, op in (
            ("[[]i []j] [[]i^3 []j^3]", Q8Op.K),
            ("[[]j []k] [[]j^3 []k^3]", Q8Op.I),
            ("[[]i []k] [[]i^3 []k^3]", Q8Op.J),
        ):
            assert evaluate(parse(text), {}) == op_value(op)

    timed(4, "Q1-Q10 hold for every subscript; Q11-Q13 compile exactly", 1000, body)


def test_criterion_05_distribution_matrix():
    def body():
        report = distribution_matrix()
        assert len(report.off_diagonal) == 56
        assert report.holding_count == 56
        assert all(c.holds for c in report.cells if c.trivial)
        assert all(c.assignments_checked == 4096 for c in report.cells)
        demos = distribution_demos()
        assert demos.demo1_holds and demos.demo2_template_holds

    timed(5, "all 56 candidate distribution laws verified over 4096 each", 2000, body)


def test_criterion_06_demonstrations_replay():
    scripts = [
        builtin_derivation("distribute-or_i-over-and_j"),
        builtin_derivation("distribute-and_j-over-and_k"),
    ]

    def body():
        for d in scripts:
            report = check_derivation(d)
            assert report.ok, report.render()
        demos = distribution_demos()
        assert demos.demo2_template_holds != demos.demo2_printed_holds
        assert demos.demo2_resolved == "template"

    timed(6, "both demonstrations replay; discrepancy resolves to one form", 50, body)


def test_criterion_07_braid_representation():
    def body():
        for n in range(2, 9):
            assert verify_braid_relations(n).all_hold
        for axis, op in (("i", Q8Op.I), ("j", Q8Op.J), ("k", Q8Op.K)):
            word = quaternion_braid_word(op)
            assert braid_to_signed_perm(word) == q8_to_signed_perm(op)
            for v in ALL_QVALUES:
                assert word_apply(word, v.slots) == apply_op(axis, v).slots
        wi = quaternion_braid_word(Q8Op.I)
        wj = quaternion_braid_word(Q8Op.J)
        wk = quaternion_braid_word(Q8Op.K)
        for v in ALL_QVALUES:
            assert word_apply(wi * wj, v.slots) == word_apply(wk, v.slots)

    timed(7, "braid relations for n=2..8; words act as the operators", 100, body)


def test_criterion_08_closure_is_q8():
    def body():
        closure = quaternion_closure()
        assert len(closure) == 8
        assert is_isomorphic_to_q8(closure)
        assert closure_is_q8()

    timed(8, "closure of the two generator words has 8 elements, is Q8", 10, body)


def test_criterion_09_slot_constructions():
    example1 = builtin_derivation("mark-third-slot")
    example2 = builtin_derivation("permute-to-adbc")
    exercise = builtin_derivation("conjunction-exercise")

    def body():
        res = check_equiv(example1.start, parse("{a, b, [c], d}"))
        assert res.equivalent and res.assignments_checked == 16
        res = check_equiv(example2.start, parse("{a, d, b, c}"))
        assert res.equivalent and res.assignments_checked == 16
        corrected = parse("{a, [[b] [d]], [[b] c], [[c] [d]]}")
        assert check_equiv(exercise.start, corrected).equivalent
        assert oracle.equivalent(exercise.start, corrected)
        # The transcription with an unenclosed third slot is refuted.
        assert not oracle.equivalent(
            exercise.start, parse("{a, [[b] [d]], [b] c, [[c] [d]]}")
        )
        for x in (1, 2, 3, 4):
            spec = ["a", "b", "c", "d"]
            spec[x - 1] = f"[{spec[x - 1]}]"
            res = check_equiv(
                substitute(mark_slot(x), {"X": parse("{a, b, c, d}")}),
                parse("{" + ", ".join(spec) + "}"),
            )
            assert res.equivalent
        for perm in permutations((1, 2, 3, 4)):
            p = SignedPerm(tuple(perm), (False,) * 4)
            assert verify_construction(permute_expr(p), p).equivalent

    timed(9, "slot constructions: both examples, the exercise, 24+4 generators", 5000, body)


def test_criterion_10_pair_mode_and_subspaces():
    def body():
        assert bf_apply("i", BFValue.from_pattern("UU")) == BFValue.from_pattern("MU")
        for v in ALL_BFVALUES:
            assert bf_apply("i", bf_apply("i", v)) == bf_apply("", v)
            assert bf_apply("", bf_apply("", v)) == v
        for a in ("i", "j", "k"):
            res = check_equiv(parse(f"[[A]{a} B]{a} C"), parse(f"[[A C]{a} B]{a} C"))
            assert res.equivalent
            for v in ALL_BFVALUES:
                assert embed_bf(a, bf_apply("i", v)) == apply_op(a, embed_bf(a, v))
                assert embed_bf(a, bf_apply("", v)) == apply_op("", embed_bf(a, v))
        assert run_law_suite("bf_subspaces").all_hold

    timed(10, "pair equations, square root of the mark, split generation,"
             " embeddings", 1000, body)


def test_criterion_11_oracle_agreement(rng):
    pairs = [random_expr_pair(rng) for _ in range(100)]

    def body():
        verdicts = set()
        for a, b in pairs:
            fast = check_equiv(a, b).equivalent
            slow = oracle.equivalent(a, b)
            assert fast == slow
            verdicts.add(fast)
        assert verdicts == {True, False}

    timed(11, "enumeration agrees with the slot truth-table oracle on 100 pairs",
          5000, body)

import hashlib
import subprocess
import sys

import pytest

from qcalc import oracle
from qcalc.derivations import _Script, builtin_derivation, builtin_derivations
from qcalc.rewrite import Derivation, RewriteError, check_derivation
from qcalc.semantics import connective
from qcalc.textio import Var, ac_equal, parse, print_expr
from qcalc.verifier import check_equiv

EXPECTED_NAMES = {
    "void-ijk", "void-neg-i", "void-i-as-jk", "void-jki-hint", "void-j-as-ki",
    "void-neg-k-as-ji",
    "QR1", "QR2", "QR3",
    "QCC", "QII", "QIJ", "QIJK", "QJI", "QMC", "QINV-i", "QINV-j", "QINV-k",
    "distribute-or_i-over-and_j", "distribute-and_j-over-and_k",
    "mark-third-slot", "permute-to-adbc", "conjunction-exercise",
}


def test_collection_is_complete():
    scripts = builtin_derivations()
    assert {d.name for d in scripts} == EXPECTED_NAMES
    assert len(scripts) >= 14


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_every_builtin_script_passes(name):
    report = check_derivation(builtin_derivation(name))
    assert report.ok, report.render()


def test_builtin_scripts_are_byte_stable():
    # sha256 of every Derivation.dumps(), each followed by a newline, in
    # builtin order; any change to positions, substitutions or printing
    # shows here.
    text = "".join(d.dumps() + "\n" for d in builtin_derivations())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "93e7e06c9f5407cf842d6969089aeca290231ad56825ff68885abda4da0bc3a2"
    )


def test_semantic_invariant_independent_of_recorded_steps():
    # Consecutive recorded terms are exhaustively equivalent even when the
    # syntactic replay is ignored entirely.
    for d in builtin_derivations():
        current = d.start
        for step in d.steps:
            assert step.result is not None
            assert check_equiv(current, step.result).equivalent, d.name
            current = step.result
        assert ac_equal(current, d.end)


class TestSpecificScripts:
    def test_qr1_intermediates(self):
        d = builtin_derivation("QR1")
        assert print_expr(d.start) == "[[[X]i]j]k"
        assert ac_equal(d.steps[0].result, parse("[[X]k]k"))
        assert print_expr(d.end) == "[X]"

    def test_reader_exercise_supplied(self):
        d = builtin_derivation("void-j-as-ki")
        assert print_expr(d.start) == "[]j"
        assert print_expr(d.end) == "[[]k]i"
        assert check_derivation(d).ok

    def test_qijk_reaches_marked_tuple(self):
        d = builtin_derivation("QIJK")
        assert print_expr(d.end) == "[{a, b, c, d}]"

    def test_operation_preservation_ends_as_stated(self):
        ends = {
            "QCC": "{a, b, c, d}",
            "QII": "[{a, b, c, d}]",
            "QIJ": "[{a, b, c, d}]k",
            "QJI": "[[[{a, b, c, d}]i]j]",
            "QMC": "[[{a, b, c, d}]]i",
            "QINV-i": "{a, b, c, d}",
        }
        for name, end in ends.items():
            assert print_expr(builtin_derivation(name).end) == end

    def test_demo1_connects_connective_forms(self):
        d = builtin_derivation("distribute-or_i-over-and_j")
        A, B, C = Var("A"), Var("B"), Var("C")
        assert ac_equal(d.start, connective("or_i", A, connective("and_j", B, C)))
        assert ac_equal(
            d.end,
            connective("and_j", connective("or_i", A, B), connective("or_i", A, C)),
        )

    def test_demo2_derives_the_template_form(self):
        d = builtin_derivation("distribute-and_j-over-and_k")
        A, B, C = Var("A"), Var("B"), Var("C")
        template = connective(
            "and_k", connective("and_j", A, C), connective("and_j", B, C)
        )
        printed = connective(
            "and_k", connective("and_j", A, B), connective("and_j", B, C)
        )
        assert ac_equal(d.end, template)
        # The other transcribed form is genuinely inequivalent to the start.
        assert not check_equiv(d.start, printed).equivalent
        assert check_equiv(d.start, template).equivalent

    def test_example_one_evaluates_to_marked_third_slot(self):
        d = builtin_derivation("mark-third-slot")
        spec = parse("{a, b, [c], d}")
        assert check_equiv(d.start, spec).equivalent
        assert ac_equal(d.end, spec)

    def test_example_two_evaluates_to_permutation(self):
        d = builtin_derivation("permute-to-adbc")
        spec = parse("{a, d, b, c}")
        assert check_equiv(d.start, spec).equivalent
        assert ac_equal(d.end, spec)

    def test_conjunction_exercise_oracle_confirmed(self):
        d = builtin_derivation("conjunction-exercise")
        corrected = parse("{a, [[b] [d]], [[b] c], [[c] [d]]}")
        assert ac_equal(d.end, corrected)
        assert check_equiv(d.start, corrected).equivalent
        assert oracle.equivalent(d.start, corrected)
        # The transcription with a bare [b] c third slot is refuted.
        printed = parse("{a, [[b] [d]], [b] c, [[c] [d]]}")
        assert not check_equiv(d.start, printed).equivalent
        assert not oracle.equivalent(d.start, printed)


def test_scripts_roundtrip_through_json():
    for d in builtin_derivations():
        again = Derivation.loads(d.dumps())
        assert again == d
        assert check_derivation(again).ok


@pytest.mark.parametrize("start, inside", [("[x]", 0), ("a b", 2)])
def test_bad_inside_raises_under_optimisation(start, inside):
    # An explicit error, not an assert that python -O strips.
    code = (
        "from qcalc.derivations import _Script; "
        f"_Script('t', {start!r}).apply('A3-Reflexion', 'rtl', inside={inside})"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert f"ValueError: t: inside={inside} is not a child of" in proc.stderr


def test_script_reports_the_rule_error_not_a_missing_site():
    with pytest.raises(RewriteError, match="unknown rule 'Q99'"):
        _Script("t", "[[x]]").apply("Q99")
    with pytest.raises(AssertionError, match="has no application site"):
        _Script("t", "x").apply("A3-Reflexion")

import json
import random

import pytest

from qcalc.kernel import QValue
from qcalc.semantics import evaluate
from qcalc.rewrite import (
    BadPosition,
    BadSubstitution,
    Derivation,
    NoMatch,
    RewriteError,
    SideConditionViolation,
    Step,
    all_positions,
    apply_rule,
    check_derivation,
    child_at,
    find_applications,
    replace_at,
    rules,
    validate_rules,
)
from qcalc.derivations import _Script, builtin_derivations
from qcalc.textio import Var, ac_equal, free_vars, juxt, parse, print_expr, substitute


def test_all_rules_semantically_valid():
    assert validate_rules() >= 150


def test_rule_database_has_named_laws():
    db = rules()
    for rule_id in (
        "A1-Position", "A10-Crosstransposition", "Q1-SQR", "Q6-SplitGeneration",
        "Q13-CompileJ", "D2-JuxtTuple", "C-IJ", "QCOMP",
    ):
        assert rule_id in db


class TestApplyRule:
    def test_reflexion_at_root(self):
        assert print_expr(apply_rule(parse("[[x]]"), "A3-Reflexion", "ltr", (), {"A": "x"})) == "x"

    def test_sqr(self):
        out = apply_rule(parse("[[A]i]i"), "Q1-SQR", "ltr", (), {"A": "A"}, {"alpha": "i"})
        assert print_expr(out) == "[A]"

    def test_anticommute(self):
        out = apply_rule(
            parse("[[A]i]j"), "Q5-AntiCommutes", "ltr", (),
            {"A": "A"}, {"alpha": "i", "beta": "j"},
        )
        assert print_expr(out) == "[[[A]j]i]"

    def test_match_modulo_reordering(self):
        # Generation [A]B = [AB]B applied with the juxtaposition reversed.
        out = apply_rule(parse("B [A]"), "A4-Generation", "ltr", (), {"A": "A", "B": "B"})
        assert ac_equal(out, parse("[A B] B"))

    def test_subset_of_juxtaposition(self):
        out = apply_rule(
            parse("x [] y"), "A5-Integration", "ltr", (), {"A": "x y"}
        )
        assert print_expr(out) == "[]"
        out = apply_rule(parse("x [] y"), "A5-Integration", "ltr", (), {"A": "x"})
        assert ac_equal(out, parse("y []"))

    def test_rtl(self):
        out = apply_rule(parse("x"), "A3-Reflexion", "rtl", (), {"A": "x"})
        assert print_expr(out) == "[[x]]"

    def test_positions_address_sorted_juxt(self):
        e = parse("b a")
        assert print_expr(child_at(e, (0,))) == "a"
        assert print_expr(child_at(e, (1,))) == "b"
        out = replace_at(e, (0,), parse("[q]"))
        assert print_expr(out) == "b [q]"

    def test_positions_of_substituted_exponent_base_follow_its_printed_key(self):
        # substitute builds (b a)^([]i); it is addressed by its key, the
        # grouped "(a b)^([]i)", so it sorts before "[c]" and "a".
        built = substitute(parse("X^([]i)"), {"X": parse("b a")})
        e = juxt(built, Var("a"), parse("[c]"))
        assert [print_expr(child_at(e, (i,))) for i in range(3)] == ["(b a)^([]i)", "[c]", "a"]
        assert print_expr(child_at(e, (0, 0, 0))) == "a"

    def test_inner_position(self):
        e = parse("[[x]] y")
        pos = find_applications(e, "A3-Reflexion", "ltr", {"A": "x"})
        assert len(pos) == 1
        out = apply_rule(e, "A3-Reflexion", "ltr", pos[0], {"A": "x"})
        assert ac_equal(out, parse("x y"))

    def test_no_match_reports_expected_and_found(self):
        with pytest.raises(NoMatch) as exc:
            apply_rule(parse("[[x]]"), "Q1-SQR", "ltr", (), {"A": "x"}, {"alpha": "i"})
        assert "[[x]i]i" in str(exc.value)
        assert "[[x]]" in str(exc.value)

    def test_bad_position(self):
        with pytest.raises(BadPosition):
            apply_rule(parse("[x]"), "A3-Reflexion", "ltr", (5,), {"A": "x"})

    def test_side_condition(self):
        with pytest.raises(SideConditionViolation):
            apply_rule(
                parse("[[A]i]i"), "Q5-AntiCommutes", "ltr", (),
                {"A": "A"}, {"alpha": "i", "beta": "i"},
            )
        with pytest.raises(SideConditionViolation):
            apply_rule(parse("[[A]i]i"), "Q1-SQR", "ltr", (), {"A": "A"}, {"alpha": "x"})

    def test_missing_substitution(self):
        with pytest.raises(BadSubstitution):
            apply_rule(parse("[[x]]"), "A3-Reflexion", "ltr", (), {})

    def test_substitution_names_only_metavariables(self):
        with pytest.raises(BadSubstitution, match=r"has no metavariables \['B', 'C'\]"):
            apply_rule(
                parse("[[x]]"), "A3-Reflexion", "ltr", (), {"A": "x", "B": "y", "C": ""}
            )
        report = check_derivation(Derivation(
            "extra", parse("[[x]]"),
            (Step("A3-Reflexion", "ltr", (), {"A": parse("x"), "B": parse("y")}),),
            parse("x"),
        ))
        assert not report.ok
        assert report.steps[0].error == "rule A3-Reflexion has no metavariables ['B']"

    def test_slot_refusal_names_the_slot(self):
        # The tuple's own message, with the slot by its text.
        with pytest.raises(BadSubstitution) as exc:
            replace_at(parse("{[], , , }"), (0,), parse("{[], [], [], []}"))
        assert str(exc.value) == (
            "tuple slot is not a plain-LoF expression: {[], [], [], []}"
        )

    def test_tuple_purity_preserved(self):
        # Rewriting a slot into a subscripted-mark form is rejected.
        with pytest.raises(BadSubstitution):
            apply_rule(
                parse("{[x], , , }"), "Q1-SQR", "rtl", (0,), {"A": "x"}, {"alpha": "i"}
            )

    def test_semantics_preserved_under_application(self, rng):
        # Random rule instances applied at the root never change the value.
        db = rules()
        sample_rules = [
            ("A2-Transposition", {}), ("A4-Generation", {}), ("A8-Extension", {}),
            ("Q1-SQR", {"alpha": "j"}), ("Q6-SplitGeneration", {"alpha": "k"}),
            ("Q8-Disintegration", {"alpha": "i"}),
            ("QCOMP", {"alpha": "i", "m": 1, "beta": "j", "n": 3}),
        ]
        from conftest import random_q_expr

        for rule_id, params in sample_rules:
            rule = db[rule_id]
            lhs, rhs = rule.sides(params)
            qv, _ = free_vars(lhs)
            qv |= free_vars(rhs)[0]
            subst = {name: random_q_expr(rng, 2) for name in qv}
            start = None
            from qcalc.textio import substitute

            start = substitute(lhs, subst)
            out = apply_rule(start, rule_id, "ltr", (), subst, params)
            env_vars = sorted(free_vars(start)[0] | free_vars(out)[0])
            lof_vars = sorted(free_vars(start)[1] | free_vars(out)[1])
            for _ in range(64):
                env = {n: QValue(rng.randrange(16)) for n in env_vars}
                env.update({n: rng.random() < 0.5 for n in lof_vars})
                assert evaluate(start, env) == evaluate(out, env), rule_id


class TestDerivations:
    def _toy(self) -> Derivation:
        start = parse("[[x]]")
        mid = parse("x")
        return Derivation(
            "toy",
            start,
            (Step("A3-Reflexion", "ltr", (), {"A": parse("x")}, {}, mid),),
            mid,
        )

    def test_checker_accepts_valid(self):
        rep = check_derivation(self._toy())
        assert rep.ok and rep.end_matches

    def test_json_roundtrip(self):
        d = self._toy()
        again = Derivation.loads(d.dumps())
        assert again == d
        assert check_derivation(again).ok

    def test_json_roundtrip_keeps_juxtaposed_exponent_base(self):
        start = parse("x^([]i)")
        built = apply_rule(start, "A7-Iteration", "rtl", (0,), {"A": "x"})
        assert print_expr(built) == "(x x)^([]i)"
        d = Derivation(
            "a7", start, (Step("A7-Iteration", "rtl", (0,), {"A": Var("x")}, {}, built),), built
        )
        again = Derivation.loads(d.dumps())
        assert again == d
        assert check_derivation(again).ok

    def test_minimal_json_schema(self):
        # result/params/name are optional in script files.
        d = Derivation.loads(
            json.dumps(
                {
                    "start": "[[x]]",
                    "steps": [
                        {"rule": "A3-Reflexion", "dir": "ltr", "pos": [],
                         "subst": {"A": "x"}}
                    ],
                    "end": "x",
                }
            )
        )
        rep = check_derivation(d)
        assert rep.ok and rep.steps[0].matches_recorded is None

    def test_corrupted_rule_id_is_flagged_but_semantics_still_checked(self):
        good = self._toy()
        bad = Derivation(
            "corrupt",
            good.start,
            (
                Step("A1-Position", "ltr", (), {"A": parse("x")}, {}, parse("x")),
            ),
            good.end,
        )
        rep = check_derivation(bad)
        assert not rep.ok
        step = rep.steps[0]
        assert not step.applied
        assert step.error is not None
        assert step.semantic_ok is True  # recorded term still equivalent
        assert rep.end_matches is True

    def test_recorded_mismatch_detected(self):
        bad = Derivation(
            "drift",
            parse("[[x]]"),
            (Step("A3-Reflexion", "ltr", (), {"A": parse("x")}, {}, parse("[[x]]")),),
            parse("[[x]]"),
        )
        rep = check_derivation(bad)
        assert not rep.ok
        assert rep.steps[0].applied
        assert rep.steps[0].matches_recorded is False

    def test_unrecorded_failure_skips_rest(self):
        bad = Derivation(
            "stuck",
            parse("[[x]]"),
            (
                Step("A1-Position", "ltr", (), {"A": parse("x")}, {}, None),
                Step("A3-Reflexion", "ltr", (), {"A": parse("x")}, {}, None),
            ),
            parse("x"),
        )
        rep = check_derivation(bad)
        assert not rep.ok
        assert rep.steps[1].error is not None
        assert rep.end_matches is None

    def test_all_positions_preorder(self):
        e = parse("[a] {x, , , y}")
        positions = all_positions(e)
        assert () in positions
        assert all(len(p) <= 3 for p in positions)
        subterms = {print_expr(child_at(e, p)) for p in positions}
        assert {"[a] {x, , , y}", "[a]", "a", "{x, , , y}", "x", "y", ""} <= subterms


def _reference_applications(e, rule, direction, subst, params):
    """find_applications as a full apply_rule trial at every position."""
    hits = []
    for pos in all_positions(e):
        try:
            apply_rule(e, rule, direction, pos, subst, params)
        except RewriteError:
            continue
        hits.append(pos)
    return hits


def test_find_applications_matches_per_position_trials():
    for d in builtin_derivations():
        current = d.start
        for step in d.steps:
            for direction in ("ltr", "rtl"):
                args = (current, step.rule, direction, step.subst, step.params)
                assert find_applications(*args) == _reference_applications(*args), (
                    d.name, step.rule, direction)
            assert step.pos in find_applications(
                current, step.rule, step.direction, step.subst, step.params)
            current = step.result


def test_find_applications_keeps_tuple_purity_check():
    # [x] matches in the first slot, but [[x]i]i may not replace it there.
    e = parse("{[x], , , }")
    with pytest.raises(BadSubstitution):
        apply_rule(e, "Q1-SQR", "rtl", (0,), {"A": "x"}, {"alpha": "i"})
    assert find_applications(e, "Q1-SQR", "rtl", {"A": "x"}, {"alpha": "i"}) == []
    assert find_applications(e, "A3-Reflexion", "rtl", {"A": "[x]"}) == [(0,)]


# Search without a substitution: matching fills it in, and the first
# position in preorder and address order wins.


def _first_step(term, rule, direction, params):
    step = _Script("t", term).apply(rule, direction, params=params).steps[0]
    return step.pos, {k: print_expr(v) for k, v in step.subst.items()}


@pytest.mark.parametrize(
    "term, rule, direction, params, pos, subst",
    [
        # A repeated metavariable binds one whole part; the other must equal it.
        ("[x y] [y x]", "A7-Iteration", "ltr", None, (), {"A": "[x y]"}),
        # A metavariable may bind the void.
        ("[[]i]i", "Q1-SQR", "ltr", {"alpha": "i"}, (), {"A": ""}),
        # A juxtaposition matches as a multiset, each pattern part trying the
        # children in address order; the rest passes through.
        (
            "q [[x]k [y]k]k^3 p", "QD-AndDistribution", "ltr", {"alpha": "k"},
            (), {"A": "x", "B": "y", "C": "p"},
        ),
        # A subterm comes before its own subterms.
        ("[[x]] [[[y]]]", "A3-Reflexion", "ltr", None, (0,), {"A": "[y]"}),
        # A refused tuple-slot replacement moves the search to the next position.
        ("{[x], , , }^([y])", "Q1-SQR", "rtl", {"alpha": "i"}, (1,), {"A": "y"}),
    ],
    ids=["repeated", "void", "multiset", "preorder", "refused-slot"],
)
def test_search_takes_the_first_match(term, rule, direction, params, pos, subst):
    assert _first_step(term, rule, direction, params) == (pos, subst)


def test_find_applications_without_subst_lists_every_match():
    assert find_applications(parse("[[x]] [[[y]]]"), "A3-Reflexion") == [
        (0,), (0, 0), (1,)]
    e = parse("{[x], , , }^([y])")
    assert find_applications(e, "Q1-SQR", "rtl", params={"alpha": "i"}) == [(1,)]


@pytest.mark.parametrize(
    "args, error, message",
    [
        (("Q99",), RewriteError, "unknown rule 'Q99'"),
        (("Q1-SQR", "both"), RewriteError, "direction must be ltr or rtl"),
        (("Q1-SQR", "ltr", None, {"alpha": "x"}), SideConditionViolation, "one of i, j, k"),
        (("Q1-SQR", "ltr", None, {"alpha": 1}), SideConditionViolation, "one of i, j, k"),
        (
            ("QCOMP", "ltr", None, {"alpha": "i", "m": 4, "beta": "j", "n": 1}),
            SideConditionViolation, r"m=4 must be an integer in 1\.\.3",
        ),
        (
            ("QCOMP", "ltr", None, {"alpha": "i", "m": "1", "beta": "j", "n": 1}),
            SideConditionViolation, r"m='1' must be an integer in 1\.\.3",
        ),
        # The destination's A is not on the source side, so matching cannot bind it.
        (("A5-Integration", "rtl"), BadSubstitution, r"missing \['A'\]"),
        # A substitution is given whole or not at all.
        (("A2-Transposition", "ltr", {"A": "x"}), BadSubstitution, r"missing \['B', 'C'\]"),
    ],
    ids=[
        "rule", "direction", "subscript", "subscript-type", "exponent",
        "exponent-type", "destination-only", "partial",
    ],
)
def test_find_applications_raises_real_errors(args, error, message):
    with pytest.raises(error, match=message):
        find_applications(parse("[[x]i]i []"), *args)

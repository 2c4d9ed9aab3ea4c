import json
import subprocess
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Q_VARS, exp_exprs, full_envs, q_exprs, random_expr_pair
from qcalc import oracle, verifier
from qcalc.kernel import IMAGINARY_SUBS, Q8Op, QValue, op_value
from qcalc.semantics import BadExponentValue, evaluate
from qcalc.textio import parse, print_expr, substitute
from qcalc.verifier import (
    _Planes,
    _var_spec,
    BudgetExceeded,
    DemoReport,
    appendix_b_laws,
    check_assertions,
    check_equiv,
    distribution_matrix,
    env_patterns,
    run_law_suite,
    distribution_demos,
)


def _count(spec) -> int:
    count = 1
    for _, dom in spec:
        count *= dom
    return count


def _scalar_first_difference(spec, a, b):
    """The reference enumeration: evaluate both sides under each assignment
    in order.  Returns (index, assignment) of the first difference or None,
    and raises what evaluate raises at an earlier row."""
    for idx, values in enumerate(product(*(range(dom) for _, dom in spec))):
        env = {
            name: (QValue(v) if dom == 16 else bool(v))
            for (name, dom), v in zip(spec, values)
        }
        if evaluate(a, env) != evaluate(b, env):
            return idx, env
    return None


def test_import_starts_no_process_machinery():
    code = (
        "import qcalc, sys; "
        "loaded = {'concurrent.futures', 'multiprocessing'} & set(sys.modules); "
        "assert not loaded, loaded"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestCheckEquiv:
    def test_position_is_void(self):
        res = check_equiv("[[A] A]", "")
        assert res.equivalent and res.assignments_checked == 16

    def test_reflexion(self):
        assert check_equiv("[[A]]", "A").equivalent

    def test_ij_vs_ji_inequivalent_with_counterexample(self):
        res = check_equiv("[[A]i]j", "[[A]j]i")
        assert not res.equivalent
        env = res.counterexample
        assert env is not None
        assert evaluate(parse("[[A]i]j"), env) != evaluate(parse("[[A]j]i"), env)

    def test_counterexample_is_first_in_order(self):
        # A vs the constant all-unmarked: they agree only at A=UUUU, so the
        # first failing assignment is A=UUUM (value 1).
        res = check_equiv("A", "")
        assert not res.equivalent
        assert res.counterexample == {"A": QValue(1)}
        assert res.assignments_checked == 2

    def test_mixed_variable_kinds(self):
        res = check_equiv("[[{a, b, c, d}]i]j X", "[{a, b, c, d}]k X")
        assert res.equivalent
        assert res.assignments_checked == 16 * 16

    def test_symmetry_and_reflexivity(self, rng):
        from conftest import random_q_expr

        for _ in range(20):
            a, b = random_q_expr(rng, 3), random_q_expr(rng, 3)
            assert check_equiv(a, a).equivalent
            assert check_equiv(a, b).equivalent == check_equiv(b, a).equivalent

    def test_transitivity_spot(self, rng):
        from conftest import random_q_expr

        for _ in range(40):
            a, b, c = (random_q_expr(rng, 3) for _ in range(3))
            ab = check_equiv(a, b).equivalent
            bc = check_equiv(b, c).equivalent
            if ab and bc:
                assert check_equiv(a, c).equivalent

    def test_budget_exceeded_reports_requirements(self):
        big = " ".join(f"V{i}" for i in range(7))
        with pytest.raises(BudgetExceeded) as exc:
            check_equiv(parse(big), parse(""))
        assert exc.value.num_variables == 7
        assert exc.value.required == 16 ** 7

    def test_env_var_budget(self, monkeypatch):
        monkeypatch.setenv("QCALC_BUDGET", "16")
        with pytest.raises(BudgetExceeded):
            check_equiv("A B", "")

    @pytest.mark.parametrize("raw", ["abc", "1e6", "16.0"])
    def test_env_var_budget_must_be_an_integer(self, monkeypatch, raw):
        monkeypatch.setenv("QCALC_BUDGET", raw)
        with pytest.raises(ValueError, match="QCALC_BUDGET"):
            check_equiv("A", "A")

    def test_budget_boundary_is_sixteen_to_the_sixth(self):
        six = "A B C D E F"
        assert check_equiv(six, "F E D C B A").assignments_checked == 16 ** 6
        with pytest.raises(BudgetExceeded) as exc:
            check_equiv(f"{six} {{a, , , }}", six)
        assert exc.value.required == 2 * 16 ** 6

    @given(exp_exprs, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_planes_agree_with_evaluate(self, e, rnd):
        # Each row of the planes is the value evaluate gives for that row's
        # assignment, and the bad rows are exactly those where evaluate
        # raises BadExponentValue.  Every row is checked up to 256 rows, a
        # sample of 128 above.
        spec = _var_spec((e,))
        planes = _Planes(spec)
        value = planes.value(e)
        at = planes.bdd.at
        rows = range(_count(spec))
        if len(rows) > 256:
            rows = rnd.sample(rows, 128)
        for row in rows:
            env = planes.assignment(row)
            bits = sum(at(p, row) << (3 - s) for s, p in enumerate(value))
            try:
                want = evaluate(e, env)
            except BadExponentValue:
                assert at(planes.bad, row)
            else:
                assert not at(planes.bad, row)
                assert bits == want.bits

    @pytest.mark.parametrize("budget_bits", [18, 4])
    @given(exp_exprs, exp_exprs, st.sampled_from(Q_VARS), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_check_equiv_matches_scalar_loop(self, budget_bits, a, c, name, related):
        # A budget of 2^18 rows decides every pair drawn here; one of 16
        # rows, the least QCALC_BUDGET allows, refuses the larger ones
        # before any row is evaluated, a bad exponent included, and decides
        # the rest.  Hypothesis refuses function-scoped fixtures, so the
        # variable is set in a MonkeyPatch context.
        b = substitute(a, {name: c}) if related else c
        spec = _var_spec((a, b))
        budget = 1 << budget_bits
        if _count(spec) > 4096:
            return
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("QCALC_BUDGET", str(budget))
            if _count(spec) > budget:
                with pytest.raises(BudgetExceeded):
                    check_equiv(a, b)
                return
            try:
                first = _scalar_first_difference(spec, a, b)
            except BadExponentValue as err:
                with pytest.raises(BadExponentValue) as got:
                    check_equiv(a, b)
                assert got.value.value == err.value
                return
            res = check_equiv(a, b)
        if first is None:
            assert (res.equivalent, res.counterexample) == (True, None)
            assert res.assignments_checked == _count(spec)
        else:
            idx, env = first
            assert (res.equivalent, res.counterexample) == (False, env)
            assert res.assignments_checked == idx + 1

    def test_difference_before_first_bad_row(self):
        # Rows run A, B, a: A = UUUU (rows 0-31) is the identity
        # exponent and A = UUUM (from row 32) is not an operator value; the
        # sides differ first at row 1, where a is marked.
        res = check_equiv("B^(A)", "B^(A) {a, , , }")
        assert not res.equivalent
        assert res.counterexample == {"A": QValue(0), "B": QValue(0), "a": True}
        assert res.assignments_checked == 2

    def test_bad_row_before_any_difference(self):
        with pytest.raises(BadExponentValue) as exc:
            check_equiv("B^(A)", "B")
        assert exc.value.value == QValue(1)

    @given(q_exprs, full_envs)
    @settings(max_examples=100)
    def test_canonicalization_is_semantic_noop(self, e, env):
        from qcalc.textio import ac_canon

        assert evaluate(ac_canon(e), env) == evaluate(e, env)

    def test_open_exponent_defined_in_every_row(self):
        # [Y] Y is all-marked for every Y, an operator value, so the
        # exponent is open but defined in every row.
        res = check_equiv("X^([Y] Y)", "[X]")
        assert res.equivalent
        assert res.assignments_checked == 256

    # Q9 and Q10 with A, B and C each a juxtaposition of four tuple
    # variables: 12 variables, 16^12 rows, past the default budget.
    WIDE = {"A": "A1 A2 A3 A4", "B": "B1 B2 B3 B4", "C": "C1 C2 C3 C4"}
    Q9 = ("[[{A}]i^3 [{B}]i^3]i {C}", "[[{A} {C}]i^3 [{B} {C}]i^3]i")
    Q10 = ("{C} [[{A}]j^3 [{B}]j^3]j", "[[{C} {A}]j^3 [{C} {B}]j^3]j")

    @pytest.mark.parametrize("law", [Q9, Q10], ids=["Q9", "Q10"])
    def test_twelve_variable_laws_hold(self, monkeypatch, law):
        monkeypatch.setenv("QCALC_BUDGET", str(16 ** 12))
        lhs, rhs = (side.format(**self.WIDE) for side in law)
        res = check_equiv(lhs, rhs)
        assert res.equivalent
        assert res.assignments_checked == 16 ** 12

    def test_twelve_variable_late_mutant(self, monkeypatch):
        # A1 juxtaposed into [B C]i^3 changes nothing while A1 is UUUU, and
        # A1 owns the top four bits of the row index.
        monkeypatch.setenv("QCALC_BUDGET", str(16 ** 12))
        lhs, rhs = (side.format(**self.WIDE) for side in self.Q9)
        rhs = rhs.replace("C4]i^3]", "C4 A1]i^3]")
        res = check_equiv(lhs, rhs)
        assert not res.equivalent
        assert res.assignments_checked == 16 ** 11 + 1
        names = sorted(f"{v}{k}" for v in "ABC" for k in range(1, 5))
        assert res.counterexample == {n: QValue(n == "A1") for n in names}
        env = res.counterexample
        assert evaluate(parse(lhs), env) != evaluate(parse(rhs), env)

    def test_twelve_variable_early_mutant(self, monkeypatch):
        monkeypatch.setenv("QCALC_BUDGET", str(16 ** 12))
        lhs, rhs = (side.format(**self.WIDE) for side in self.Q9)
        res = check_equiv(lhs.replace("]i ", "]j "), rhs)
        assert not res.equivalent
        assert res.assignments_checked == 1
        assert set(res.counterexample.values()) == {QValue(0)}


# A random formula: a level, or ("not", f), or (op, f, g).
_formulas = st.recursive(
    st.integers(0, 7),
    lambda sub: st.one_of(
        st.tuples(st.just("not"), sub),
        st.tuples(st.sampled_from(["and", "or", "xor"]), sub, sub),
    ),
    max_leaves=12,
)


class TestBDD:
    @given(
        st.integers(1, 8),
        st.lists(_formulas, min_size=1, max_size=6),
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_manager_matches_truth_tables(self, levels, formulas, picks):
        # Each formula is built twice, as a BDD edge and as a truth table:
        # bit r of the table is the value at row r, and row bit k is level
        # levels - 1 - k.  XOR is built from AND and OR, as the manager has
        # no XOR of its own.
        bdd = verifier._BDD(levels)
        rows = 1 << levels
        full = (1 << rows) - 1

        def build(f):
            if isinstance(f, int):
                v = f % levels
                table = sum(1 << r for r in range(rows) if r >> (levels - 1 - v) & 1)
                return bdd.var(v), table
            if f[0] == "not":
                edge, table = build(f[1])
                return edge ^ 1, full ^ table
            (e, s), (g, t) = build(f[1]), build(f[2])
            if f[0] == "and":
                return bdd.and_(e, g), s & t
            if f[0] == "or":
                return bdd.or_(e, g), s | t
            return bdd.or_(bdd.and_(e, g ^ 1), bdd.and_(e ^ 1, g)), s ^ t

        built = [build(f) for f in formulas]
        built += [(verifier.TRUE, full), (verifier.FALSE, 0)]
        for edge, table in built:
            assert [bdd.at(edge, r) for r in range(rows)] == [
                bool(table >> r & 1) for r in range(rows)
            ]
            least = bdd.least((edge,), (verifier.FALSE,))
            assert least == ((table & -table).bit_length() - 1 if table else None)
        # Canonicity: equal functions, equal edges.
        for edge, table in built:
            for other, other_table in built:
                assert (edge == other) == (table == other_table)
        # The first row where some pair differs is the lowest set bit of
        # the OR of the pairs' XORs, read off the edges without a new node.
        size = len(bdd.nodes)
        pairs = [(built[i % len(built)], built[j % len(built)]) for i, j in picks]
        fs = tuple(f for (f, _), _ in pairs)
        gs = tuple(g for _, (g, _) in pairs)
        hits = 0
        for (_, s), (_, t) in pairs:
            hits |= s ^ t
        got = bdd.least(fs, gs)
        assert got == ((hits & -hits).bit_length() - 1 if hits else None)
        assert (got is None) == all(s == t for (_, s), (_, t) in pairs)
        assert len(bdd.nodes) == size

    @pytest.mark.parametrize(
        "lhs, rhs",
        [
            # Six tuple variables; the sides first differ at row 1024.
            (
                "[[A]i^3 [B]i^3]i C D E F",
                "[[A C D E F]i^3 [B C D E F]i^3]i [[[F D]j [E]]j D]j",
            ),
            # The first hit is a bad-exponent row, before any difference.
            ("B^(A) C", "B C"),
        ],
    )
    def test_first_row_search_builds_no_node(self, monkeypatch, lhs, rhs):
        # The search runs right after both sides' value: the manager's size
        # at that point must be its size when check_equiv is done.
        seen = []
        search = verifier._BDD.least

        def spy(bdd, fs, gs):
            seen.append((bdd, len(bdd.nodes)))
            return search(bdd, fs, gs)

        monkeypatch.setattr(verifier._BDD, "least", spy)
        a, b = parse(lhs), parse(rhs)
        spec = _var_spec((a, b))
        try:
            want = _scalar_first_difference(spec, a, b)
        except BadExponentValue as err:
            with pytest.raises(BadExponentValue) as got:
                check_equiv(a, b)
            assert got.value.value == err.value
        else:
            assert want is not None and not oracle.equivalent(a, b)
            res = check_equiv(a, b)
            idx, env = want
            assert (res.equivalent, res.counterexample) == (False, env)
            assert res.assignments_checked == idx + 1
        [(bdd, size)] = seen
        assert len(bdd.nodes) == size


class TestLawSuites:
    def test_appendix_a_all_hold(self):
        report = run_law_suite("lof_appendix_a")
        assert report.all_hold
        assert len(report.checks) == 10
        assert all(c.assignments_checked <= 4096 for c in report.checks)

    def test_appendix_b_all_hold(self):
        report = run_law_suite("q_appendix_b")
        assert report.all_hold
        by_name = {c.name: c for c in report.checks}
        assert by_name["Q11-CompileK"].note.startswith("value MUMU")
        assert "Q5-AntiCommutes[i,j]" in by_name
        assert len([n for n in by_name if n.startswith("Q5")]) == 6

    def test_compile_laws_values(self):
        assert evaluate(parse("[[]i []j] [[]i^3 []j^3]"), {}) == op_value(Q8Op.K)
        assert evaluate(parse("[[]j []k] [[]j^3 []k^3]"), {}) == op_value(Q8Op.I)
        assert evaluate(parse("[[]i []k] [[]i^3 []k^3]"), {}) == op_value(Q8Op.J)

    def test_appendix_b_left_juxtaposed_variants(self):
        # Laws stated with C juxtaposed on the right also hold with C on
        # the left, juxtaposition being commutative at value level.
        for name, lhs, rhs in appendix_b_laws():
            res = check_equiv(parse(lhs), parse(rhs))
            assert res.equivalent, name
        for a in IMAGINARY_SUBS:
            res = check_equiv(
                parse(f"C [[A]{a} B]{a}"), parse(f"C [[A C]{a} B]{a}")
            )
            assert res.equivalent

    def test_bf_subspaces(self):
        report = run_law_suite("bf_subspaces")
        assert report.all_hold
        names = {c.name for c in report.checks}
        assert "SplitGeneration[i]" in names
        assert "Embedding[k]-imaginary" in names

    def test_q8_relations(self):
        report = run_law_suite("q8_relations")
        assert report.all_hold
        assert len(report.checks) == 64

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_law_suite("nonsense")

    @pytest.mark.parametrize(
        "suite", ["lof_appendix_a", "q_appendix_b", "bf_subspaces", "q8_relations"]
    )
    def test_each_law_appears_exactly_once(self, suite):
        names = [c.name for c in run_law_suite(suite).checks]
        assert len(names) == len(set(names))


class TestDistribution:
    def test_matrix_counts(self):
        report = distribution_matrix()
        assert len(report.cells) == 64
        assert len(report.off_diagonal) == 56
        assert report.holding_count == 56
        assert report.all_hold
        diag = [c for c in report.cells if c.trivial]
        assert len(diag) == 8 and all(c.holds for c in diag)
        assert all(c.assignments_checked == 4096 for c in report.cells)

    def test_named_cells(self):
        report = distribution_matrix()
        by_key = {(c.op1, c.op2): c for c in report.cells}
        assert by_key[("or", "and")].holds
        assert by_key[("or_i", "and_j")].holds
        assert by_key[("or", "or")].trivial and by_key[("or", "or")].holds

    def test_demos(self):
        demos = distribution_demos()
        assert demos.demo1_holds
        assert demos.demo2_template_holds
        assert not demos.demo2_printed_holds
        assert demos.demo2_resolved == "template"
        assert demos.ok

    @pytest.mark.parametrize(
        "demo1, template, printed",
        [(False, True, False), (True, True, True), (True, False, True), (True, False, False)],
    )
    def test_demos_fail_unless_only_the_template_form_holds(self, demo1, template, printed):
        assert not DemoReport(demo1, template, printed).ok


class TestOracleAgreement:
    def test_hundred_random_pairs(self, rng):
        agreements = 0
        inequivalent_seen = 0
        for _ in range(100):
            a, b = random_expr_pair(rng)
            fast = check_equiv(a, b).equivalent
            slow = oracle.equivalent(a, b)
            assert fast == slow, (print_expr(a), print_expr(b))
            agreements += 1
            inequivalent_seen += 0 if fast else 1
        assert agreements == 100
        assert 0 < inequivalent_seen < 100  # both verdicts exercised

    def test_oracle_on_known_laws(self):
        assert oracle.equivalent(parse("[[A] A]"), parse(""))
        assert oracle.equivalent(parse("[[{a, b, c, d}]i]j"), parse("[{a, b, c, d}]k"))
        assert not oracle.equivalent(parse("[[A]i]j"), parse("[[A]j]i"))

    def test_oracle_refuses_a_mixed_check_as_check_equiv_does(self):
        # A is tuple-level on one side and slot-level on the other.
        a, b = parse("[A]"), parse("{A, , , }")
        with pytest.raises(ValueError) as decider:
            check_equiv(a, b)
        with pytest.raises(ValueError) as witness:
            oracle.equivalent(a, b)
        assert str(witness.value) == str(decider.value) == (
            "variables used both inside and outside tuple slots: ['A']"
        )


class TestReports:
    def test_assertions_and_json_stability(self, tmp_path):
        body = (
            "# laws\n"
            "[[A] A] ==\n"
            "[[A]i]j == [[A]j]i\n"
        )
        rep1 = check_assertions(body)
        rep2 = check_assertions(body)
        assert not rep1.all_hold
        assert [c.holds for c in rep1.checks] == [True, False]
        assert rep1.to_json() == rep2.to_json()
        data = rep1.to_json()
        assert data["checks"][1]["counterexample"] == {"A": "UUUU"}

    def test_suite_json_roundtrips(self):
        text = json.dumps(run_law_suite("lof_appendix_a").to_json())
        data = json.loads(text)
        assert data["suite"] == "lof_appendix_a"
        assert data["all_hold"] is True

    def test_env_patterns(self):
        assert env_patterns({"A": QValue(9), "b": True}) == {"A": "MUUM", "b": "M"}

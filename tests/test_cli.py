import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import exp_exprs
from qcalc.braid import MAX_STRANDS
from qcalc.cli import main
from qcalc.derivations import builtin_derivation
from qcalc.rewrite import validate_rules
from qcalc.textio import print_expr
from qcalc.verifier import SUITES

SHARED_LAWS = Path(__file__).resolve().parent.parent / "scripts" / "shared_laws.qlf"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEquiv:
    def test_position_passes(self, capsys):
        code, out, _ = run(capsys, "equiv", "[[A] A] == ")
        assert code == 0
        assert "equivalent" in out

    def test_inequivalent_exits_one_with_counterexample(self, capsys):
        code, out, _ = run(capsys, "equiv", "[[A]i]j == [[A]j]i")
        assert code == 1
        assert "counterexample" in out and "A=UUUU" in out

    def test_json_output_stable(self, capsys):
        code1, out1, _ = run(capsys, "--format", "json", "equiv", "[[A]i]j == [[A]j]i")
        code2, out2, _ = run(capsys, "--format", "json", "equiv", "[[A]i]j == [[A]j]i")
        assert code1 == code2 == 1
        assert out1 == out2
        data = json.loads(out1)
        assert data["verdict"] == "inequivalent"
        assert data["counterexample"] == {"A": "UUUU"}

    def test_parse_error_exits_two_with_span(self, capsys):
        code, _, err = run(capsys, "equiv", "[[A] == ")
        assert code == 2
        assert "at 0.." in err

    def test_jobs_flag_is_gone(self, capsys):
        code, out, err = run(capsys, "--jobs", "2", "equiv", "A == A")
        assert code == 2
        assert out == ""
        assert "usage: qcalc" in err
        assert "--jobs" not in run(capsys, "--help")[1]

    def test_budget_flag_is_gone(self, capsys):
        code, out, err = run(capsys, "--budget", "16", "equiv", "A == A")
        assert code == 2
        assert out == ""
        assert "usage: qcalc" in err
        assert "--budget" not in run(capsys, "--help")[1]

    def test_file_mode(self, capsys, tmp_path):
        path = tmp_path / "laws.qlf"
        path.write_text("# two assertions\n[[A] A] ==\n[[A]] == A\n")
        code, out, _ = run(capsys, "equiv", "--file", str(path))
        assert code == 0
        assert "L2" in out and "L3" in out


class TestEval:
    def test_eval_with_env(self, capsys):
        code, out, _ = run(
            capsys, "eval", "[{a, b, c, d}]k", "--env", "a=M,b=U,c=M,d=U"
        )
        assert code == 0
        assert out.strip() == "MMMM"

    def test_eval_qvalue_env(self, capsys):
        code, out, _ = run(capsys, "eval", "[X]i", "--env", "X=UUUU")
        assert code == 0
        assert out.strip() == "MUUM"

    def test_unbound_variable_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "X")
        assert code == 2
        assert "unbound" in err


class TestSuitesAndTables:
    def test_laws_appendix_a(self, capsys):
        code, out, _ = run(capsys, "laws", "lof_appendix_a")
        assert code == 0
        assert "A10-Crosstransposition" in out

    def test_laws_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "laws", "q_appendix_b")
        assert code == 0
        data = json.loads(out)
        assert data["all_hold"] is True

    def test_distribution(self, capsys):
        code, out, _ = run(capsys, "distribution")
        assert code == 0
        assert "56 of 56" in out
        assert "template" in out

    def test_group_table(self, capsys):
        code, out, _ = run(capsys, "group-table")
        assert code == 0
        assert "row applied first" in out


class TestBraid:
    def test_compose(self, capsys):
        code, out, _ = run(capsys, "braid", "compose", "s1 s3'", "--n", "4")
        assert code == 0
        assert "SignedPerm" in out

    def test_verify(self, capsys):
        code, out, _ = run(capsys, "braid", "verify", "--n", "6")
        assert code == 0
        assert "all hold" in out

    def test_diagram(self, capsys):
        code, out, _ = run(capsys, "braid", "diagram", "s1 s2'", "--n", "3")
        assert code == 0
        assert "X" in out

    def test_diagram_json(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "braid", "diagram", "s1 s2'", "--n", "3"
        )
        assert code == 0
        text = run(capsys, "braid", "diagram", "s1 s2'", "--n", "3")[1]
        assert json.loads(out) == {"arity": 3, "word": "s1 s2'", "diagram": text[:-1]}

    def test_bad_word(self, capsys):
        code, _, err = run(capsys, "braid", "compose", "s9", "--n", "4")
        assert code == 2

    def test_bad_arity(self, capsys):
        code, _, err = run(capsys, "braid", "verify", "--n", "1")
        assert code == 2


class TestDerivationAndConstruct:
    def test_check_derivation_file(self, capsys, tmp_path):
        path = tmp_path / "qr1.json"
        path.write_text(builtin_derivation("QR1").dumps())
        code, out, _ = run(capsys, "check-derivation", str(path))
        assert code == 0
        assert "PASSES" in out

    def test_check_derivation_failure(self, capsys, tmp_path):
        data = builtin_derivation("QR1").to_json()
        data["steps"][0]["rule"] = "A1-Position"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "check-derivation", str(path))
        assert code == 1
        assert "FAIL" in out

    def test_construct_mark_slot(self, capsys):
        code, out, _ = run(capsys, "construct", "mark-slot", "2")
        assert code == 0
        assert "verified: True" in out

    def test_construct_permute_with_mark(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "construct", "permute", "1,4m,2,3")
        assert code == 0
        data = json.loads(out)
        assert data["verified"] is True

    def test_construct_bad_perm(self, capsys):
        code, _, err = run(capsys, "construct", "permute", "1,1,2,3")
        assert code == 2

    @pytest.mark.parametrize("slot", ["x", "0", "5"])
    def test_construct_bad_slot(self, capsys, slot):
        code, out, err = run(capsys, "construct", "mark-slot", slot)
        assert code == 2
        assert out == ""
        assert err == "error: slot index must be 1..4\n"


class TestParseCommand:
    def test_parse_echoes_canonical(self, capsys, tmp_path):
        path = tmp_path / "exprs.qlf"
        path.write_text("[ [ x ]i ]j\n{a,b,c,d} == [ [{a,b,c,d}] ]\n")
        code, out, _ = run(capsys, "parse", str(path))
        assert code == 0
        assert out.splitlines() == [
            "[[x]i]j",
            "{a, b, c, d} == [[{a, b, c, d}]]",
        ]


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qcalc.cli", "equiv", "[[A]] == A"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "equivalent" in proc.stdout


def test_env_budget_override(capsys, monkeypatch):
    monkeypatch.setenv("QCALC_BUDGET", "16")
    code, _, err = main(["equiv", "A B == "]), None, None
    captured = capsys.readouterr()
    assert code == 2
    assert "budget" in captured.err


def test_deep_nesting_is_a_usage_error(capsys):
    deep = "[" * 400 + "A" + "]" * 400
    code, out, err = run(capsys, "equiv", f"{deep} == A")
    assert code == 2
    assert out == ""
    assert err == "error: input is nested too deeply (at 200..201)\n"


def test_env_budget_reaches_law_suites(capsys, monkeypatch):
    monkeypatch.setenv("QCALC_BUDGET", "16")
    code, out, err = run(capsys, "laws", "lof_appendix_a")
    assert code == 2
    assert out == ""
    assert "budget" in err


def test_malformed_env_budget_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("QCALC_BUDGET", "abc")
    code, out, err = run(capsys, "equiv", "A == A")
    assert code == 2
    assert out == ""
    assert "QCALC_BUDGET" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("group-table",),
        ("braid", "compose", "s1"),
        ("parse", str(SHARED_LAWS)),
        ("eval", "[A]", "--env", "A=MUUM"),
    ],
    ids=" ".join,
)
def test_malformed_env_budget_stops_check_free_commands(capsys, monkeypatch, argv):
    """These commands run no check and never load the decider."""
    monkeypatch.setenv("QCALC_BUDGET", "abc")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: QCALC_BUDGET must be an integer, not 'abc'\n"


def test_unknown_suite_names_the_suites(capsys):
    code, out, err = run(capsys, "laws", "bogus")
    assert code == 2
    assert out == ""
    choices = ", ".join(map(repr, SUITES))
    assert err.endswith(f"invalid choice: 'bogus' (choose from {choices})\n")
    assert "{" + ",".join(SUITES) + "}" in err  # the usage line


MALFORMED_DERIVATIONS = {
    "not-an-object": (5, "derivation must be an object"),
    "start-not-a-string": (
        {"start": 5, "end": "A", "steps": []},
        "derivation.start must be a string",
    ),
    "pos-not-a-list": (
        {"start": "[[A]]", "end": "A", "steps": [{"rule": "A3-Reflexion", "pos": "ab"}]},
        "derivation.steps[0].pos must be a list",
    ),
    "pos-entry-not-an-integer": (
        {"start": "[[A]]", "end": "A", "steps": [{"rule": "A3-Reflexion", "pos": [0.5]}]},
        "derivation.steps[0].pos[0] must be an integer",
    ),
    "subst-value-not-a-string": (
        {
            "start": "[[A]]",
            "end": "A",
            "steps": [{"rule": "A3-Reflexion", "subst": {"A": 5}}],
        },
        "derivation.steps[0].subst.A must be a string",
    ),
    "steps-not-a-list": (
        [{"start": "A", "end": "A", "steps": 5}],
        "derivation.steps must be a list",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_DERIVATIONS))
def test_malformed_derivation_is_a_usage_error(capsys, tmp_path, name):
    data, message = MALFORMED_DERIVATIONS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "check-derivation", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}, not ")


@pytest.mark.parametrize(
    "argv",
    [
        ("braid", "compose", "s1", "--n", "100000"),
        ("braid", "diagram", "s1", "--n", "100000"),
        ("braid", "verify", "--n", "100000"),
        ("braid", "compose", "s1", "--n", str(MAX_STRANDS + 1)),
    ],
)
def test_braid_arity_above_bound_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: braid arity must be between 2 and {MAX_STRANDS}\n"


def test_braid_arity_at_bound_is_accepted(capsys):
    code, out, _ = run(capsys, "braid", "compose", "s7", "--n", str(MAX_STRANDS))
    assert code == 0
    assert "SignedPerm" in out


# sha256 of `qcalc --format json ...` stdout.  The JSON reports are
# byte-stable, so a change to these bytes is a change of behaviour.
GOLDEN_JSON = {
    ("laws", "lof_appendix_a"):
        "2c881e656fbda2632604e923e65bad328340cbad671f350d755d010e2ca2f9ca",
    ("laws", "q_appendix_b"):
        "83be594c1dac7abcd929d71bab7c004f5d7d75739280150a017a65cdd81f6070",
    ("laws", "bf_subspaces"):
        "a75834a66279f37892169a7b5cf59832ac434107565d630a1bff20a54c7276f5",
    ("laws", "q8_relations"):
        "b24063699e44fd6980b693ea25095c433b4236982b2423d39c10c37ef39e5125",
    ("distribution",):
        "adbfdba7edf614311693f725e869970fd46cd784b55a731ebcde354f9aa2c606",
    ("group-table",):
        "f1c714aa3330c751b6f26221112fc8a10011685bf0e07f86d8ce7f2e0ec5517b",
    ("equiv", "--file", str(SHARED_LAWS)):
        "573348ec9ff39e05d354b195ddf72b2248f9ffaafb34460e6f2201a1ed593e42",
}


@pytest.mark.parametrize("argv", list(GOLDEN_JSON), ids=" ".join)
def test_golden_json_output(capsys, argv):
    code, out, _ = run(capsys, "--format", "json", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_JSON[argv]


# One argv per subcommand; "{deriv}" is a derivation file, "{qlf}" an
# assertion file.
ONE_ARGV_PER_SUBCOMMAND = [
    ("parse", "{qlf}"),
    ("eval", "[X]i", "--env", "X=UUUU"),
    ("equiv", "[[A]i]j == [[A]j]i"),
    ("equiv", "--file", "{qlf}"),
    ("laws", "q8_relations"),
    ("distribution",),
    ("group-table",),
    ("braid", "compose", "s1 s3'"),
    ("braid", "verify", "--n", "3"),
    ("braid", "diagram", "s1 s2'", "--n", "3"),
    ("check-derivation", "{deriv}"),
    ("construct", "mark-slot", "2"),
    ("construct", "permute", "1,4m,2,3"),
]


@pytest.mark.parametrize("argv", ONE_ARGV_PER_SUBCOMMAND, ids=" ".join)
def test_json_format_applies_to_every_subcommand(capsys, tmp_path, argv):
    deriv = tmp_path / "qr1.json"
    deriv.write_text(builtin_derivation("QR1").dumps())
    files = {"{deriv}": str(deriv), "{qlf}": str(SHARED_LAWS)}
    code, out, _ = run(capsys, "--format", "json", *(files.get(a, a) for a in argv))
    assert code in (0, 1)
    json.loads(out)


def test_rule_instance_count():
    assert validate_rules() == 154


# ---------------------------------------------------------------------------
# Any input ends in exit 0, 1 or 2 (property test over the input paths)
# ---------------------------------------------------------------------------

junk = st.text(alphabet="[]{}(),^ijkABCab0123 =-'\n²", max_size=30)

expr_texts = st.one_of(
    junk,
    exp_exprs.map(print_expr),
    st.integers(1, 3000).map(lambda depth: "[" * depth + "A" + "]" * depth),
    st.builds(
        lambda count, sub: " ".join([f"[A]{sub}"] * count),
        st.integers(1, 2000),
        st.sampled_from(["", "i", "j", "k"]),
    ),
)

env_texts = st.one_of(
    junk,
    st.lists(
        st.builds(
            "{}={}".format,
            st.sampled_from(["A", "B", "a", "", "x y"]),
            st.sampled_from(["MUUM", "M", "U", "", "MUU", "XXXX", "m"]),
        ),
        max_size=3,
    ).map(",".join),
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-1, 1) | junk,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)


def or_junk(good):
    return st.one_of(good, json_values)


derivation_steps = st.fixed_dictionaries(
    {},
    optional={
        "rule": or_junk(st.sampled_from(["A3-Reflexion", "Q1-SQR", "QCOMP", "nope"])),
        "dir": or_junk(st.sampled_from(["ltr", "rtl", "up"])),
        "pos": or_junk(st.lists(st.integers(-1, 3), max_size=3)),
        "subst": or_junk(
            st.dictionaries(
                st.sampled_from(["A", "B", "s1"]),
                st.sampled_from(["A", "[B]i", "{a, b, c, d}", "[", "", "A^([]i)"]),
                max_size=2,
            )
        ),
        "params": or_junk(
            st.dictionaries(
                st.sampled_from(["alpha", "beta", "m", "n", "x"]),
                st.sampled_from(["i", "j", "q", 1, 3, 7, None, True]),
                max_size=4,
            )
        ),
        "result": or_junk(expr_texts),
    },
)

derivations = st.fixed_dictionaries(
    {},
    optional={
        "name": or_junk(st.just("d")),
        "start": or_junk(st.sampled_from(["[[A]]", "A", "[A]i", "{a, b, c, d}", "["])),
        "end": or_junk(st.sampled_from(["A", "[[A]]", ""])),
        "steps": or_junk(st.lists(derivation_steps, max_size=3)),
    },
)

braid_words = st.one_of(
    junk,
    st.lists(
        st.builds(
            lambda index, inverse: f"s{index}" + ("'" if inverse else ""),
            st.integers(-1, 12),
            st.booleans(),
        ),
        max_size=6,
    ).map(" ".join),
)
braid_arities = st.integers(-3, 100_000).map(str) | junk


@st.composite
def cli_argvs(draw, tmp_path):
    flags = draw(
        st.lists(
            st.sampled_from([["--format", "json"], ["--format", "text"]]),
            max_size=2,
        )
    )
    kind = draw(
        st.sampled_from(
            ["eval", "equiv", "parse", "check-derivation", "braid", "construct"]
        )
    )
    if kind == "eval":
        argv = ["eval", draw(expr_texts), "--env", draw(env_texts)]
    elif kind == "equiv":
        argv = ["equiv", f"{draw(expr_texts)} == {draw(expr_texts)}"]
    elif kind == "parse":
        path = tmp_path / "input.qlf"
        path.write_text("\n".join(draw(st.lists(expr_texts, max_size=3))))
        argv = ["parse", str(path)]
    elif kind == "check-derivation":
        path = tmp_path / "input.json"
        doc = draw(st.one_of(derivations, st.lists(derivations, max_size=2), json_values))
        path.write_text(json.dumps(doc))
        argv = ["check-derivation", str(path)]
    elif kind == "braid":
        sub = draw(st.sampled_from(["compose", "diagram", "verify"]))
        word = [] if sub == "verify" else [draw(braid_words)]
        argv = ["braid", sub, *word, "--n", draw(braid_arities)]
    else:
        argv = [
            "construct",
            draw(st.sampled_from(["mark-slot", "permute", "other"])),
            draw(
                st.one_of(
                    junk,
                    st.integers(-1, 6).map(str),
                    st.lists(
                        st.sampled_from(["1", "2", "3", "4", "4m", "0", "m"]),
                        max_size=5,
                    ).map(",".join),
                )
            ),
        ]
    return [arg for flag in flags for arg in flag] + argv


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_any_input_exits_zero_one_or_two(capsys, tmp_path, data):
    argv = data.draw(cli_argvs(tmp_path))
    budget = data.draw(st.sampled_from(["16", "x", None]))
    with pytest.MonkeyPatch.context() as mp:
        if budget is None:
            mp.delenv("QCALC_BUDGET", raising=False)
        else:
            mp.setenv("QCALC_BUDGET", budget)
        code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 2:
        assert captured.err

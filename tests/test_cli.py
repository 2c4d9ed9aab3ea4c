import json
import subprocess
import sys

from qcalc.cli import main
from qcalc.derivations import builtin_derivation


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

    def test_budget_flag(self, capsys):
        code, _, err = run(capsys, "--budget", "16", "equiv", "A B == ")
        assert code == 2
        assert "budget" in err

    def test_jobs_flag_is_gone(self, capsys):
        code, out, err = run(capsys, "--jobs", "2", "equiv", "A == A")
        assert code == 2
        assert out == ""
        assert "usage: qcalc" in err
        assert "--jobs" not in run(capsys, "--help")[1]

    def test_budget_must_be_at_least_sixteen(self, capsys):
        code, _, err = run(capsys, "--budget", "8", "equiv", "A == A")
        assert code == 2
        assert "budget" in err

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
    assert err == "error: input is nested too deeply\n"


def test_malformed_env_budget_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("QCALC_BUDGET", "abc")
    code, out, err = run(capsys, "equiv", "A == A")
    assert code == 2
    assert out == ""
    assert "QCALC_BUDGET" in err

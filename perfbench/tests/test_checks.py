"""The benchmark's answer checks must count a wrong answer as a failure.

Each test takes right answers from qcalc, shows that they pass, then
tampers with one field and shows that the failure count, and so the
reported error_rate, goes up.

Run with: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import terms as T  # noqa: E402
import workloads as W  # noqa: E402
from worker import _patterns  # noqa: E402


def error_rate(check, records) -> float:
    return len(run.failures_of(check, records)) / len(records)


@pytest.fixture(scope="module")
def decide():
    import qcalc

    rng = random.Random("tamper")
    ops = [dict(zip(("lhs", "rhs", "first"), W.make_pair(rng, "small", k, 3, 1, want)))
           for k, want in enumerate(("eq", "early", "late"))]
    lhs, rhs = W.open_exponent(rng, ops[1]["lhs"], ops[1]["rhs"])
    ops.append({"lhs": lhs, "rhs": rhs, "first": ops[1]["first"]})
    records = []
    for k, op in enumerate(ops):
        res = qcalc.check_equiv(T.render(op["lhs"]), T.render(op["rhs"]))
        records.append({"op": k, "input": k, "equivalent": res.equivalent,
                        "counterexample": _patterns(res.counterexample),
                        "checked": res.assignments_checked})
    return run.DecideChecker(ops), ops, records


def test_decide_right_answers_pass(decide):
    check, _, records = decide
    assert error_rate(check, records) == 0


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_decide_flipped_verdict_counts(decide, k):
    check, _, records = decide
    bad = [dict(r) for r in records]
    bad[k]["equivalent"] = not bad[k]["equivalent"]
    assert error_rate(check, bad) == 1 / len(records)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_decide_later_counterexample_counts(decide, k):
    """A counterexample that separates the sides but is not the first,
    with assignments_checked consistent with it, is still wrong."""
    check, ops, records = decide
    first, lay = W.first_difference(T.mark_form(ops[k]["lhs"]), T.mark_form(ops[k]["rhs"]))
    later = next(i for i in range(first + 1, lay.space) if _separates(ops[k], lay.env_of(i)))
    bad = [dict(r) for r in records]
    bad[k].update(counterexample=lay.env_of(later), checked=later + 1)
    assert error_rate(check, bad) == 1 / len(records)


def _separates(op, env) -> bool:
    import qcalc

    values = run._qvalue_env(qcalc, env)
    return (qcalc.evaluate(qcalc.parse(T.render(op["lhs"])), values)
            != qcalc.evaluate(qcalc.parse(T.render(op["rhs"])), values))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_decide_wrong_count_counts(decide, k):
    check, _, records = decide
    bad = [dict(r) for r in records]
    bad[k]["checked"] += 1
    assert error_rate(check, bad) == 1 / len(records)


def test_checks_pass_tampering_counts(tmp_path):
    text, pairs = W.qlf_body(7, 0)
    body = tmp_path / "body.qlf"
    body.write_text(text)
    proc = subprocess.run([sys.executable, str(BENCH / "checks_pass.py"), str(body)],
                          env=run.child_env(), capture_output=True, text=True, check=True)
    check = run.ChecksChecker([(text, pairs)])
    good = {"op": 0, "input": 0, "rc": 0, "stdout": proc.stdout}
    assert error_rate(check, [good]) == 0

    out = json.loads(proc.stdout)
    first_eq = next(c for c in out["assertions"]["checks"] if c["verdict"] == "holds")
    first_eq["verdict"] = "fails"
    assert error_rate(check, [dict(good, stdout=json.dumps(out))]) == 1

    out = json.loads(proc.stdout)
    out["fixed"]["suites"]["lof_appendix_a"]["checks"][0]["assignments_checked"] += 1
    assert error_rate(check, [dict(good, stdout=json.dumps(out))]) == 1
    assert error_rate(check, [dict(good, rc=1)]) == 1


def test_cli_tampering_counts():
    rng = random.Random("tamper-cli")
    lhs, rhs, _ = W.make_pair(rng, "small", 4, 2, 1, "early")
    commands = [{"id": "equiv", "format": "json", "lhs": lhs, "rhs": rhs},
                {"id": "equiv", "format": "text", "lhs": lhs, "rhs": rhs},
                {"id": "laws-a", "format": "json"}]
    check = run.CliChecker(commands)
    right = [W.equiv_output(commands[0]), W.equiv_output(commands[1]),
             (0, check.expected["laws-a"]["json"]["stdout"])]
    records = [{"op": k, "input": k, "rc": rc, "stdout": out}
               for k, (rc, out) in enumerate(right)]
    assert error_rate(check, records) == 0
    for k in range(3):
        bad = [dict(r) for r in records]
        bad[k]["rc"] ^= 1
        assert error_rate(check, bad) == 1 / 3
        bad = [dict(r) for r in records]
        bad[k]["stdout"] += " "
        assert error_rate(check, bad) == 1 / 3


def test_tracer_spans_and_absent_boundaries(tmp_path):
    """One span per call from another layer, none for a function's calls
    to itself, and a missing boundary listed as absent, not a crash.  A
    function that calls itself keeps its own name in its defining module,
    so that its recursion runs unwrapped; other functions are wrapped in
    their defining module too.  `remove` puts the originals back, and calls
    made after it get no span."""
    script = f"""
import sys
sys.path.insert(0, {str(BENCH)!r})
import tracer
tracer.BOUNDARIES += ("verifier.no_such_function", "no_such_module.f")
import qcalc
t = tracer.Tracer()
t.install()
import qcalc.semantics, qcalc.verifier, qcalc.rewrite
assert qcalc.semantics.evaluate is t.originals["semantics.evaluate"]
assert qcalc.verifier.evaluate is not t.originals["semantics.evaluate"]
assert qcalc.rewrite.apply_rule is not t.originals["rewrite.apply_rule"]
qcalc.check_equiv("[[A]i]j", "[A]k")
qcalc.evaluate(qcalc.parse("[[[A]i]j]k"), {{"A": qcalc.QValue(5)}})
t.remove()
assert qcalc.rewrite.apply_rule is t.originals["rewrite.apply_rule"]
qcalc.check_equiv("[A]i", "[A]j")
t.dump({str(tmp_path / "spans.json")!r})
"""
    subprocess.run([sys.executable, "-c", script], env=run.child_env(), check=True)
    metrics, absent = run.tracing.summarize([tmp_path / "spans.json"], ops=1)
    assert absent == ["no_such_module.f", "verifier.no_such_function"]
    assert metrics["verifier.check_equiv.calls"] == (1, "count/op")
    assert metrics["semantics.evaluate.calls"] == (1, "count/op")
    assert metrics["textio.parse.calls"][0] == 3
    assert metrics["verifier.check_equiv.n1_ms"][0] > 0
    assert metrics["verifier.useful_ratio"] == (1.0, "ratio")

#!/usr/bin/env python3
"""The qcalc benchmark.

usage: python3 perfbench/run.py --workload {decide,checks,cli} --seed N
                                --seconds S --trace {0,1}

Run from the root of a checkout.  The inputs are made from the seed; qcalc
sees only their text.  With --trace 0 the workload's timed loop runs for S
seconds with tracing off and the end-to-end metrics are printed; with
--trace 1 each operation runs twice, once untraced and once with the
boundary tracer on, and the per-layer metrics are printed.  Every answer
is checked against an independent reference outside the timed region.  The last line
of standard output is the result object; the line before it records the
environment, the input digest and the failures.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))  # qcalc.oracle and evaluate, for the checks

import terms as T  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as W  # noqa: E402
from reference import layout_of  # noqa: E402

WORKLOADS = ("decide", "checks", "cli")
HELD_OUT_SEED = 104729
IMPORT_REPEATS = 5
CHECKS_BODIES = 60
IMPORT_MODULES = ("qcalc", "qcalc.kernel", "qcalc.textio", "qcalc.semantics",
                  "qcalc.verifier", "qcalc.rewrite", "qcalc.derivations",
                  "qcalc.braid", "qcalc.constructor", "qcalc.cli")

_TIMER = "import time; t0 = time.perf_counter(); "
_REPORT = "; print(time.perf_counter() - t0)"
SETUP_CODE = {
    "decide": _TIMER + "import qcalc; qcalc.check_equiv(%r, %r)" % W.WARMUP_PAIR + _REPORT,
    "checks": _TIMER + "import qcalc; qcalc.validate_rules()" + _REPORT,
    "cli": _TIMER + "from qcalc.cli import main" + _REPORT,
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("QCALC_BUDGET", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # users' imports use cached bytecode
    return env


def python(args, env) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable] + args, env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)


def environment(env) -> dict:
    """The static record printed with every result.  Priming the bytecode
    caches first is part of set-up, as it is for an installed package."""
    python(["-m", "compileall", "-q", "src/qcalc"], env)
    sources = sorted((ROOT / "src" / "qcalc").rglob("*.py"))
    primed = all(Path(importlib.util.cache_from_source(str(p))).is_file() for p in sources)
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.executable,
        "python_version": platform.python_version(),
        "bytecode_primed": primed,
        "src_qcalc_lines": sum(len(p.read_text().splitlines()) for p in sources),
    }


def import_metrics(env) -> dict:
    """Interpreter start, `import qcalc`, and self time per module from
    -X importtime, each the median over fresh processes."""
    start = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        python(["-c", "pass"], env)
        start.append((time.perf_counter() - t0) * 1e3)
    qcalc_ms = [float(python(["-c", _TIMER + "import qcalc" + _REPORT], env).stdout) * 1e3
                for _ in range(IMPORT_REPEATS)]
    selves: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES + ("concurrent.futures",)}
    for _ in range(IMPORT_REPEATS):
        err = python(["-X", "importtime", "-c", "import qcalc, qcalc.cli"], env).stderr
        seen: dict[str, float] = dict.fromkeys(selves, 0.0)
        futures: list[tuple[int, float]] = []
        for line in err.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            name = fields[2].strip()
            if name in seen:
                seen[name] += int(fields[0]) / 1e3
            elif name.startswith("concurrent.futures"):
                depth = len(fields[2]) - len(fields[2].lstrip())
                futures.append((depth, int(fields[1]) / 1e3))
        # concurrent.futures pulls in multiprocessing: count the cumulative
        # time of its outermost entries.
        top = min((d for d, _ in futures), default=0)
        seen["concurrent.futures"] = sum(ms for d, ms in futures if d == top)
        for name, value in seen.items():
            selves[name].append(value)
    out = {"import.python_ms": (statistics.median(start), "ms"),
           "import.qcalc_ms": (statistics.median(qcalc_ms), "ms")}
    for name, values in selves.items():
        out[f"import.self_ms.{name}"] = (statistics.median(values), "ms")
    return out


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def prepare(workload: str, seed: int, run_dir: Path, env):
    """(what the worker reads, the generated inputs, sha256 of the texts)."""
    if workload == "decide":
        rounds = W.decide_inputs(seed)
        texts = [[[T.render(op["lhs"]), T.render(op["rhs"])] for op in r] for r in rounds]
        return ({"rounds": texts, "warmup": list(W.WARMUP_PAIR)},
                [op for r in rounds for op in r], W.digest(texts))
    if workload == "checks":
        bodies = [W.qlf_body(seed, p) for p in range(CHECKS_BODIES)]
        paths = []
        for p, (text, _) in enumerate(bodies):
            paths.append(str(run_dir / f"body-{p}.qlf"))
            Path(paths[-1]).write_text(text)
        return {"bodies": paths}, bodies, W.digest([text for text, _ in bodies])
    deriv = run_dir / "derivations"
    python(["scripts/export_derivations.py", str(deriv)], env)
    commands = [cmd for deck in W.cli_inputs(seed) for cmd in deck]
    return ({"commands": [W.cli_argv(c, str(deriv)) for c in commands]}, commands,
            W.digest([W.cli_argv(c, "{deriv}") for c in commands]))


# ---------------------------------------------------------------------------
# Answer checks, outside the timed region
# ---------------------------------------------------------------------------

def _qvalue_env(qcalc, patterns):
    return {k: (qcalc.QValue.from_pattern(v) if len(v) == 4 else v == "M")
            for k, v in patterns.items()}


class DecideChecker:
    """Checks `decide` answers: the verdict against qcalc.oracle, the
    counterexample against the benchmark's own truth tables (it must be
    the first in enumeration order and match assignments_checked), and the
    counterexample against scalar `evaluate` on the original sides."""

    def __init__(self, ops) -> None:
        import qcalc
        import qcalc.oracle

        self.qcalc, self.oracle, self.ops = qcalc, qcalc.oracle, ops
        self._oracle_cache: dict[int, bool] = {}

    def oracle_verdict(self, k: int) -> bool:
        if k not in self._oracle_cache:
            op = self.ops[k]
            parse = self.qcalc.parse
            self._oracle_cache[k] = self.oracle.equivalent(
                parse(T.render(T.mark_form(op["lhs"]))), parse(T.render(T.mark_form(op["rhs"]))))
        return self._oracle_cache[k]

    def __call__(self, rec) -> str | None:
        k = rec["input"]
        op = self.ops[k]
        if self.oracle_verdict(k) != (op["first"] is None):
            return "qcalc.oracle disagrees with the benchmark's reference"
        if rec["equivalent"] != self.oracle_verdict(k):
            return "verdict differs from qcalc.oracle"
        lay = layout_of(T.mark_form(op["lhs"]), T.mark_form(op["rhs"]))
        why = W.judge(lay, op["first"], rec["equivalent"], rec["counterexample"], rec["checked"])
        if why or rec["equivalent"]:
            return why
        q = self.qcalc
        env = _qvalue_env(q, rec["counterexample"])
        lhs, rhs = q.parse(T.render(op["lhs"])), q.parse(T.render(op["rhs"]))
        if q.evaluate(lhs, env) == q.evaluate(rhs, env):
            return "counterexample does not separate the sides under evaluate"
        return None


def _load_expected(name: str):
    with open(HERE / "expected" / name) as fh:
        return json.load(fh)


class ChecksChecker:
    """Checks a `checks` pass: exit 0, the fixed report equal to the one
    recorded at the baseline commit, and every seeded assertion's line,
    verdict, counterexample and count against the reference."""

    def __init__(self, bodies) -> None:
        self.bodies = bodies
        self.expected = _load_expected("checks.json")

    def __call__(self, rec) -> str | None:
        if rec["rc"] != 0:
            return f"exit code {rec['rc']}"
        try:
            out = json.loads(rec["stdout"])
        except ValueError:
            return "output is not JSON"
        if out.get("fixed") != self.expected:
            return "run_all_checks report differs from the recorded one"
        _, pairs = self.bodies[rec["input"]]
        report = out.get("assertions", {})
        checks = report.get("checks", [])
        if len(checks) != len(pairs):
            return f"{len(checks)} assertion results for {len(pairs)} assertions"
        for pair, got in zip(pairs, checks):
            if got.get("name") != f"L{pair['line']}" or got.get("note") != pair["text"]:
                return f"assertion result {got.get('name')} is not line {pair['line']}"
            why = W.check_answer(pair["lhs"], pair["rhs"], got.get("verdict") == "holds",
                                 got.get("counterexample"), got.get("assignments_checked"))
            if why:
                return f"L{pair['line']}: {why}"
        if report.get("all_hold") != all(c.get("verdict") == "holds" for c in checks):
            return "all_hold does not match the checks"
        return None


class CliChecker:
    """Checks a `qcalc` command: fixed menu commands against the exit code
    and JSON output recorded at the baseline commit; seeded `equiv`
    commands against the reference, byte for byte in both formats."""

    def __init__(self, commands) -> None:
        self.commands = commands
        self.expected = _load_expected("cli.json")

    def __call__(self, rec) -> str | None:
        cmd = self.commands[rec["input"]]
        if cmd["id"] == "equiv":
            want_rc, want_out = W.equiv_output(cmd)
        else:
            want = self.expected[cmd["id"]][cmd["format"]]
            want_rc, want_out = want["exit"], want.get("stdout")
        if rec["rc"] != want_rc:
            return f"{cmd['id']} exit code {rec['rc']}, want {want_rc}"
        if want_out is not None and rec["stdout"] != want_out:
            return f"{cmd['id']} --format {cmd['format']} output differs"
        return None


def checker(workload: str, inputs):
    return {"decide": DecideChecker, "checks": ChecksChecker, "cli": CliChecker}[workload](inputs)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def failures_of(check, records) -> list[tuple[int, str]]:
    """(operation, reason) for every record the checker rejects, or that
    carries an error (an exception, or an operation cut off by the
    worker's time limit)."""
    return [(r["op"], why) for r in records if (why := r.get("error") or check(r))]


def run_worker(workload, run_dir, seconds, mode, env, limit_s) -> dict:
    """Run the worker in a process group of its own.  If it is not done
    within limit_s, stop the group, keep the operations it finished and
    count the one it was in as failed."""
    log = run_dir / f"records-{mode}.jsonl"
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), workload, str(run_dir),
                             str(seconds), mode],
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        rc = proc.wait(timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        rc = None
    lines = [json.loads(line) for line in log.read_text().splitlines()] if log.is_file() else []
    out = {"records": [r for r in lines if "op" in r],
           "setup": [r["setup_s"] for r in lines if "setup_s" in r]}
    if rc == 0:
        with open(run_dir / f"worker-{mode}.json") as fh:
            out.update(json.load(fh))
        return out
    wall = time.perf_counter() - t0
    done = sum(r["ms"] for r in out["records"]) / 1e3
    out["records"].append({"op": len(out["records"]), "input": None,
                           "ms": max(wall - done, 0.0) * 1e3,
                           "error": f"worker {'timed out' if rc is None else f'exit code {rc}'}"})
    out.update(elapsed_s=wall, spans=[],
               peak_rss_kb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return out


def worker_limit(seconds: float) -> float:
    """Time a worker may take for `seconds` of loop time: the last decide
    round or command may run past the loop's end, and set-up samples and
    tracing add to it."""
    return 2 * seconds + 60


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def declared(trace: int) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    needed = ["src/qcalc/__init__.py", "scripts/shared_laws.qlf",
              "scripts/export_derivations.py", "BENCHMARK.json"]
    missing = [n for n in needed if not (ROOT / n).is_file()]
    if missing:
        print(f"error: not a qcalc checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    run_dir = ROOT / ".perfbench_out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "held_out_seed": HELD_OUT_SEED, "env": environment(env)}
    worker_inputs, inputs, record["inputs_sha256"] = prepare(
        args.workload, args.seed, run_dir, env)
    worker_inputs["setup_code"] = SETUP_CODE[args.workload]
    with open(run_dir / "inputs.json", "w") as fh:
        json.dump(worker_inputs, fh)
    check = checker(args.workload, inputs)

    if args.trace:
        computed = import_metrics(env)
        out = run_worker(args.workload, run_dir, args.seconds, "traced", env,
                         worker_limit(args.seconds))
        records = out["records"]
        traced = [r["ms"] for r in records if r.get("traced") is True]
        untraced = [r["ms"] for r in records if r.get("traced") is False]
        layers, record["absent"] = tracing.summarize(out["spans"], len(traced))
        computed.update(layers)
        computed["trace.overhead_frac"] = (
            sum(traced) / sum(untraced) - 1 if untraced else 0.0, "ratio")
    else:
        out = run_worker(args.workload, run_dir, args.seconds, "timed", env,
                         worker_limit(args.seconds))
        records, setup = out["records"], out["setup"] or [out["elapsed_s"]]
        ms = [r["ms"] for r in records]
        computed = {
            "ops_per_s": (len(records) / out["elapsed_s"], "1/s"),
            "op_p50_ms": (statistics.median(ms), "ms"),
            "op_p90_ms": (percentile(ms, 0.9), "ms"),
            "peak_rss_mb": (out["peak_rss_kb"] / 1024, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
        record["setup_samples_s"] = setup
        record["op_samples"] = len(ms)
        record["op_p90_samples_beyond"] = len(ms) - math.ceil(0.9 * len(ms))

    failures = failures_of(check, records)
    record["operations"] = len(records)
    record["error_rate"] = len(failures) / len(records)
    record["failures"] = [f"op {op}: {why}" for op, why in failures[:5]]

    metrics = {}
    for m in declared(args.trace):
        value, unit = computed[m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']} is measured in {unit}, declared {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

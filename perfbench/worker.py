"""The timed loop of one workload, run as a child of run.py so that its
peak memory, and its children's, belong to the workload alone.

usage: worker.py WORKLOAD RUN_DIR SECONDS MODE

MODE is `timed` for the end-to-end run or `traced` for the traced run.
The loop runs until SECONDS have passed (whole rounds on `decide`).  In
the traced run each input runs twice, once untraced and once traced, so
that the two halves cover the same operations in the same stretch of time.
Inputs come from RUN_DIR/inputs.json.  Each operation's record, and each
set-up sample, is appended to RUN_DIR/records-MODE.jsonl as soon as it is
made, so that a worker stopped part-way leaves what it finished; the
loop's time, peak memory and span files go to RUN_DIR/worker-MODE.json at
the end.

The timed run also takes the set-up samples: SETUP_REPEATS fresh processes
running the workload's set-up code, spread evenly over the loop's time
(the first before it, the last after it) so that they meet the same
machine states as the operations.  Their time is not loop time.

Load comes from one client in a closed loop: the next operation starts
when the previous one has finished, and at most one child runs at a time.
On `cli`, `timed` starts a cold `qcalc` process per command, while the
traced run calls `qcalc.cli.main` in-process so that its layers can be
traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path

QCALC_ENTRY = "import sys; from qcalc.cli import main; sys.exit(main())"
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 11


def _patterns(env):
    if env is None:
        return None
    return {k: (v.pattern() if hasattr(v, "pattern") else ("M" if v else "U"))
            for k, v in env.items()}


def _schedule(total: int, per_round: int, seconds: float, run_op, log, setup=None,
              paired: bool = False):
    """Run inputs 0, 1, ... (wrapping over `total` inputs) until `seconds` of
    loop time have passed at a round boundary, logging each record.  With
    `setup`, take the set-up samples at evenly spaced points of loop time.
    With `paired`, run each input twice, untraced and traced, in an order
    that alternates from one input to the next, so that both halves of the
    traced run meet the same machine states.  Returns the loop time."""
    marks = [seconds * j / (SETUP_REPEATS - 1) for j in range(SETUP_REPEATS)] if setup else []
    t0 = time.perf_counter()
    paused = 0.0

    def loop_time() -> float:
        return time.perf_counter() - t0 - paused

    def sample_due(now: float) -> None:
        nonlocal paused
        while marks and marks[0] <= now:
            marks.pop(0)
            s0 = time.perf_counter()
            log({"setup_s": setup()})
            paused += time.perf_counter() - s0

    op = n = 0
    while True:
        sample_due(loop_time())
        if n and n % per_round == 0 and loop_time() >= seconds:
            break
        for traced in ((n % 2 == 1, n % 2 == 0) if paired else (False,)):
            rec = run_op(op, n % total, traced)
            if paired:
                rec["traced"] = traced
            log(rec)
            op += 1
        n += 1
    elapsed = loop_time()
    sample_due(math.inf)
    return elapsed


def _switch(tracer, traced: bool) -> None:
    if tracer and traced:
        tracer.install()
    elif tracer:
        tracer.remove()


def _decide(inputs, seconds, tracer, log, setup):
    import qcalc

    qcalc.check_equiv(*inputs["warmup"])
    pairs = [p for r in inputs["rounds"] for p in r]

    def run_op(i, k, traced):
        _switch(tracer, traced)
        lhs, rhs = pairs[k]
        t0 = time.perf_counter()
        try:
            res = qcalc.check_equiv(lhs, rhs)
        except Exception as err:  # counted as a failed operation
            return {"op": i, "input": k, "ms": (time.perf_counter() - t0) * 1e3,
                    "error": repr(err)}
        ms = (time.perf_counter() - t0) * 1e3
        return {"op": i, "input": k, "ms": ms, "equivalent": res.equivalent,
                "counterexample": _patterns(res.counterexample),
                "checked": res.assignments_checked}

    elapsed = _schedule(len(pairs), len(inputs["rounds"][0]), seconds, run_op, log, setup,
                        paired=tracer is not None)
    return elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _spawn(argv):
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True)
    return (time.perf_counter() - t0) * 1e3, proc.returncode, proc.stdout


def _checks(inputs, seconds, run_dir, mode, log, setup):
    """A pass's time is its process's wall time.  In the traced run the
    pass reports how long the tracer's own set-up and span dump took (about
    0 untraced), and that is taken off."""
    bodies = inputs["bodies"]
    spans = []

    def run_op(i, k, traced):
        argv = [sys.executable, str(HERE / "checks_pass.py"), bodies[k]]
        if traced:
            spans.append(str(Path(run_dir) / f"spans-pass-{i}.json"))
            argv += ["traced", spans[-1]]
        elif mode == "traced":
            argv.append("untraced")
        ms, rc, out = _spawn(argv)
        if mode == "traced":
            try:
                ms -= json.loads(out)["tracer_ms"]
            except (ValueError, KeyError):
                pass  # the answer check reports the broken output
        return {"op": i, "input": k, "ms": ms, "rc": rc, "stdout": out}

    elapsed = _schedule(len(bodies), 1, seconds, run_op, log, setup, paired=mode == "traced")
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return elapsed, peak, spans


def _cli_cold(inputs, seconds, log, setup):
    commands = inputs["commands"]

    def run_op(i, k, traced):
        ms, rc, out = _spawn([sys.executable, "-c", QCALC_ENTRY] + commands[k])
        return {"op": i, "input": k, "ms": ms, "rc": rc, "stdout": out}

    elapsed = _schedule(len(commands), 1, seconds, run_op, log, setup)
    return elapsed, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def _cli_inprocess(inputs, seconds, tracer, log):
    import qcalc.cli

    commands = inputs["commands"]

    def run_op(i, k, traced):
        _switch(tracer, traced)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = qcalc.cli.main(list(commands[k]))
        ms = (time.perf_counter() - t0) * 1e3
        return {"op": i, "input": k, "ms": ms, "rc": rc, "stdout": out.getvalue()}

    elapsed = _schedule(len(commands), 1, seconds, run_op, log, paired=True)
    return elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _setup_sampler(code: str):
    def sample() -> float:
        return float(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                    text=True, check=True).stdout)
    return sample


def main() -> int:
    workload, run_dir, seconds, mode = sys.argv[1:5]
    seconds = float(seconds)
    run_dir = Path(run_dir)
    with open(run_dir / "inputs.json") as fh:
        inputs = json.load(fh)
    tracer = None
    if mode == "traced" and workload != "checks":
        import tracer as tracing

        tracer = tracing.Tracer()
    setup = _setup_sampler(inputs["setup_code"]) if mode == "timed" else None
    spans = []
    with open(run_dir / f"records-{mode}.jsonl", "w") as records:
        def log(rec) -> None:
            records.write(json.dumps(rec) + "\n")
            records.flush()

        if workload == "decide":
            elapsed, peak = _decide(inputs, seconds, tracer, log, setup)
        elif workload == "checks":
            elapsed, peak, spans = _checks(inputs, seconds, run_dir, mode, log, setup)
        elif mode == "timed":
            elapsed, peak = _cli_cold(inputs, seconds, log, setup)
        else:
            elapsed, peak = _cli_inprocess(inputs, seconds, tracer, log)
    if tracer:
        spans = [str(run_dir / "spans-worker.json")]
        tracer.dump(spans[0])
    out = {"elapsed_s": elapsed, "peak_rss_kb": peak, "spans": spans}
    with open(run_dir / f"worker-{mode}.json", "w") as fh:
        fh.write(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

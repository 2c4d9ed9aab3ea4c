"""One operation of the `checks` workload, in a fresh process: everything
scripts/run_all_checks.py checks, in its order, then `check_assertions`
on a seeded .qlf body.

usage: checks_pass.py BODY.qlf [untraced | traced SPANS.json]

Prints one JSON object, {"fixed": ..., "assertions": ...}; `fixed` holds
what run_all_checks.py --json reports apart from its elapsed time.  With
no mode this is the end-to-end pass.  The traced run runs each body as
an `untraced` and a `traced` pass: both import the tracer and every module
it wraps, so that they import the same code, and `traced` also wraps the
public functions and writes the spans to SPANS.json.  Both then add
`tracer_ms`, the time the tracer's set-up and span dump took, which is not
the program's time.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    with open(sys.argv[1]) as fh:
        body = fh.read()
    mode = sys.argv[2] if len(sys.argv) > 2 else None
    from qcalc import braid, derivations, rewrite, verifier

    tracer = None
    tracer_s = 0.0
    if mode:
        t0 = time.perf_counter()
        import tracer as tracing

        tracing.import_modules()
        if mode == "traced":
            tracer = tracing.Tracer()
            tracer.install()
        tracer_s += time.perf_counter() - t0

    rules_validated = rewrite.validate_rules()
    ok = True
    suites = {}
    for suite in verifier.SUITES:
        report = verifier.run_law_suite(suite)
        suites[suite] = report.to_json()
        ok &= report.all_hold
    dist = verifier.distribution_matrix()
    demos = verifier.distribution_demos()
    ok &= dist.all_hold and demos.demo1_holds and demos.demo2_resolved == "template"
    braids = {n: braid.verify_braid_relations(n) for n in range(2, 9)}
    ok &= all(r.all_hold for r in braids.values())
    scripts = {}
    for d in derivations.builtin_derivations():
        report = rewrite.check_derivation(d)
        scripts[d.name] = report.to_json()
        ok &= report.ok
    assertions = verifier.check_assertions(body).to_json()

    if tracer:
        t0 = time.perf_counter()
        tracer.dump(sys.argv[3])
        tracer_s += time.perf_counter() - t0
    fixed = {
        "ok": ok,
        "rules_validated": rules_validated,
        "suites": suites,
        "distribution": dist.to_json(),
        "demonstrations": demos.to_json(),
        "braid_relations": {n: r.to_json() for n, r in braids.items()},
        "derivations": scripts,
    }
    out = {"fixed": fixed, "assertions": assertions}
    if mode:
        out["tracer_ms"] = tracer_s * 1e3
    print(json.dumps(out, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

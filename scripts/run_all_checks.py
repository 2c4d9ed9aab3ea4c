#!/usr/bin/env python3
"""Run every bundled verification end to end and print a summary:
the four law suites, the distribution matrix with the two demonstrations,
the braid relations, and all builtin derivation scripts.

Usage: python scripts/run_all_checks.py [--json]
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qcalc.braid import verify_braid_relations
from qcalc.derivations import builtin_derivations
from qcalc.rewrite import check_derivation, validate_rules
from qcalc.verifier import SUITES, distribution_matrix, run_law_suite, distribution_demos


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    summary = {"rules_validated": validate_rules()}
    ok = True

    suites = {}
    for suite in SUITES:
        report = run_law_suite(suite)
        suites[suite] = report.to_json() if args.json else report
        ok &= report.all_hold

    dist = distribution_matrix()
    demos = distribution_demos()
    ok &= dist.all_hold and demos.ok

    braids = {n: verify_braid_relations(n) for n in range(2, 9)}
    ok &= all(r.all_hold for r in braids.values())

    scripts = {}
    for d in builtin_derivations():
        report = check_derivation(d)
        scripts[d.name] = report
        ok &= report.ok

    elapsed = time.perf_counter() - t0

    if args.json:
        payload = {
            "ok": ok,
            "elapsed_seconds": round(elapsed, 3),
            "rules_validated": summary["rules_validated"],
            "suites": suites,
            "distribution": dist.to_json(),
            "demonstrations": demos.to_json(),
            "braid_relations": {n: r.to_json() for n, r in braids.items()},
            "derivations": {name: r.to_json() for name, r in scripts.items()},
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"validated {summary['rules_validated']} rule instances")
        for suite in SUITES:
            print(suites[suite].render())
        print(dist.render())
        print(demos.render())
        for n, r in braids.items():
            state = "all hold" if r.all_hold else "FAILURES"
            print(f"braid relations n={n}: {state} ({len(r.checks)} checks)")
        for name, r in scripts.items():
            print(f"derivation {name:<28} {'PASSES' if r.ok else 'FAILS'}"
                  f" ({len(r.steps)} steps)")
        print(f"\n{'ALL CHECKS PASS' if ok else 'FAILURES PRESENT'}"
              f" in {elapsed:.2f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

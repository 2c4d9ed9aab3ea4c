"""Command-line front end.

Subcommands: parse, eval, equiv, laws, distribution, group-table,
braid {compose,verify,diagram}, check-derivation, construct.  Each
subcommand returns (payload, text, ok): the JSON document, the text output
and whether every requested check passed; ``main`` alone prints one of the
first two, as ``--format`` says, after the result is complete.
Exit codes: 0 when every requested check passes, 1 when a check fails,
2 on usage or syntax errors (reported to stderr with the input span).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .braid import (
    MAX_STRANDS,
    braid_diagram,
    braid_to_signed_perm,
    parse_braid_word,
    verify_braid_relations,
    word_to_text,
)
from .constructor import mark_slot, permute_expr, verify_construction
from .kernel import Q8Op, QValue, SignedPerm, q8_mul
from .rewrite import Derivation, check_derivation
from .semantics import EvalError, evaluate
from .textio import ParseError, parse, parse_assertion, parse_qlf, print_expr
from .verifier import (
    BudgetExceeded,
    SUITES,
    assignment_budget,
    check_assertions,
    check_equiv,
    distribution_matrix,
    env_patterns,
    run_law_suite,
    distribution_demos,
)


def _parse_env(text: str) -> dict:
    env: dict = {}
    if not text:
        return env
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"bad --env item {item!r}; want name=MUUM or name=M")
        name, _, value = item.partition("=")
        name = name.strip()
        value = value.strip()
        if len(value) == 4:
            env[name] = QValue.from_pattern(value)
        elif len(value) == 1 and value in "MU":
            env[name] = value == "M"
        else:
            raise ValueError(
                f"bad value {value!r} for {name}; want 4-char (MUUM) or 1-char (M/U)"
            )
    return env


def _report(r):
    return r.to_json(), r.render(), r.all_hold


def _cmd_parse(args):
    lines = []
    for line in parse_qlf(Path(args.file).read_text()):
        if line.rhs is None:
            lines.append({"line": line.lineno, "expr": print_expr(line.lhs)})
        else:
            lines.append(
                {
                    "line": line.lineno,
                    "lhs": print_expr(line.lhs),
                    "rhs": print_expr(line.rhs),
                }
            )
    text = "\n".join(
        e["expr"] if "expr" in e else f"{e['lhs']} == {e['rhs']}" for e in lines
    )
    return {"lines": lines}, text, True


def _cmd_eval(args):
    expr = parse(args.expr)
    value = evaluate(expr, _parse_env(args.env or "")).pattern()
    return {"expr": print_expr(expr), "value": value}, value, True


def _cmd_equiv(args):
    if args.file:
        return _report(check_assertions(Path(args.file).read_text()))
    if args.assertion is None:
        raise ValueError("equiv needs an \"LHS == RHS\" argument or --file")
    lhs, rhs = parse_assertion(args.assertion)
    result = check_equiv(lhs, rhs)
    payload = {
        "lhs": print_expr(lhs),
        "rhs": print_expr(rhs),
        "verdict": result.verdict,
        "assignments_checked": result.assignments_checked,
    }
    text = result.verdict
    ce = env_patterns(result.counterexample)
    if ce is not None:
        payload["counterexample"] = ce
    if ce:
        text += "\ncounterexample: " + ", ".join(
            f"{k}={v}" for k, v in sorted(ce.items())
        )
    return payload, text, result.equivalent


def _cmd_laws(args):
    return _report(run_law_suite(args.suite))


def _cmd_distribution(args):
    report = distribution_matrix()
    demos = distribution_demos()
    payload = report.to_json()
    payload["demonstrations"] = demos.to_json()
    ok = report.all_hold and demos.demo1_holds and demos.demo2_resolved == "template"
    return payload, f"{report.render()}\n{demos.render()}", ok


def _cmd_group_table(args):
    ops = list(Q8Op)
    payload = {
        "elements": [g.symbol for g in ops],
        "products": {
            g.symbol: {h.symbol: q8_mul(g, h).symbol for h in ops} for g in ops
        },
    }
    width = 4
    rows = [" " * width + "".join(f"{h.symbol:>{width}}" for h in ops)]
    for g in ops:
        rows.append(
            f"{g.symbol:>{width}}"
            + "".join(f"{q8_mul(g, h).symbol:>{width}}" for h in ops)
        )
    rows.append("(row applied first, column second)")
    return payload, "\n".join(rows), True


def _cmd_braid_compose(args):
    word = parse_braid_word(args.word, args.n)
    perm = braid_to_signed_perm(word)
    payload = {
        "word": word_to_text(word),
        "arity": word.arity,
        "target": list(perm.target),
        "marked": list(perm.marked),
    }
    return payload, repr(perm), True


def _cmd_braid_verify(args):
    return _report(verify_braid_relations(args.n))


def _cmd_braid_diagram(args):
    word = parse_braid_word(args.word, args.n)
    diagram = braid_diagram(word)
    payload = {"arity": word.arity, "word": word_to_text(word), "diagram": diagram}
    return payload, diagram, True


def _cmd_check_derivation(args):
    data = json.loads(Path(args.file).read_text())
    scripts = data if isinstance(data, list) else [data]
    reports = [check_derivation(Derivation.from_json(entry)) for entry in scripts]
    return (
        [r.to_json() for r in reports],
        "\n".join(r.render() for r in reports),
        all(r.ok for r in reports),
    )


def _parse_perm(text: str) -> SignedPerm:
    source = []
    marks = []
    for item in text.split(","):
        item = item.strip()
        flagged = item.endswith("m")
        if flagged:
            item = item[:-1]
        if item not in ("1", "2", "3", "4"):
            raise ValueError(
                f"bad permutation entry {item!r}; want e.g. 1,4m,2,3"
            )
        source.append(int(item))
        marks.append(flagged)
    if len(source) != 4:
        raise ValueError("permutation needs exactly 4 entries")
    if sorted(source) != [1, 2, 3, 4]:
        raise ValueError(f"not a permutation of 1..4: {tuple(source)}")
    return SignedPerm(tuple(source), tuple(marks))


def _cmd_construct(args):
    if args.kind == "mark-slot":
        slot = int(args.arg)
        expr = mark_slot(slot)
        p = SignedPerm((1, 2, 3, 4), tuple(s == slot for s in (1, 2, 3, 4)))
    else:
        p = _parse_perm(args.arg)
        expr = permute_expr(p)
    result = verify_construction(expr, p)
    payload = {
        "expression": print_expr(expr),
        "verified": result.equivalent,
        "assignments_checked": result.assignments_checked,
    }
    text = f"{payload['expression']}\nverified: {result.equivalent}"
    return payload, text, result.equivalent


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qcalc",
        description="16-valued mark calculus: evaluation, exhaustive"
        " equivalence, law suites, derivation checking, braids.",
    )
    ap.add_argument("--format", choices=("text", "json"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="echo a .qlf file in canonical form")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("eval", help="evaluate an expression")
    p.add_argument("expr")
    p.add_argument("--env", default="", help="bindings, e.g. A=MUUM,b=M")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("equiv", help='check an "LHS == RHS" assertion')
    p.add_argument("assertion", nargs="?")
    p.add_argument("--file", help="check every assertion in a .qlf file")
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("laws", help="run a named law suite")
    p.add_argument("suite", choices=SUITES)
    p.set_defaults(fn=_cmd_laws)

    p = sub.add_parser(
        "distribution",
        help="verify the 8x8 distribution matrix and the two demonstrations",
    )
    p.set_defaults(fn=_cmd_distribution)

    p = sub.add_parser("group-table", help="print the operator group table")
    p.set_defaults(fn=_cmd_group_table)

    b = sub.add_parser("braid", help="braid-word operations")
    bsub = b.add_subparsers(dest="braid_command", required=True)
    p = bsub.add_parser("compose", help="compose a word to a signed permutation")
    p.add_argument("word")
    p.add_argument("--n", type=int, default=4, help="strand count")
    p.set_defaults(fn=_cmd_braid_compose)
    p = bsub.add_parser("verify", help="verify the braid relations")
    p.add_argument("--n", type=int, default=4)
    p.set_defaults(fn=_cmd_braid_verify)
    p = bsub.add_parser("diagram", help="draw a word as ASCII strands")
    p.add_argument("word")
    p.add_argument("--n", type=int, default=4)
    p.set_defaults(fn=_cmd_braid_diagram)

    p = sub.add_parser("check-derivation", help="replay a derivation script")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check_derivation)

    p = sub.add_parser("construct", help="slot constructions")
    p.add_argument("kind", choices=("mark-slot", "permute"))
    p.add_argument("arg", help="slot number, or permutation like 1,4m,2,3")
    p.set_defaults(fn=_cmd_construct)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # Every check reads QCALC_BUDGET; a malformed value is a usage
        # error before any of them runs.
        assignment_budget()
        if hasattr(args, "n") and not 2 <= args.n <= MAX_STRANDS:
            raise ValueError(f"braid arity must be between 2 and {MAX_STRANDS}")
        payload, text, ok = args.fn(args)
    except ParseError as err:
        print(
            f"error: {err.message} (at {err.span.start}..{err.span.end})",
            file=sys.stderr,
        )
        return 2
    except BudgetExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (EvalError, ValueError, KeyError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif text:
        print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

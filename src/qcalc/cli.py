"""Command-line front end.

Subcommands: parse, eval, equiv, laws, distribution, group-table,
braid {compose,verify,diagram}, check-derivation, construct.  Each
subcommand returns (payload, text, ok): the JSON document, the text output
and whether every requested check passed; ``main`` alone prints one of the
first two, as ``--format`` says, after the result is complete.
Exit codes: 0 when every requested check passes, 1 when a check fails,
2 on a usage error.  An input error is a ValueError (the library's
ParseError, EvalError and BudgetExceeded are ValueErrors), a KeyError or an
OSError; ``main`` reports it as one line on stderr, with the input span for
a ParseError.

A command imports only the modules it runs, inside its function, so a cold
``qcalc group-table`` never loads the decider.  Names the package exports
are imported from it, so a wrapper put in the package namespace (as
perfbench's tracer does) sees these calls too.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path


def _parse_env(text: str) -> dict:
    from . import QValue

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
    from . import parse_qlf, print_expr

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
    from . import evaluate, parse, print_expr

    expr = parse(args.expr)
    value = evaluate(expr, _parse_env(args.env or "")).pattern()
    return {"expr": print_expr(expr), "value": value}, value, True


def _cmd_equiv(args):
    from . import check_assertions, check_equiv, parse_assertion, print_expr
    from .verifier import env_patterns

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
    from . import run_law_suite

    return _report(run_law_suite(args.suite))


def _cmd_distribution(args):
    from . import distribution_demos, distribution_matrix

    report = distribution_matrix()
    demos = distribution_demos()
    payload = report.to_json()
    payload["demonstrations"] = demos.to_json()
    ok = report.all_hold and demos.ok
    return payload, f"{report.render()}\n{demos.render()}", ok


def _cmd_group_table(args):
    from . import Q8Op, q8_mul

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
    from . import braid_to_signed_perm, parse_braid_word, word_to_text

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
    from . import verify_braid_relations

    return _report(verify_braid_relations(args.n))


def _cmd_braid_diagram(args):
    from . import braid_diagram, parse_braid_word, word_to_text

    word = parse_braid_word(args.word, args.n)
    diagram = braid_diagram(word)
    payload = {"arity": word.arity, "word": word_to_text(word), "diagram": diagram}
    return payload, diagram, True


def _cmd_check_derivation(args):
    import json

    from . import Derivation, check_derivation

    data = json.loads(Path(args.file).read_text())
    scripts = data if isinstance(data, list) else [data]
    reports = [check_derivation(Derivation.from_json(entry)) for entry in scripts]
    return (
        [r.to_json() for r in reports],
        "\n".join(r.render() for r in reports) or "(no derivations)",
        all(r.ok for r in reports),
    )


def _parse_perm(text: str):
    from . import SignedPerm

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
    from . import SignedPerm, mark_slot, permute_expr, print_expr
    from .constructor import verify_construction

    if args.kind == "mark-slot":
        try:
            slot = int(args.arg)
        except ValueError:
            raise ValueError("slot index must be 1..4") from None
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that can add its arguments when it first parses,
    so that building the parser imports nothing a command may not run."""

    def __init__(self, *args, add_arguments=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._add_arguments = add_arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._add_arguments is not None:
            self._add_arguments(self)
            self._add_arguments = None
        return super().parse_known_args(args, namespace)


def _add_suite_argument(p: argparse.ArgumentParser) -> None:
    from . import SUITES

    p.add_argument("suite", choices=SUITES)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
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

    p = sub.add_parser(
        "laws", help="run a named law suite", add_arguments=_add_suite_argument
    )
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
        # error before any of them runs, whatever the command.
        if os.environ.get("QCALC_BUDGET"):
            from .verifier import assignment_budget

            assignment_budget()
        if hasattr(args, "n"):
            from .braid import MAX_STRANDS

            if not 2 <= args.n <= MAX_STRANDS:
                raise ValueError(f"braid arity must be between 2 and {MAX_STRANDS}")
        payload, text, ok = args.fn(args)
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as err:
        # A ParseError's text ends with its span.
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.format == "json":
        import json

        print(json.dumps(payload, sort_keys=True, indent=2))
    elif text:
        print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

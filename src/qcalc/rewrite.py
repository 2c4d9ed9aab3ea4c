"""Named rewrite rules and a step-by-step derivation checker.

A rule is an oriented pair of patterns, possibly parametrized by mark
subscripts (alpha, beta) or power exponents (m, n).  Every variable in a
pattern is a metavariable.  Matching is modulo commutativity,
associativity and flattening of juxtaposition only; marks match exactly.
A replayed step supplies its full substitution, so applying a rule never
searches: the instantiated source side must equal the addressed subterm
up to juxtaposition reordering (or, at a juxtaposition node, a
sub-multiset of its children, the rest passing through unchanged).
Recorded derivations always carry the full substitution.

Position paths are child indices; children of a juxtaposition are
addressed in the order of their canonical printed forms so that scripts
are deterministic.

A search (find_applications, and the builder of the bundled scripts)
may leave the substitution out; matching then fills it in.  Positions
are tried in preorder and address order.  A metavariable binds one whole
subterm, and seen again must equal it by canonical key; a juxtaposition
matches as a multiset, each pattern part in written order trying the
children in address order.  The first position whose match gives an
admissible replacement wins, with its first match, so a script gives a
substitution only where that first match is not the intended one.

Rules are validated semantically (via exhaustive equivalence) the first
time the database is used; an unsound rule aborts.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import product as iproduct
from typing import Callable, Iterator, Mapping, Sequence

from .constructor import op_form
from .kernel import IMAGINARY_SUBS, MARK_OPS, Record, q8_mul, q8_power
from .textio import (
    VOID,
    Expr,
    Juxt,
    Mark,
    Power,
    Var,
    ac_equal,
    canonical_text,
    children,
    free_vars,
    juxt,
    parse,
    power,
    print_expr,
    substitute,
    with_children,
)
from .verifier import (
    APPENDIX_A_LAWS,
    APPENDIX_B_LAWS,
    COMPILE_LAWS,
    check_equiv,
)


class RewriteError(Exception):
    pass


class BadPosition(RewriteError):
    pass


class BadSubstitution(RewriteError):
    pass


class SideConditionViolation(RewriteError):
    pass


class NoMatch(RewriteError):
    pass


# The values each rule parameter ranges over, and how an error names them.
_PARAM_DOMAINS: dict[str, tuple[tuple[object, ...], str]] = {
    **dict.fromkeys(("alpha", "beta"), (IMAGINARY_SUBS, "one of i, j, k")),
    **dict.fromkeys(("m", "n"), ((1, 2, 3), "an integer in 1..3")),
}


class Rule(Record):
    """An oriented rewrite law with optional mark/exponent parameters.

    ``lhs`` and ``rhs`` build the two sides from the parameter values.
    """

    id: str
    params: tuple[str, ...]
    lhs: Callable[[Mapping[str, object]], Expr]
    rhs: Callable[[Mapping[str, object]], Expr]

    def validate_params(self, params: Mapping[str, object]) -> dict[str, object]:
        out: dict[str, object] = {}
        for name in self.params:
            if name not in params:
                raise SideConditionViolation(
                    f"rule {self.id} needs parameter {name!r}"
                )
            value = params[name]
            values, noun = _PARAM_DOMAINS[name]
            # The type is exact: true is an int to isinstance, but no exponent.
            if type(value) is not type(values[0]) or value not in values:
                raise SideConditionViolation(
                    f"parameter {name}={value!r} must be {noun}"
                )
            out[name] = value
        if self.id == "Q5-AntiCommutes" and out["alpha"] == out["beta"]:
            raise SideConditionViolation("anti-commutation needs alpha != beta")
        extra = set(params) - set(self.params)
        if extra:
            raise SideConditionViolation(
                f"rule {self.id} takes no parameters {sorted(extra)}"
            )
        return out

    def param_space(self) -> list[dict[str, object]]:
        combos = []
        for values in iproduct(*(_PARAM_DOMAINS[name][0] for name in self.params)):
            combo = dict(zip(self.params, values))
            try:
                self.validate_params(combo)
            except SideConditionViolation:
                continue
            combos.append(combo)
        return combos

    def sides(self, params: Mapping[str, object]) -> tuple[Expr, Expr]:
        p = self.validate_params(params)
        return self.lhs(p), self.rhs(p)


def _static(side: Expr | str) -> Callable[[Mapping[str, object]], Expr]:
    expr = parse(side) if isinstance(side, str) else side
    return lambda params: expr


def _templated(template: str) -> Callable[[Mapping[str, object]], Expr]:
    @lru_cache(maxsize=32)
    def build(alpha: str = "", beta: str = "") -> Expr:
        return parse(template.format(a=alpha, b=beta))

    return lambda params: build(params.get("alpha", ""), params.get("beta", ""))


def _qcomp_lhs(params: Mapping[str, object]) -> Expr:
    inner = power(str(params["alpha"]), Var("A"), int(params["m"]))
    return power(str(params["beta"]), inner, int(params["n"]))


def _qcomp_rhs(params: Mapping[str, object]) -> Expr:
    g = q8_mul(
        q8_power(MARK_OPS[str(params["alpha"])], int(params["m"])),
        q8_power(MARK_OPS[str(params["beta"])], int(params["n"])),
    )
    return op_form(g, Var("A"))


def _rule(
    rule_id: str, lhs: str, rhs: Expr | str, params: tuple[str, ...] = ()
) -> Rule:
    build = _templated if params else _static
    return Rule(rule_id, params, build(lhs), build(rhs))


_RULE_LIST: list[Rule] = [
    # The ten initials and consequences shared with the plain calculus, and
    # the laws specific to the 16-valued calculus, as the law suites state them.
    *(_rule(*law) for law in APPENDIX_A_LAWS),
    *(_rule(*law) for law in APPENDIX_B_LAWS),
    *(_rule(law_id, lhs, op_form(op, VOID)) for law_id, lhs, op in COMPILE_LAWS),
    # The distribution law for the cube-power conjunction forms.
    _rule(
        "QD-AndDistribution",
        "[[A]{a} [B]{a}]{a}^3 C",
        "[[A C]{a} [B C]{a}]{a}^3",
        ("alpha",),
    ),
    # Definitional expansions of marks over tuple literals.
    _rule("D1-PlainTuple", "[{s1, s2, s3, s4}]", "{[s1], [s2], [s3], [s4]}"),
    _rule("D1-ITuple", "[{s1, s2, s3, s4}]i", "{[s2], s1, s4, [s3]}"),
    _rule("D1-JTuple", "[{s1, s2, s3, s4}]j", "{[s3], [s4], s1, s2}"),
    _rule("D1-KTuple", "[{s1, s2, s3, s4}]k", "{[s4], s3, [s2], s1}"),
    _rule(
        "D2-JuxtTuple",
        "{s1, s2, s3, s4} {t1, t2, t3, t4}",
        "{s1 t1, s2 t2, s3 t3, s4 t4}",
    ),
    # Values of the empty marks and their cubes, as tuple literals.
    _rule("E-EmptyPlain", "[]", "{[], [], [], []}"),
    _rule("E-EmptyI", "[]i", "{[], , , []}"),
    _rule("E-EmptyJ", "[]j", "{[], [], , }"),
    _rule("E-EmptyK", "[]k", "{[], , [], }"),
    _rule("E-EmptyI3", "[]i^3", "{, [], [], }"),
    _rule("E-EmptyJ3", "[]j^3", "{, , [], []}"),
    _rule("E-EmptyK3", "[]k^3", "{, [], , []}"),
    # Composition facts for nested subscripted marks.
    _rule("C-IJ", "[[A]i]j", "[A]k"),
    _rule("C-JK", "[[A]j]k", "[A]i"),
    _rule("C-KI", "[[A]k]i", "[A]j"),
    _rule("C-JI", "[[A]j]i", "[[A]k]"),
    _rule("C-KJ", "[[A]k]j", "[[A]i]"),
    _rule("C-IK", "[[A]i]k", "[[A]j]"),
    _rule("C-JKI", "[[[A]j]k]i", "[A]"),
    _rule("C-KIJ", "[[[A]k]i]j", "[A]"),
    # Power notation.
    _rule("P2-PowerSquare", "[A]{a}^2", "[A]", ("alpha",)),
    _rule("P3-PowerCube", "[A]{a}^3", "[[A]{a}]", ("alpha",)),
    Rule("QCOMP", ("alpha", "m", "beta", "n"), _qcomp_lhs, _qcomp_rhs),
]

RULES: dict[str, Rule] = {r.id: r for r in _RULE_LIST}


@lru_cache(maxsize=1)
def validate_rules() -> int:
    """Check every rule instantiation for semantic validity; returns the
    number of instances checked.  Any unsound rule aborts."""
    checked = 0
    for rule in _RULE_LIST:
        for combo in rule.param_space():
            lhs, rhs = rule.sides(combo)
            res = check_equiv(lhs, rhs)
            if not res.equivalent:
                raise AssertionError(
                    f"rule {rule.id} {combo} is not semantically valid:"
                    f" {print_expr(lhs)} != {print_expr(rhs)}"
                )
            checked += 1
    return checked


def rules() -> dict[str, Rule]:
    """The validated rule database."""
    validate_rules()
    return RULES


# ---------------------------------------------------------------------------
# Positions
# ---------------------------------------------------------------------------

def addressed_children(e: Expr) -> list[tuple[Expr, int]]:
    """Children in address order with their stored indices.  Juxtaposition
    children are ordered by canonical printed form (stable on ties)."""
    kids = children(e)
    if isinstance(e, Juxt):
        order = sorted(range(len(kids)), key=lambda i: (canonical_text(kids[i]), i))
        return [(kids[i], i) for i in order]
    return list(zip(kids, range(len(kids))))


def child_at(e: Expr, pos: Sequence[int]) -> Expr:
    cur = e
    for step in pos:
        addressed = addressed_children(cur)
        if not 0 <= step < len(addressed):
            raise BadPosition(
                f"position {tuple(pos)} does not address a subterm of"
                f" {print_expr(e) or '(void)'}"
            )
        cur = addressed[step][0]
    return cur


def replace_at(e: Expr, pos: Sequence[int], new: Expr) -> Expr:
    if not pos:
        return new
    head, rest = pos[0], pos[1:]
    addressed = addressed_children(e)
    if not 0 <= head < len(addressed):
        raise BadPosition(f"position {tuple(pos)} out of range")
    child, stored = addressed[head]
    kids = list(children(e))
    kids[stored] = replace_at(child, rest, new)
    try:
        return with_children(e, kids)
    except ValueError as err:
        raise BadSubstitution(str(err)) from err


def _walk(e: Expr, pos: tuple[int, ...] = ()):
    """(position, subterm) pairs of e, preorder, in address order."""
    yield pos, e
    for idx, (child, _) in enumerate(addressed_children(e)):
        yield from _walk(child, pos + (idx,))


def all_positions(e: Expr) -> list[tuple[int, ...]]:
    """Every position of e, preorder, in address order."""
    return [pos for pos, _ in _walk(e)]


# ---------------------------------------------------------------------------
# Rule application
# ---------------------------------------------------------------------------

def _instantiate(
    rule: str,
    direction: str,
    subst: Mapping[str, Expr | str] | None,
    params: Mapping[str, object] | None,
    search: bool = False,
) -> tuple[Expr, Expr, dict[str, Expr], frozenset[str]]:
    """The rule's (source, destination) sides with subst applied, subst's
    bindings, and the metavariables left to matching: in a search with no
    subst, every one of the source side's.  A subst must bind exactly the
    rule's metavariables."""
    db = rules()
    if rule not in db:
        raise RewriteError(f"unknown rule {rule!r}")
    if direction not in ("ltr", "rtl"):
        raise RewriteError(f"direction must be ltr or rtl, not {direction!r}")
    lhs, rhs = db[rule].sides(params or {})
    src_pat, dst_pat = (lhs, rhs) if direction == "ltr" else (rhs, lhs)

    bindings = {k: parse(v) if isinstance(v, str) else v for k, v in (subst or {}).items()}
    metas = set().union(*free_vars(src_pat, dst_pat))
    missing, extra = metas - bindings.keys(), bindings.keys() - metas
    if extra:
        raise BadSubstitution(f"rule {rule} has no metavariables {sorted(extra)}")
    if missing and (bindings or not search or missing - set().union(*free_vars(src_pat))):
        raise BadSubstitution(
            f"substitution for rule {rule} is missing {sorted(missing)}"
        )
    try:
        src, dst = substitute(src_pat, bindings), substitute(dst_pat, bindings)
    except ValueError as err:
        raise BadSubstitution(str(err)) from err
    return src, dst, bindings, frozenset(missing)


def apply_rule(
    e: Expr,
    rule: str,
    direction: str = "ltr",
    pos: Sequence[int] = (),
    subst: Mapping[str, Expr | str] | None = None,
    params: Mapping[str, object] | None = None,
) -> Expr:
    """Apply one rule instance at a position; never searches.

    The rule side selected by `direction`, instantiated with `subst`, must
    match the addressed subterm up to juxtaposition reordering; at a
    juxtaposition it may match a sub-multiset of the children, the rest
    passing through unchanged.
    """
    instance_src, instance_dst, _, _ = _instantiate(rule, direction, subst, params)
    target = child_at(e, pos)
    remainder = next(_match(target, instance_src), None)
    if remainder is None:
        raise NoMatch(
            f"expected {print_expr(instance_src) or '(void)'},"
            f" found {print_expr(target) or '(void)'}"
        )
    return replace_at(e, pos, juxt(*remainder, instance_dst))


def _match(
    target: Expr,
    pattern: Expr,
    free: frozenset[str] = frozenset(),
    binding: dict[str, Expr] | None = None,
    top: bool = True,
) -> Iterator[list[Expr]]:
    """Each way the pattern matches the subterm, as the juxtaposition
    children it leaves over; only the addressed node (top) may leave any.

    A metavariable named in `free` binds, in `binding` while the match is
    yielded, to one whole subterm; seen again, it must equal that by
    canonical key.  Juxtaposed children match as a multiset, each pattern
    part trying them in address order.  With nothing free this is the one
    check replay makes: canonical keys compared.
    """
    if isinstance(target, Juxt) and isinstance(pattern, Juxt):
        rest = [(stored, child) for child, stored in addressed_children(target)]
        yield from _match_parts(rest, pattern.parts, free, binding, top)
    elif not free:
        if ac_equal(target, pattern):
            yield []
    elif isinstance(pattern, Var) and pattern.name in free:
        if pattern.name not in binding:
            binding[pattern.name] = target
            yield []
            del binding[pattern.name]
        elif ac_equal(binding[pattern.name], target):
            yield []
    elif target.__class__ is pattern.__class__ and _label(target) == _label(pattern):
        yield from _match_children(children(target), children(pattern), free, binding)


def _match_parts(
    rest: list[tuple[int, Expr]],
    patterns: Sequence[Expr],
    free: frozenset[str],
    binding: dict[str, Expr],
    top: bool,
) -> Iterator[list[Expr]]:
    """Match each pattern to its own member of rest, (stored index, child)
    pairs in address order; yields the children left over, in stored order."""
    if not patterns:
        if top or not rest:
            yield [child for _, child in sorted(rest, key=lambda sc: sc[0])]
        return
    for i, (_, child) in enumerate(rest):
        for _ in _match(child, patterns[0], free, binding, False):
            yield from _match_parts(
                rest[:i] + rest[i + 1 :], patterns[1:], free, binding, top
            )


def _match_children(
    targets: Sequence[Expr],
    patterns: Sequence[Expr],
    free: frozenset[str],
    binding: dict[str, Expr],
) -> Iterator[list[Expr]]:
    """Match the patterns to the targets one to one, in order."""
    if not patterns:
        yield []
        return
    for _ in _match(targets[0], patterns[0], free, binding, False):
        yield from _match_children(targets[1:], patterns[1:], free, binding)


def _label(e: Expr) -> object:
    """What a node holds besides its children."""
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Mark):
        return e.sub
    if isinstance(e, Power):
        return e.sub, e.exponent
    return None


def _applications(
    e: Expr,
    rule: str,
    direction: str,
    subst: Mapping[str, Expr | str] | None,
    params: Mapping[str, object] | None,
    at: tuple[int, ...] = (),
) -> Iterator[tuple[tuple[int, ...], dict[str, Expr], Expr]]:
    """(position, substitution, result) wherever the rule applies in the
    subterm at `at`, in preorder and address order.  Without a subst, each
    position's first match is its only one."""
    src, dst, bindings, free = _instantiate(rule, direction, subst, params, True)
    for pos, target in _walk(child_at(e, at), at):
        binding: dict[str, Expr] = {}
        remainder = next(_match(target, src, free, binding), None)
        if remainder is None:
            continue
        try:
            # The replacement may be refused: tuple slots stay plain LoF.
            result = replace_at(e, pos, juxt(*remainder, substitute(dst, binding)))
        except (BadSubstitution, ValueError):
            continue
        yield pos, binding or bindings, result


def find_applications(
    e: Expr,
    rule: str,
    direction: str = "ltr",
    subst: Mapping[str, Expr | str] | None = None,
    params: Mapping[str, object] | None = None,
) -> list[tuple[int, ...]]:
    """Every position where the rule applies (preorder, address order); with
    no subst, wherever its source side matches.  A bad rule, direction,
    parameter or substitution raises RewriteError."""
    return [pos for pos, _, _ in _applications(e, rule, direction, subst, params)]


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

class Step(Record):
    rule: str
    direction: str
    pos: tuple[int, ...]
    subst: Mapping[str, Expr]
    params: Mapping[str, object]
    result: Expr | None  # recorded outcome, for resilient checking

    _defaults = {"subst": dict, "params": dict, "result": lambda: None}


class Derivation(Record):
    name: str
    start: Expr
    steps: tuple[Step, ...]
    end: Expr

    def to_json(self) -> dict:
        steps = []
        for s in self.steps:
            entry: dict = {
                "rule": s.rule,
                "dir": s.direction,
                "pos": list(s.pos),
                "subst": {k: print_expr(v) for k, v in sorted(s.subst.items())},
            }
            if s.params:
                entry["params"] = dict(sorted(s.params.items()))
            if s.result is not None:
                entry["result"] = print_expr(s.result)
            steps.append(entry)
        return {
            "name": self.name,
            "start": print_expr(self.start),
            "steps": steps,
            "end": print_expr(self.end),
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "Derivation":
        """Read the JSON form; a field of the wrong shape raises ValueError
        naming it."""
        data = _shaped(data, "derivation", dict)
        steps = []
        raw_steps = _shaped(data.get("steps", []), "derivation.steps", list)
        for i, s in enumerate(raw_steps):
            where = f"derivation.steps[{i}]"
            s = _shaped(s, where, dict)
            pos = _shaped(s.get("pos", []), f"{where}.pos", list)
            subst = _shaped(s.get("subst", {}), f"{where}.subst", dict)
            steps.append(
                Step(
                    _shaped(s.get("rule"), f"{where}.rule", str),
                    _shaped(s.get("dir", "ltr"), f"{where}.dir", str),
                    tuple(
                        _shaped(p, f"{where}.pos[{j}]", int) for j, p in enumerate(pos)
                    ),
                    {
                        k: parse(_shaped(v, f"{where}.subst.{k}", str))
                        for k, v in subst.items()
                    },
                    dict(_shaped(s.get("params", {}), f"{where}.params", dict)),
                    parse(_shaped(s["result"], f"{where}.result", str))
                    if "result" in s
                    else None,
                )
            )
        return cls(
            _shaped(data.get("name", "derivation"), "derivation.name", str),
            parse(_shaped(data.get("start"), "derivation.start", str)),
            tuple(steps),
            parse(_shaped(data.get("end"), "derivation.end", str)),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "Derivation":
        return cls.from_json(json.loads(text))


# bool comes before int: a JSON true is an int to isinstance, not a position.
_JSON_KINDS = {
    bool: "a boolean",
    dict: "an object",
    list: "a list",
    str: "a string",
    int: "an integer",
    float: "a number",
}


def _shaped(value, where: str, kind: type):
    """value, if it has the JSON type kind; else ValueError naming the field."""
    got = next(
        (name for t, name in _JSON_KINDS.items() if isinstance(value, t)),
        "null or missing",
    )
    if got != _JSON_KINDS[kind]:
        raise ValueError(f"{where} must be {_JSON_KINDS[kind]}, not {got}")
    return value


class StepReport(Record):
    index: int
    rule: str
    applied: bool
    error: str | None
    matches_recorded: bool | None
    semantic_ok: bool | None
    term: str | None

    @property
    def ok(self) -> bool:
        return (
            self.applied
            and self.matches_recorded is not False
            and self.semantic_ok is not False
        )


class DerivationReport(Record):
    name: str
    steps: tuple[StepReport, ...]
    end_matches: bool | None

    @property
    def ok(self) -> bool:
        return self.end_matches is True and all(s.ok for s in self.steps)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "end_matches": self.end_matches,
            "steps": [dict(zip(s._fields, s)) for s in self.steps],
        }

    def render(self) -> str:
        lines = [f"derivation {self.name}:"]
        for s in self.steps:
            mark_ = "ok" if s.ok else "FAIL"
            err = f"  [{s.error}]" if s.error else ""
            sem = "  semantics differ!" if s.semantic_ok is False else ""
            lines.append(
                f"  step {s.index:>2} {s.rule:<22} {mark_:<4}"
                f" -> {s.term if s.term is not None else '?'}{err}{sem}"
            )
        lines.append(
            f"  end matches: {self.end_matches}; derivation"
            f" {'PASSES' if self.ok else 'FAILS'}"
        )
        return "\n".join(lines)


def check_derivation(d: Derivation) -> DerivationReport:
    """Replay a derivation: each step is checked syntactically (the rule
    applies and produces the recorded term) and semantically (consecutive
    terms are exhaustively equivalent).  Failures are reported per step."""
    reports: list[StepReport] = []
    current: Expr | None = d.start
    for index, step in enumerate(d.steps):
        produced: Expr | None = None
        error = None
        applied = False
        if current is not None:
            try:
                produced = apply_rule(
                    current, step.rule, step.direction, step.pos, step.subst, step.params
                )
                applied = True
            except RewriteError as err:
                error = str(err)
        else:
            error = "no term to apply to (earlier step failed)"

        matches = None
        if applied and step.result is not None:
            matches = ac_equal(produced, step.result)
        # Prefer the recorded term for continuation so one bad step does
        # not desynchronize the positions of the remaining script.
        next_term = step.result if step.result is not None else produced

        semantic = None
        if current is not None and next_term is not None:
            try:
                semantic = check_equiv(current, next_term).equivalent
            except Exception as err:  # report, never throw
                semantic = None
                error = f"{error + '; ' if error else ''}semantic check failed: {err}"

        reports.append(
            StepReport(
                index,
                step.rule,
                applied,
                error,
                matches,
                semantic,
                print_expr(next_term) if next_term is not None else None,
            )
        )
        current = next_term

    end_matches = ac_equal(current, d.end) if current is not None else None
    return DerivationReport(d.name, tuple(reports), end_matches)

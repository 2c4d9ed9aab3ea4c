"""Seeded inputs for the `decide`, `checks` and `cli` workloads, and the
checks of the program's answers against the references.

Every input comes from `random.Random` seeded with a string that names the
workload, the seed and the position of the input, so the same seed gives
the same inputs byte for byte.  Only the rendered text reaches qcalc.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random

import terms as T
from reference import first_difference

TUPLE_NAMES = "ABCDEFGHLNPRSTVWXYZ"
SLOT_NAMES = "pqrsuvwxyz"

# Laws over the metavariables A, B, C; {a} and {b} are distinct axes.
APPENDIX_A = (
    ("A2-Transposition", "[[A] [B]] C", "[[A C] [B C]]"),
    ("A4-Generation", "[A] B", "[A B] B"),
    ("A6-Occultation", "[[A] B] A", "A"),
    ("A8-Extension", "[[A] [B]] [[A] B]", "A"),
    ("A9-Echelon", "[[[A] B] C]", "[A C] [[B] C]"),
    ("A10-Crosstransposition", "[[[A] B] [[A] [B]]]", "[A B] [A [B]]"),
)
APPENDIX_B = (
    ("Q5-AntiCommutes", "[[A]{a}]{b}", "[[[A]{b}]{a}]"),
    ("Q6-SplitGeneration", "[[A]{a} B]{a} C", "[[A C]{a} B]{a} C"),
    ("Q8-Disintegration", "[A B]{a}",
     "[[[A]{a} [B]{a}] [[A]{a} []{a}^3] [[B]{a} []{a}^3]]"),
    ("Q9-RightDistribution", "[[A]{a}^3 [B]{a}^3]{a} C", "[[A C]{a}^3 [B C]{a}^3]{a}"),
    ("Q10-LeftDistribution", "C [[A]{a}^3 [B]{a}^3]{a}", "[[C A]{a}^3 [C B]{a}^3]{a}"),
)
SMALL_LAWS = APPENDIX_A + APPENDIX_B

CONNECTIVES = ("or", "and", "or_i", "and_i", "or_j", "and_j", "or_k", "and_k")


def connective(kind: str, a, b):
    """The defining trees: or is juxtaposition, and is [[A] [B]], or_s is
    [[A]s^3 [B]s^3]s and and_s is [[A]s [B]s]s^3."""
    if kind == "or":
        return T.juxt(a, b)
    if kind == "and":
        return T.mark(T.juxt(T.mark(a), T.mark(b)))
    op, s = kind.split("_")
    if op == "or":
        return T.mark(T.juxt(T.power(a, s, 3), T.power(b, s, 3)), s)
    return T.power(T.juxt(T.mark(a, s), T.mark(b, s)), s, 3)


@functools.lru_cache(maxsize=None)
def distribution_laws():
    """Every off-diagonal distribution law that holds, plus the first
    demonstration, as (name, lhs, rhs) trees over A, B, C."""
    A, B, C = T.var("A"), T.var("B"), T.var("C")
    out = []
    for op1 in CONNECTIVES:
        for op2 in CONNECTIVES:
            if op1 == op2:
                continue
            lhs = connective(op1, connective(op2, A, B), C)
            rhs = connective(op2, connective(op1, A, C), connective(op1, B, C))
            if first_difference(lhs, rhs)[0] is None:
                out.append((f"dist[{op1},{op2}]", lhs, rhs))
    out.append((
        "demo1",
        connective("or_i", A, connective("and_j", B, C)),
        connective("and_j", connective("or_i", A, B), connective("or_i", A, C)),
    ))
    return tuple(out)


def _law_trees(rng: random.Random, family: str, index: int):
    if family == "dist":
        laws = distribution_laws()
        return laws[index % len(laws)][1:]
    _, lhs, rhs = SMALL_LAWS[index % len(SMALL_LAWS)]
    a = rng.choice("ijk")
    b = rng.choice([x for x in "ijk" if x != a])
    return T.parse(lhs.format(a=a, b=b)), T.parse(rhs.format(a=a, b=b))


def _filler(rng: random.Random, qnames, snames):
    """A juxtaposition of the given tuple variables with exactly one of
    them marked, plus one tuple literal holding the given slot variables."""
    parts = [T.var(n) for n in qnames]
    k = rng.randrange(len(parts))
    parts[k] = T.mark(parts[k], rng.choice(T.SUBS))
    if snames:
        slots = [[] for _ in range(4)]
        for n in snames:
            v = T.var(n)
            slots[rng.randrange(4)].append(T.mark(v) if rng.random() < 0.5 else v)
        parts.insert(rng.randrange(len(parts) + 1), T.tuple4(T.juxt(*s) for s in slots))
    return T.juxt(*parts)


def instantiate(rng: random.Random, family: str, index: int, n: int, s: int):
    """A valid law with its metavariables replaced by fillers over n tuple
    variables and s slot variables, every variable used."""
    lhs, rhs = _law_trees(rng, family, index)
    metas = sorted(T.free_vars(lhs)[0] | T.free_vars(rhs)[0])
    qnames = rng.sample(TUPLE_NAMES, n)
    snames = rng.sample(SLOT_NAMES, s)
    share = {m: [] for m in metas}
    for k in range(max(n, len(metas))):
        share[metas[k % len(metas)]].append(qnames[k % n])
    slot_share = {m: [] for m in metas}
    for name in snames:
        slot_share[rng.choice(metas)].append(name)
    bindings = {m: _filler(rng, share[m], slot_share[m]) for m in metas}
    lhs, rhs = T.substitute(lhs, bindings), T.substitute(rhs, bindings)
    return (rhs, lhs) if rng.random() < 0.5 else (lhs, rhs)


def _marks(e):
    return [(p, x) for p, x in T.positions(e) if x[0] in ("m", "p")]


def _mutate_early(rng, lhs, rhs):
    """Change the subscript of one mark."""
    pair = [lhs, rhs]
    side = rng.choice([k for k in (0, 1) if _marks(pair[k])])
    path, node = rng.choice(_marks(pair[side]))
    subs = [x for x in (T.SUBS if node[0] == "m" else "ijk") if x != node[1]]
    pair[side] = T.replace_at(pair[side], path, (node[0], rng.choice(subs)) + node[2:])
    return tuple(pair)


def _mutate_late(rng, lhs, rhs, first_var: str):
    """Juxtapose the most significant variable into one mark's body, so
    the sides can only differ once that variable is not the void."""
    pair = [lhs, rhs]
    side = rng.choice([k for k in (0, 1) if _marks(pair[k])])
    path, node = rng.choice(_marks(pair[side]))
    body = T.juxt(node[2], T.var(first_var))
    pair[side] = T.replace_at(pair[side], path, (node[0], node[1], body) + node[3:])
    return tuple(pair)


def make_pair(rng, family: str, index: int, n: int, s: int, want: str):
    """An instantiated law (want="eq") or a mutated copy whose first
    counterexample lies in the first sixteenth of the assignment space
    ("early") or after it ("late").  Returns (lhs, rhs, first_index)."""
    for _ in range(200):
        lhs, rhs = instantiate(rng, family, index, n, s)
        if want == "eq":
            return lhs, rhs, None
        first_var = min(T.free_vars(lhs)[0] | T.free_vars(rhs)[0])
        if want == "early":
            lhs, rhs = _mutate_early(rng, lhs, rhs)
        else:
            lhs, rhs = _mutate_late(rng, lhs, rhs, first_var)
        idx, lay = first_difference(lhs, rhs)
        if idx is not None and (idx < lay.space // 16) == (want == "early"):
            return lhs, rhs, idx
    raise RuntimeError(f"no {want} mutation of {family}[{index}] with n={n} s={s}")


def open_exponent(rng, lhs, rhs):
    """Replace one mark [X]g (or power [X]g^e) whose body is a single item
    by X^(E), E being [[V [V]]]g (or [[V [V]]]g^e): [V [V]] is the void for
    every V, so E is one operator value under every assignment."""
    names = sorted(T.free_vars(lhs)[0] | T.free_vars(rhs)[0])
    pair = [lhs, rhs]
    for side in (0, 1) if rng.random() < 0.5 else (1, 0):
        spots = [(p, x) for p, x in _marks(pair[side]) if x[2][0] in "vmpt"]
        if spots:
            path, node = rng.choice(spots)
            v = T.var(rng.choice(names))
            exponent = (node[0], node[1], T.mark(T.juxt(v, T.mark(v)))) + node[3:]
            pair[side] = T.replace_at(pair[side], path, ("x", node[2], exponent, node))
            return tuple(pair)
    raise RuntimeError("no mark with a single-item body")


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------

# One round of `decide`, the same for every round and seed except for the
# generated terms: (law family, law index, tuple vars, slot vars, answer
# wanted, open exponent).  Fixing the law per slot keeps each slot's cost
# the same across seeds.  The five Q6 slots with one slot variable are the
# middle of the cost order, so the median is one of them whatever the
# number of rounds; the 16^6-row pairs (6 tuple variables, or 5 with 4 slot
# variables) hold the 90th percentile.
DECIDE_ROUND = (
    ("small", 0, 3, 0, "eq", True),
    ("small", 5, 3, 0, "early", True),
    ("dist", 2, 5, 0, "eq", False),
    ("small", 1, 5, 0, "early", False),
    ("small", 3, 5, 0, "late", False),
    ("small", 7, 5, 1, "eq", False),
    ("small", 7, 5, 1, "late", False),
    ("small", 7, 5, 1, "eq", False),
    ("small", 7, 5, 1, "early", False),
    ("small", 7, 5, 1, "eq", False),
    ("small", 9, 5, 2, "eq", False),
    ("small", 10, 5, 4, "late", False),
    ("small", 2, 6, 0, "eq", False),
    ("small", 6, 6, 0, "early", False),
)
DECIDE_ROUNDS = 9


def decide_inputs(seed: int):
    rounds = []
    for r in range(DECIDE_ROUNDS):
        ops = []
        for k, (family, index, n, s, want, is_open) in enumerate(DECIDE_ROUND):
            rng = random.Random(f"decide:{seed}:{r}:{k}")
            lhs, rhs, idx = make_pair(rng, family, index, n, s, want)
            if is_open:
                lhs, rhs = open_exponent(rng, lhs, rhs)
            ops.append({"lhs": lhs, "rhs": rhs, "first": idx})
        rounds.append(ops)
    return rounds


WARMUP_PAIR = ("[[A]i^3 [B D]i^3]i C E", "[[A C E]i^3 [B D C E]i^3]i")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

CHECKS_LINES = 24


def qlf_body(seed: int, pass_no: int):
    """A .qlf body of small assertions (at most 3 tuple and 3 slot
    variables), with a comment and a bare expression line mixed in."""
    rng = random.Random(f"checks:{seed}:{pass_no}")
    lines = [f"# seeded assertions {seed}/{pass_no}", ""]
    pairs = []
    for k in range(CHECKS_LINES):
        want = ("eq", "early", "eq", "late")[k % 4]
        lhs, rhs, _ = make_pair(rng, "small", rng.randrange(len(SMALL_LAWS)),
                                rng.randint(1, 3), rng.randint(0, 3), want)
        text = f"{T.render(lhs)} == {T.render(rhs)}"
        lines.append(text)
        pairs.append({"line": len(lines), "lhs": lhs, "rhs": rhs, "text": text})
        if k == CHECKS_LINES // 2:
            lines.append(T.render(lhs) + "  # a bare expression is not checked")
    return "\n".join(lines) + "\n", pairs


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

# The fixed menu; "{deriv}" is the directory the derivations are exported to.
CLI_MENU = {
    "equiv-file": ["equiv", "--file", "scripts/shared_laws.qlf"],
    "laws-a": ["laws", "lof_appendix_a"],
    "laws-b": ["laws", "q_appendix_b"],
    "laws-bf": ["laws", "bf_subspaces"],
    "laws-q8": ["laws", "q8_relations"],
    "distribution": ["distribution"],
    "group-table": ["group-table"],
    "eval-tuple": ["eval", "[{a, b, c, d}]k", "--env", "a=M,b=U,c=M,d=U"],
    "eval-exponent": ["eval", "{a, b, c, d}^([]i)", "--env", "a=M,b=U,c=U,d=M"],
    "eval-marks": ["eval", "[[A]i B]j", "--env", "A=MUUM,B=UMMU"],
    "parse": ["parse", "scripts/shared_laws.qlf"],
    "braid-compose-4": ["braid", "compose", "s1 s3'", "--n", "4"],
    "braid-compose-6": ["braid", "compose", "s2 s1' s5 s3", "--n", "6"],
    "braid-verify-4": ["braid", "verify", "--n", "4"],
    "braid-verify-8": ["braid", "verify", "--n", "8"],
    "construct-mark-slot": ["construct", "mark-slot", "3"],
    "construct-permute": ["construct", "permute", "1,4m,2,3"],
    "derivation-QR2": ["check-derivation", "{deriv}/QR2.json"],
    "derivation-QIJK": ["check-derivation", "{deriv}/QIJK.json"],
    "derivation-mark-third-slot": ["check-derivation", "{deriv}/mark-third-slot.json"],
    "derivation-demo1": ["check-derivation", "{deriv}/distribute-or_i-over-and_j.json"],
}
CLI_EQUIV_PER_DECK = 8
CLI_DECKS = 6


def cli_inputs(seed: int):
    """Decks of commands: each deck is every menu entry in both formats
    plus 8 seeded small `equiv` assertions (in each format 2 equivalent
    ones and 2 with an early and a late first counterexample), shuffled."""
    decks = []
    for d in range(CLI_DECKS):
        rng = random.Random(f"cli:{seed}:{d}")
        deck = [{"id": key, "format": fmt} for key in CLI_MENU for fmt in ("text", "json")]
        for k in range(CLI_EQUIV_PER_DECK):
            n = rng.randint(1, 3)
            s = rng.randint(0, 4 - n)
            want = ("eq", "early", "eq", "late")[k % 4]
            lhs, rhs, _ = make_pair(rng, "small", rng.randrange(len(SMALL_LAWS)), n, s, want)
            deck.append({"id": "equiv", "format": ("text", "json")[k // 4],
                         "lhs": lhs, "rhs": rhs})
        rng.shuffle(deck)
        decks.append(deck)
    return decks


def cli_argv(cmd, deriv_dir: str):
    if cmd["id"] == "equiv":
        args = ["equiv", f"{T.render(cmd['lhs'])} == {T.render(cmd['rhs'])}"]
    else:
        args = [a.replace("{deriv}", deriv_dir) for a in CLI_MENU[cmd["id"]]]
    return ["--format", cmd["format"]] + args


# ---------------------------------------------------------------------------
# Digests and answer checks
# ---------------------------------------------------------------------------

def digest(seen_by_program) -> str:
    """sha256 of the inputs as the program sees them: texts and argv."""
    text = json.dumps(seen_by_program, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def judge(lay, first, verdict, counterexample, checked):
    """Why an answer (verdict, counterexample patterns, assignments
    checked) is wrong, given the reference's first differing index
    (None when equivalent) on the layout `lay`; None if it is right."""
    if verdict != (first is None):
        return f"verdict {'equivalent' if verdict else 'inequivalent'}, reference says otherwise"
    if verdict:
        if counterexample is not None:
            return "counterexample on an equivalent pair"
        if checked != lay.space:
            return f"assignments_checked {checked}, want {lay.space}"
        return None
    if not counterexample:
        return "no counterexample on an inequivalent pair"
    try:
        got = lay.index_of(counterexample)
    except ValueError as err:
        return f"malformed counterexample: {err}"
    if got != first:
        return f"counterexample {counterexample} is not the first; want {lay.env_of(first)}"
    if checked != first + 1:
        return f"assignments_checked {checked}, want {first + 1}"
    return None


def check_answer(lhs, rhs, verdict, counterexample, checked):
    first, lay = first_difference(T.mark_form(lhs), T.mark_form(rhs))
    return judge(lay, first, verdict, counterexample, checked)


def equiv_output(cmd):
    """(exit code, stdout) that `qcalc equiv` must give for a seeded
    command, built from the reference in qcalc's documented formats."""
    first, lay = first_difference(cmd["lhs"], cmd["rhs"])
    verdict = "equivalent" if first is None else "inequivalent"
    if cmd["format"] == "json":
        payload = {"lhs": T.render(cmd["lhs"]), "rhs": T.render(cmd["rhs"]),
                   "verdict": verdict,
                   "assignments_checked": lay.space if first is None else first + 1}
        if first is not None:
            payload["counterexample"] = lay.env_of(first)
        out = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        out = verdict + "\n"
        if first is not None:
            env = sorted(lay.env_of(first).items())
            out += "counterexample: " + ", ".join(f"{k}={v}" for k, v in env) + "\n"
    return (0 if first is None else 1), out

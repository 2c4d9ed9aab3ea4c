"""Braid generators acting on LoF n-tuples, the signed-permutation
quotient they generate, and the correspondence between the operator group
and 4-strand braid words.

A generator crosses strands k and k+1 and marks the strand that passes
under: sigma_k sends (.., a_k, a_{k+1}, ..) to (.., [a_{k+1}], a_k, ..)
and its inverse to (.., a_{k+1}, [a_k], ..).  Words act left to right, so
the word for a composite operator is the concatenation of the factors'
words.  The two notations X^(sigma_k) and [X]sigma_k in circulation
denote this same action; here it is one operation.

Text syntax for words: `s1 s3' s2` with an apostrophe for the inverse.
"""

from __future__ import annotations

from typing import Sequence

from .kernel import (
    Q8Op,
    Record,
    Report,
    SignedPerm,
    Verdict,
    generate_closure,
    is_isomorphic_to_q8,
    q8_to_signed_perm,
)
from .textio import mark as mark_expr

# The largest strand count the CLI and `verify_braid_relations` accept;
# the other library functions take any arity.
MAX_STRANDS = 8


class BraidGen(Record):
    index: int  # 1-based strand position, crosses index and index+1
    sign: int  # +1 over-crossing, -1 under-crossing

    def __init__(self, index: int, sign: int) -> None:
        if index < 1:
            raise ValueError("generator index starts at 1")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def inverse(self) -> "BraidGen":
        return BraidGen(self.index, -self.sign)

    def __repr__(self) -> str:
        return f"s{self.index}" + ("'" if self.sign < 0 else "")


class BraidWord(Record):
    arity: int
    gens: tuple[BraidGen, ...]

    def __init__(self, arity: int, gens: tuple[BraidGen, ...]) -> None:
        if arity < 2:
            raise ValueError("braid words need at least 2 strands")
        for g in gens:
            if g.index + 1 > arity:
                raise ValueError(f"generator {g!r} does not fit in {arity} strands")

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if other.arity != self.arity:
            raise ValueError("arity mismatch")
        return BraidWord(self.arity, self.gens + other.gens)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.arity, tuple(g.inverse() for g in reversed(self.gens)))

    def __repr__(self) -> str:
        return f"BraidWord({self.arity}, {word_to_text(self) or '(empty)'!r})"


def parse_braid_word(text: str, arity: int) -> BraidWord:
    """Parse `s1 s3' s2` notation."""
    gens = []
    for token in text.split():
        body = token
        sign = 1
        if body.endswith("'"):
            sign = -1
            body = body[:-1]
        if not body.startswith("s") or not body[1:].isdigit():
            raise ValueError(f"bad braid generator {token!r}; want e.g. s1 or s2'")
        gens.append(BraidGen(int(body[1:]), sign))
    return BraidWord(arity, tuple(gens))


def word_to_text(word: BraidWord) -> str:
    return " ".join(repr(g) for g in word.gens)


def _mark_slot(value):
    if isinstance(value, bool):
        return not value
    return mark_expr(value)


def sigma_apply(gen: BraidGen, slots: Sequence) -> tuple:
    """One crossing on an n-tuple of LoF values (bools) or slot
    expressions; strands outside k, k+1 are untouched."""
    n = len(slots)
    if gen.index + 1 > n:
        raise ValueError(f"generator {gen!r} out of range for arity {n}")
    out = list(slots)
    k = gen.index - 1
    if gen.sign > 0:
        out[k], out[k + 1] = _mark_slot(slots[k + 1]), slots[k]
    else:
        out[k], out[k + 1] = slots[k + 1], _mark_slot(slots[k])
    return tuple(out)


def word_apply(word: BraidWord, slots: Sequence) -> tuple:
    out = tuple(slots)
    for g in word.gens:
        out = sigma_apply(g, out)
    return out


def gen_to_signed_perm(gen: BraidGen, arity: int) -> SignedPerm:
    target = list(range(1, arity + 1))
    marked = [False] * arity
    k = gen.index - 1
    target[k], target[k + 1] = k + 2, k + 1
    marked[k if gen.sign > 0 else k + 1] = True
    return SignedPerm(tuple(target), tuple(marked))


def braid_to_signed_perm(word: BraidWord) -> SignedPerm:
    """The composite action of a word; mark flags compose mod 2 along
    strands, so this is the finite quotient the representation lives in."""
    out = SignedPerm.identity(word.arity)
    for g in word.gens:
        out = out.then(gen_to_signed_perm(g, word.arity))
    return out


# The 4-strand words realizing the three basic operators.
_QUATERNION_WORDS = {
    "i": "s1 s3'",
    "j": "s2 s1' s3 s2'",
    "k": "s1 s3' s2 s1' s3 s2'",
}


def quaternion_braid_word(g: Q8Op) -> BraidWord:
    """A 4-strand word acting exactly as the operator g; composites are
    concatenations of the basic words and the identity is empty."""
    basic = {
        axis: parse_braid_word(text, 4) for axis, text in _QUATERNION_WORDS.items()
    }
    if g is Q8Op.P1:
        return BraidWord(4, ())
    if g is Q8Op.M1:
        return basic["i"] * basic["i"]
    word = basic[g.axis]
    if g.negated:
        word = word * word * word  # g^3 = -g for the basic operators
    return word


class RelationCheck(Verdict, Record):
    name: str
    holds: bool


class BraidRelationReport(Report, Record):
    arity: int
    checks: tuple[RelationCheck, ...]

    def render(self) -> str:
        lines = [f"braid relations on {self.arity} strands:"]
        for c in self.checks:
            lines.append(f"  {c.name:<34} {'holds' if c.holds else 'FAILS'}")
        lines.append("  => " + ("all hold" if self.all_hold else "FAILURES PRESENT"))
        return "\n".join(lines)


def verify_braid_relations(n: int) -> BraidRelationReport:
    """Check, as signed-permutation identities: far commutation, the
    adjacent braid relation (in both the positive and the inverse form),
    and that every generator has order four.  The arity is capped by
    MAX_STRANDS (relation counts grow quadratically)."""
    if n < 2:
        raise ValueError("need at least 2 strands")
    if n > MAX_STRANDS:
        raise ValueError(f"arity {n} above the cap of {MAX_STRANDS} strands")

    def perm(text: str) -> SignedPerm:
        return braid_to_signed_perm(parse_braid_word(text, n))

    # (name, word, word) of each relation, in report order; the empty
    # word is the identity.
    relations = [
        (f"s{i} s{j} = s{j} s{i}", f"s{i} s{j}", f"s{j} s{i}")
        for i in range(1, n)
        for j in range(i + 2, n)
    ]
    for i in range(1, n - 1):
        for a, b in ((f"s{i}", f"s{i + 1}"), (f"s{i}'", f"s{i + 1}'")):
            relations.append((f"{a} {b} {a} = {b} {a} {b}", f"{a} {b} {a}", f"{b} {a} {b}"))
    relations += [(f"s{k}^4 = 1", f"s{k} " * 4, "") for k in range(1, n)]
    checks = [RelationCheck(name, perm(lhs) == perm(rhs)) for name, lhs, rhs in relations]
    return BraidRelationReport(n, tuple(checks))


def quaternion_closure() -> list[SignedPerm]:
    """Closure of the two generating 4-strand words in the signed
    permutations; expected to be the eight operator actions."""
    return generate_closure(
        braid_to_signed_perm(parse_braid_word(_QUATERNION_WORDS[axis], 4))
        for axis in "ij"
    )


def closure_is_q8() -> bool:
    closure = quaternion_closure()
    expected = {q8_to_signed_perm(g) for g in Q8Op}
    return len(closure) == 8 and set(closure) == expected and is_isomorphic_to_q8(closure)


# ---------------------------------------------------------------------------
# Diagrams
# ---------------------------------------------------------------------------

def braid_diagram(word: BraidWord) -> str:
    """ASCII picture of a word: strands run top to bottom, one row block
    per generator; `X` marks an over-crossing, `x` an under-crossing, and
    the trailing summary shows `#` on strands whose net action marks.
    Purely cosmetic."""
    n = word.arity
    header = " ".join(str(s) for s in range(1, n + 1))
    lines = [header]
    for g in word.gens:
        cells = []
        col = 1
        while col <= n:
            if col == g.index:
                cells.append(">X<" if g.sign > 0 else ">x<")
                col += 2
            else:
                cells.append("|")
                col += 1
        lines.append(" ".join(cells) + f"   {g!r}")
    perm = braid_to_signed_perm(word)
    summary = " ".join(
        f"{'#' if perm.marked[p] else ' '}{perm.target[p]}" for p in range(n)
    )
    lines.append(summary + "   (output slot <- source strand, # = marked)")
    return "\n".join(lines)

"""Linear ASCII syntax for expressions: AST, parser, and printer.

Grammar:

    [ body ]        plain mark
    [ body ]i       imaginary mark (i, j or k, attached directly to `]`)
    [ body ]i^3     operator power (positive integer exponent)
    { a, b, c, d }  4-tuple literal; slots are plain-LoF expressions,
                    an empty slot is the void
    ( body )        grouping
    X^(expr)        exponent application
    adjacency       juxtaposition (whitespace-insensitive, n-ary, flattened)
    identifiers     [A-Za-z][A-Za-z0-9_]*

`[x]i` is a subscripted mark; `[x] i` is the mark juxtaposed with the
variable i.  Grouping matters only as an exponent base: `(a b)^([]i)`
applies the exponent to the juxtaposition, `a b^([]i)` to `b` alone, and
`()^([]i)` to the void.  Bodies nest at most MAX_DEPTH deep.  Files carry
one expression or one `LHS == RHS` assertion per line, with `#` starting a
comment.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Union

from .kernel import Record, _set

PLAIN = ""
MAX_DEPTH = 200  # nested bodies: marks, tuple slots, exponents and groups
IMAGINARY_SUBS = ("i", "j", "k")
MARK_SUBS = (PLAIN,) + IMAGINARY_SUBS


class SourceSpan(Record):
    start: int
    end: int

    def __init__(self, start: int, end: int) -> None:
        if start > end:
            raise ValueError("span start after end")
        super().__init__(start, end)


class ParseError(Exception):
    """Syntax error with the offending span of the input text."""

    def __init__(self, message: str, span: SourceSpan) -> None:
        super().__init__(f"{message} (at {span.start}..{span.end})")
        self.message = message
        self.span = span


# The expression nodes.  Every evaluation builds, compares and walks them,
# so each writes its Record methods out by hand.


class Void(Record):
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return True
        return NotImplemented

    def __hash__(self) -> int:
        return hash(())


class Var(Record):
    name: str

    def __init__(self, name: str) -> None:
        _set(self, "name", name)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))


class Mark(Record):
    sub: str  # "" for the plain mark, else "i" / "j" / "k"
    body: Expr

    def __init__(self, sub: str, body: Expr) -> None:
        _set(self, "sub", sub)
        _set(self, "body", body)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.sub, self.body) == (other.sub, other.body)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.sub, self.body))


class Juxt(Record):
    parts: tuple[Expr, ...]  # len >= 2, flattened, no Void entries

    def __init__(self, parts: tuple[Expr, ...]) -> None:
        _set(self, "parts", parts)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.parts,))


class Tuple4(Record):
    slots: tuple[Expr, Expr, Expr, Expr]

    def __init__(self, slots: tuple[Expr, Expr, Expr, Expr]) -> None:
        if len(slots) != 4:
            raise ValueError(f"a tuple has 4 slots, not {len(slots)}")
        bad = next((s for s in slots if not is_lof_expr(s)), None)
        if bad is not None:
            raise ValueError(f"tuple slot is not a plain-LoF expression: {bad!r}")
        _set(self, "slots", slots)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.slots == other.slots
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.slots,))


class Power(Record):
    sub: str
    body: Expr
    exponent: int  # >= 2; exponent 1 is normalized to Mark

    def __init__(self, sub: str, body: Expr, exponent: int) -> None:
        _set(self, "sub", sub)
        _set(self, "body", body)
        _set(self, "exponent", exponent)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.sub, self.body, self.exponent) == (
                other.sub, other.body, other.exponent
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.sub, self.body, self.exponent))


class ExpApply(Record):
    base: Expr
    exponent: Expr

    def __init__(self, base: Expr, exponent: Expr) -> None:
        _set(self, "base", base)
        _set(self, "exponent", exponent)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.base, self.exponent) == (other.base, other.exponent)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.base, self.exponent))


Expr = Union[Void, Var, Mark, Juxt, Tuple4, Power, ExpApply]

VOID = Void()


def mark(body: Expr, sub: str = PLAIN) -> Mark:
    if sub not in MARK_SUBS:
        raise ValueError(f"bad mark subscript {sub!r}")
    return Mark(sub, body)


def juxt(*parts: Expr) -> Expr:
    """Flattening, void-dropping juxtaposition constructor."""
    flat: list[Expr] = []
    for p in parts:
        if isinstance(p, Juxt):
            flat.extend(p.parts)
        elif not isinstance(p, Void):
            flat.append(p)
    if not flat:
        return VOID
    if len(flat) == 1:
        return flat[0]
    return Juxt(tuple(flat))


def power(sub: str, body: Expr, exponent: int) -> Expr:
    if sub not in MARK_SUBS:
        raise ValueError(f"bad mark subscript {sub!r}")
    if exponent < 1:
        raise ValueError("operator power must be positive")
    if exponent == 1:
        return Mark(sub, body)
    return Power(sub, body, exponent)


def is_lof_expr(e: Expr) -> bool:
    """True if e uses only void, variables, plain marks and juxtaposition."""
    if isinstance(e, (Void, Var)):
        return True
    if isinstance(e, Mark):
        return e.sub == PLAIN and is_lof_expr(e.body)
    if isinstance(e, Juxt):
        return all(is_lof_expr(p) for p in e.parts)
    return False


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_IDENT_CONT = _IDENT_START | set("0123456789_")


class _Parser:
    def __init__(self, text: str, offset: int = 0) -> None:
        self.text = text
        self.pos = 0
        self.offset = offset  # for spans relative to an enclosing file
        self.depth = 0

    def error(self, message: str, start: int, end: int | None = None) -> ParseError:
        end = start + 1 if end is None else end
        end = min(end, len(self.text)) if self.text else start
        return ParseError(
            message, SourceSpan(self.offset + start, self.offset + max(start, end))
        )

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_expr(self, stop: str = "") -> Expr:
        """A juxtaposition of items, ending at EOF or a character in stop."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self.error("input is nested too deeply", self.pos)
        items: list[Expr] = []
        while True:
            self.skip_ws()
            ch = self.peek()
            if not ch or ch in stop:
                break
            items.append(self.parse_item())
        self.depth -= 1
        return juxt(*items)

    def parse_item(self) -> Expr:
        ch = self.peek()
        if ch == "[":
            item = self.parse_mark()
        elif ch == "(":
            item = self.parse_group()
        elif ch == "{":
            item = self.parse_tuple()
        elif ch in _IDENT_START:
            item = self.parse_ident()
        else:
            raise self.error(f"unexpected character {ch!r}", self.pos)
        # Exponent application: ^( expr )
        while self.peek() == "^" and self.pos + 1 < len(self.text) and self.text[self.pos + 1] == "(":
            start = self.pos
            self.pos += 2
            exponent = self.parse_expr(stop=")")
            if self.peek() != ")":
                raise self.error("unterminated exponent application", start, self.pos)
            self.pos += 1
            item = ExpApply(item, exponent)
        if self.peek() == "^":
            raise self.error("operator power requires a mark", self.pos)
        return item

    def parse_mark(self) -> Expr:
        start = self.pos
        self.pos += 1  # consume [
        body = self.parse_expr(stop="]")
        if self.peek() != "]":
            raise self.error("unbalanced bracket", start, self.pos)
        self.pos += 1
        sub = PLAIN
        nxt = self.peek()
        if nxt in IMAGINARY_SUBS:
            after = self.text[self.pos + 1] if self.pos + 1 < len(self.text) else ""
            if after not in _IDENT_CONT:
                sub = nxt
                self.pos += 1
        if self.peek() == "^" and self.pos + 1 < len(self.text) and self.text[self.pos + 1].isdigit():
            caret = self.pos
            self.pos += 1
            digits = self.pos
            while self.peek().isdigit():
                self.pos += 1
            exponent = int(self.text[digits : self.pos])
            if exponent <= 0:
                raise self.error("operator power must be positive", caret, self.pos)
            return power(sub, body, exponent)
        return mark(body, sub)

    def parse_group(self) -> Expr:
        start = self.pos
        self.pos += 1  # consume (
        body = self.parse_expr(stop=")")
        if self.peek() != ")":
            raise self.error("unbalanced parenthesis", start, self.pos)
        self.pos += 1
        return body

    def parse_tuple(self) -> Expr:
        start = self.pos
        self.pos += 1  # consume {
        slots: list[Expr] = []
        while True:
            slots.append(self.parse_expr(stop=",}"))
            ch = self.peek()
            if ch == ",":
                self.pos += 1
                continue
            if ch == "}":
                self.pos += 1
                break
            raise self.error("unterminated tuple literal", start, self.pos)
        if len(slots) != 4:
            raise self.error(
                f"tuple literal needs exactly 4 slots, found {len(slots)}",
                start,
                self.pos,
            )
        try:
            return Tuple4(tuple(slots))
        except ValueError:
            raise self.error(
                "tuple slots must be plain-LoF expressions", start, self.pos
            ) from None

    def parse_ident(self) -> Expr:
        start = self.pos
        while self.peek() in _IDENT_CONT:
            self.pos += 1
        return Var(self.text[start : self.pos])


def parse(text: str, offset: int = 0) -> Expr:
    """Parse one expression; the empty string is the void."""
    p = _Parser(text, offset)
    e = p.parse_expr()
    p.skip_ws()
    if p.pos < len(text):
        raise p.error(f"unexpected character {p.peek()!r}", p.pos)
    return e


def parse_assertion(text: str, offset: int = 0) -> tuple[Expr, Expr]:
    """Parse a `LHS == RHS` assertion; either side may be empty (void)."""
    if text.count("==") != 1:
        raise ParseError(
            "assertion needs exactly one '=='", SourceSpan(offset, offset + len(text))
        )
    idx = text.index("==")
    lhs = parse(text[:idx], offset)
    rhs = parse(text[idx + 2 :], offset + idx + 2)
    return lhs, rhs


class QlfLine(Record):
    lineno: int
    lhs: Expr
    rhs: Expr | None  # None for a bare expression line
    source: str


def parse_qlf(text: str) -> list[QlfLine]:
    """Parse a .qlf file body: expressions or assertions, # comments."""
    out: list[QlfLine] = []
    offset = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if line.strip():
            if "==" in line:
                lhs, rhs = parse_assertion(line, offset)
                out.append(QlfLine(lineno, lhs, rhs, line.strip()))
            else:
                out.append(QlfLine(lineno, parse(line, offset), None, line.strip()))
        offset += len(raw) + 1
    return out


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

def print_expr(e: Expr) -> str:
    """Canonical text form; parse(print_expr(e)) == e for normalized ASTs."""
    if isinstance(e, Void):
        return ""
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Mark):
        return f"[{print_expr(e.body)}]{e.sub}"
    if isinstance(e, Power):
        return f"[{print_expr(e.body)}]{e.sub}^{e.exponent}"
    if isinstance(e, Juxt):
        return " ".join(print_expr(p) for p in e.parts)
    if isinstance(e, Tuple4):
        return "{" + ", ".join(print_expr(s) for s in e.slots) + "}"
    if isinstance(e, ExpApply):
        return f"{_base_text(e.base, print_expr(e.base))}^({print_expr(e.exponent)})"
    raise TypeError(f"not an expression: {e!r}")


def _base_text(base: Expr, text: str) -> str:
    """An exponent base's text, grouped unless it prints as a single item."""
    return f"({text})" if isinstance(base, (Juxt, Void)) else text


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------

def ac_canon(e: Expr) -> Expr:
    """Canonical form modulo commutativity of juxtaposition.

    Juxtaposition children are sorted by their canonical_text, stable on
    ties.  canonical_text(e) is the printed form of this tree and is what
    the library compares; this tree is the reference that tests check the
    key against.
    """
    kids = children(e)
    if isinstance(e, Juxt):
        kids = sorted(kids, key=canonical_text)
    return with_children(e, [ac_canon(k) for k in kids])


def ac_equal(a: Expr, b: Expr) -> bool:
    """Structural equality up to juxtaposition reordering."""
    return canonical_text(a) == canonical_text(b)


def canonical_text(e: Expr) -> str:
    """print_expr(ac_canon(e)), built from the children's keys.

    Printing is injective, so equal keys mean equal canonical trees.  The
    key is cached on the node outside its fields, so equality, hashing and
    repr are unaffected and shared subterms are keyed once.
    """
    key = e.__dict__.get("_canonical_text")
    if key is not None:
        return key
    if isinstance(e, Void):
        key = ""
    elif isinstance(e, Var):
        key = e.name
    elif isinstance(e, Mark):
        key = f"[{canonical_text(e.body)}]{e.sub}"
    elif isinstance(e, Power):
        key = f"[{canonical_text(e.body)}]{e.sub}^{e.exponent}"
    elif isinstance(e, Juxt):
        key = " ".join(sorted(canonical_text(p) for p in e.parts))
    elif isinstance(e, Tuple4):
        key = "{" + ", ".join(canonical_text(s) for s in e.slots) + "}"
    elif isinstance(e, ExpApply):
        key = f"{_base_text(e.base, canonical_text(e.base))}^({canonical_text(e.exponent)})"
    else:
        raise TypeError(f"not an expression: {e!r}")
    object.__setattr__(e, "_canonical_text", key)
    return key


def children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, (Mark, Power)):
        return (e.body,)
    if isinstance(e, Juxt):
        return e.parts
    if isinstance(e, Tuple4):
        return e.slots
    if isinstance(e, ExpApply):
        return (e.base, e.exponent)
    return ()


def with_children(e: Expr, kids: Sequence[Expr]) -> Expr:
    """e rebuilt over new children, given in the order of children(e).

    Juxtapositions are renormalized; a tuple whose slots are not plain LoF
    raises ValueError.
    """
    if isinstance(e, Mark):
        return Mark(e.sub, kids[0])
    if isinstance(e, Power):
        return Power(e.sub, kids[0], e.exponent)
    if isinstance(e, Juxt):
        return juxt(*kids)
    if isinstance(e, Tuple4):
        return Tuple4(tuple(kids))
    if isinstance(e, ExpApply):
        return ExpApply(*kids)
    return e


def free_vars(e: Expr) -> tuple[set[str], set[str]]:
    """Free variables of e, split into (tuple-level, slot-level) names.

    A name used both inside and outside tuple literals is rejected: slot
    variables range over the two LoF states, tuple-level variables over
    the sixteen values.
    """
    qvars: set[str] = set()
    lofvars: set[str] = set()

    def walk(x: Expr, in_slot: bool) -> None:
        if isinstance(x, Var):
            (lofvars if in_slot else qvars).add(x.name)
        elif isinstance(x, Tuple4):
            for s in x.slots:
                walk(s, True)
        else:
            for c in children(x):
                walk(c, in_slot)

    walk(e, False)
    both = qvars & lofvars
    if both:
        raise ValueError(
            f"variables used both inside and outside tuple slots: {sorted(both)}"
        )
    return qvars, lofvars


def substitute(e: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """Replace free variables by expressions, renormalizing juxtapositions."""
    if isinstance(e, Var):
        return bindings.get(e.name, e)
    return with_children(e, [substitute(c, bindings) for c in children(e)])

"""The benchmark's own term representation, kept apart from qcalc's AST so
that generated inputs and their reference answers do not depend on the
program under test.

A term is a nested tuple:

    ("0",)                       the void
    ("v", name)                  a variable (tuple-level or slot-level)
    ("m", sub, body)             a mark; sub is "", "i", "j" or "k"
    ("p", sub, body, exponent)   an operator power, exponent >= 2
    ("j", parts)                 a juxtaposition of two or more parts
    ("t", slots)                 a 4-tuple literal of plain-LoF slots
    ("x", base, exponent, form)  exponent application base^(exponent);
                                 `form` is the mark form it equals, which
                                 the references evaluate instead

`render` prints the canonical text qcalc's printer produces for the same
tree, so the program's echo of a parsed input can be compared as text.
"""

from __future__ import annotations

VOID = ("0",)
SUBS = ("", "i", "j", "k")


def var(name: str):
    return ("v", name)


def mark(body, sub: str = ""):
    return ("m", sub, body)


def power(body, sub: str, exponent: int):
    return ("p", sub, body, exponent)


def juxt(*parts):
    """Flattening, void-dropping juxtaposition."""
    flat = []
    for p in parts:
        if p[0] == "j":
            flat.extend(p[1])
        elif p[0] != "0":
            flat.append(p)
    if not flat:
        return VOID
    if len(flat) == 1:
        return flat[0]
    return ("j", tuple(flat))


def tuple4(slots):
    return ("t", tuple(slots))


def render(e) -> str:
    kind = e[0]
    if kind == "0":
        return ""
    if kind == "v":
        return e[1]
    if kind == "m":
        return f"[{render(e[2])}]{e[1]}"
    if kind == "p":
        return f"[{render(e[2])}]{e[1]}^{e[3]}"
    if kind == "j":
        return " ".join(render(p) for p in e[1])
    if kind == "t":
        return "{" + ", ".join(render(s) for s in e[1]) + "}"
    if kind == "x":
        return f"{render(e[1])}^({render(e[2])})"
    raise ValueError(f"not a term: {e!r}")


def mark_form(e):
    """The term with every exponent application replaced by its form."""
    kind = e[0]
    if kind == "x":
        return mark_form(e[3])
    if kind in ("m", "p"):
        return (kind, e[1], mark_form(e[2])) + e[3:]
    if kind in ("j", "t"):
        return (kind, tuple(mark_form(p) for p in e[1]))
    return e


def free_vars(e, in_slot: bool = False, out=None) -> tuple[set, set]:
    """(tuple-level names, slot-level names) of a term."""
    qvars, svars = out if out is not None else (set(), set())
    kind = e[0]
    if kind == "v":
        (svars if in_slot else qvars).add(e[1])
    elif kind in ("m", "p"):
        free_vars(e[2], in_slot, (qvars, svars))
    elif kind == "j":
        for p in e[1]:
            free_vars(p, in_slot, (qvars, svars))
    elif kind == "t":
        for s in e[1]:
            free_vars(s, True, (qvars, svars))
    elif kind == "x":
        free_vars(e[1], in_slot, (qvars, svars))
        free_vars(e[2], in_slot, (qvars, svars))
    return qvars, svars


def substitute(e, bindings):
    kind = e[0]
    if kind == "v":
        return bindings.get(e[1], e)
    if kind in ("m", "p"):
        return (kind, e[1], substitute(e[2], bindings)) + e[3:]
    if kind == "j":
        return juxt(*(substitute(p, bindings) for p in e[1]))
    if kind == "t":
        return tuple4(substitute(s, bindings) for s in e[1])
    return e


def positions(e, path=()):
    """Preorder (path, node) pairs; paths index into mark bodies and
    juxtaposition parts only (tuple slots and exponents are leaves)."""
    yield path, e
    if e[0] in ("m", "p"):
        yield from positions(e[2], path + (0,))
    elif e[0] == "j":
        for n, p in enumerate(e[1]):
            yield from positions(p, path + (n,))


def replace_at(e, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if e[0] in ("m", "p"):
        return (e[0], e[1], replace_at(e[2], rest, new)) + e[3:]
    if e[0] == "j":
        parts = list(e[1])
        parts[head] = replace_at(parts[head], rest, new)
        return juxt(*parts)
    raise ValueError(f"no child {head} in {e!r}")


def parse(text: str):
    """Parse the template subset of the syntax: marks with an optional
    subscript and power, identifiers and juxtaposition."""
    pos = 0

    def skip():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expr(stop: str):
        nonlocal pos
        items = []
        while True:
            skip()
            if pos >= len(text) or text[pos] in stop:
                return juxt(*items)
            items.append(item())

    def item():
        nonlocal pos
        ch = text[pos]
        if ch == "[":
            pos += 1
            body = expr("]")
            pos += 1
            sub = ""
            if pos < len(text) and text[pos] in "ijk":
                sub = text[pos]
                pos += 1
            if pos < len(text) and text[pos] == "^":
                start = pos = pos + 1
                while pos < len(text) and text[pos].isdigit():
                    pos += 1
                return power(body, sub, int(text[start:pos]))
            return mark(body, sub)
        start = pos
        while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        if start == pos:
            raise ValueError(f"unexpected {ch!r} in template {text!r}")
        return var(text[start:pos])

    return expr("")

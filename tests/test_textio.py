import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exp_exprs, q_exprs, random_q_expr
from qcalc.textio import (
    MAX_DEPTH,
    ExpApply,
    Juxt,
    Mark,
    ParseError,
    Power,
    Tuple4,
    Var,
    Void,
    ac_canon,
    ac_equal,
    canonical_text,
    children,
    free_vars,
    parse,
    parse_assertion,
    parse_qlf,
    print_expr,
    substitute,
    with_children,
)


def _shuffled(e, rnd: random.Random):
    """e rebuilt with every juxtaposition's children in a random order."""
    kids = [_shuffled(k, rnd) for k in children(e)]
    if isinstance(e, Juxt):
        rnd.shuffle(kids)
    return with_children(e, kids)


class TestParse:
    def test_reflexion_shape(self):
        assert parse("[[x]]") == Mark("", Mark("", Var("x")))

    def test_nested_subscripts(self):
        assert parse("[[X]i]j") == Mark("j", Mark("i", Var("X")))

    def test_tuple_literal(self):
        assert parse("{a, b, c, d}") == Tuple4(
            (Var("a"), Var("b"), Var("c"), Var("d"))
        )

    def test_power(self):
        assert parse("[X]i^3") == Power("i", Var("X"), 3)
        assert parse("[X]^2") == Power("", Var("X"), 2)
        assert parse("[X]i^1") == Mark("i", Var("X"))

    def test_exp_apply(self):
        e = parse("{a, b, c, d}^([]i)")
        assert isinstance(e, ExpApply)
        assert e.exponent == Mark("i", Void())

    def test_grouping(self):
        assert parse("(a b)^([]i)") == ExpApply(Juxt((Var("a"), Var("b"))), Mark("i", Void()))
        assert parse("()^([]i)") == ExpApply(Void(), Mark("i", Void()))
        assert parse("(a) (b c) ()") == parse("a b c")
        assert parse("a b^([]i)") == Juxt((Var("a"), ExpApply(Var("b"), Mark("i", Void()))))

    def test_empty_is_void(self):
        assert parse("") == Void()
        assert parse("   ") == Void()

    def test_empty_tuple_slots(self):
        e = parse("{[], , , []}")
        assert e.slots[1] == Void()

    def test_subscript_needs_adjacency(self):
        assert parse("[x] i") == Juxt((Mark("", Var("x")), Var("i")))
        assert parse("[x]i") == Mark("i", Var("x"))
        # A longer identifier is never a subscript.
        assert parse("[x]ij") == Juxt((Mark("", Var("x")), Var("ij")))

    def test_juxt_flattens(self):
        e = parse("a b c")
        assert isinstance(e, Juxt) and len(e.parts) == 3

    def test_whitespace_insignificant(self):
        assert parse("a   b") == parse("a b")


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "[x",
            "x]",
            "{a, b, c}",
            "{a, b, c, d, e}",
            "[x]^0",
            "x^3",
            "{[x]i, b, c, d}",
            "x^(y",
            "{a, b, c, d",
            "(a b",
            "a b)",
            "(a b)^2",
        ],
    )
    def test_bad_inputs_raise_with_span(self, text):
        with pytest.raises(ParseError) as exc:
            parse(text)
        span = exc.value.span
        assert 0 <= span.start <= span.end <= len(text)

    def test_nesting_depth_is_bounded(self):
        # The top level is one of the MAX_DEPTH bodies.
        depth = MAX_DEPTH - 1
        assert print_expr(parse("[" * depth + "]" * depth)) == "[" * depth + "]" * depth
        for opener, closer in (("[", "]"), ("(", ")"), ("X^(", ")")):
            with pytest.raises(ParseError, match="nested too deeply") as exc:
                parse(opener * MAX_DEPTH + closer * MAX_DEPTH)
            assert exc.value.span.start == MAX_DEPTH * len(opener)

    def test_assertion_needs_one_separator(self):
        with pytest.raises(ParseError):
            parse_assertion("a == b == c")
        lhs, rhs = parse_assertion("[[A] A] == ")
        assert rhs == Void()


class TestPrint:
    def test_examples(self):
        assert print_expr(Mark("i", Void())) == "[]i"
        assert (
            print_expr(Mark("k", Tuple4((Var("a"), Var("b"), Var("c"), Var("d")))))
            == "[{a, b, c, d}]k"
        )

    @settings(max_examples=300)
    @given(q_exprs)
    def test_roundtrip(self, e):
        assert parse(print_expr(e)) == e

    @given(q_exprs)
    def test_print_parse_idempotent(self, e):
        s = print_expr(e)
        assert print_expr(parse(s)) == s

    def test_thousand_random_asts_roundtrip(self, rng):
        for _ in range(1000):
            e = random_q_expr(rng)
            assert parse(print_expr(e)) == e


class TestHelpers:
    def test_ac_equal_reorders_juxt(self):
        assert ac_equal(parse("a b [c]"), parse("[c] b a"))
        assert not ac_equal(parse("a b"), parse("a b b"))

    def test_ac_canon_nested(self):
        assert print_expr(ac_canon(parse("[b a]i x"))) == "[a b]i x"

    @given(exp_exprs)
    def test_canonical_text_is_printed_ac_canon(self, e):
        assert canonical_text(e) == print_expr(ac_canon(e))

    @given(exp_exprs)
    def test_printing_round_trips(self, e):
        assert parse(print_expr(e)) == e
        assert parse(canonical_text(e)) == ac_canon(e)

    @given(exp_exprs, exp_exprs, st.randoms(use_true_random=False))
    def test_ac_equal_agrees_with_ac_canon(self, a, b, rnd):
        for x, y in ((a, b), (a, _shuffled(a, rnd)), (b, _shuffled(a, rnd))):
            assert ac_equal(x, y) == (ac_canon(x) == ac_canon(y))
        assert ac_equal(a, _shuffled(a, rnd))

    def test_canonical_text_with_exponent_applications(self):
        for text in ("X^(b a) [c a]i", "{b a, , [b], a}^([A]k B) A", "[[B A]j^3]^(C)"):
            e = parse(text)
            assert canonical_text(e) == print_expr(ac_canon(e))

    def test_juxtaposed_exponent_base_prints_alike_but_is_not_ac_equal(self):
        built = substitute(parse("X^([]i)"), {"X": parse("b a")})
        parsed = parse("a b^([]i)")
        assert print_expr(built) == "(b a)^([]i)"
        assert canonical_text(built) == "(a b)^([]i)"
        assert canonical_text(parsed) == "a b^([]i)"
        assert parse(print_expr(built)) == built
        assert not ac_equal(built, parsed)
        assert ac_equal(built, substitute(parse("X^([]i)"), {"X": parse("a b")}))

    def test_cached_key_leaves_equality_hash_and_repr_alone(self):
        e, twin = parse("[b a]i x"), parse("[b a]i x")
        canonical_text(e)
        assert e == twin and hash(e) == hash(twin) and repr(e) == repr(twin)
        assert e != parse("[a b]i x")

    def test_free_vars_split(self):
        q, l = free_vars(parse("[A]i {x, , y, } B"))
        assert q == {"A", "B"} and l == {"x", "y"}

    def test_free_vars_conflict(self):
        with pytest.raises(ValueError):
            free_vars(parse("A {A, , , }"))

    def test_free_vars_of_a_check_spans_its_terms(self):
        q, l = free_vars(parse("[A]i"), parse("{x, , , } B"))
        assert q == {"A", "B"} and l == {"x"}
        with pytest.raises(ValueError, match=r"\['x'\]"):
            free_vars(parse("[x]"), parse("{x, , , }"))

    def test_substitute(self):
        e = substitute(parse("[X]i X"), {"X": parse("a b")})
        assert print_expr(e) == "[a b]i a b"

    def test_tuple_checks_its_slots(self):
        with pytest.raises(ValueError, match="4 slots"):
            Tuple4((Var("a"),))
        with pytest.raises(ValueError, match="plain-LoF"):
            Tuple4((Var("a"), Mark("i", Void()), Void(), Void()))

    def test_tuple_error_names_the_slot_by_its_text(self):
        with pytest.raises(ValueError) as exc:
            Tuple4((Void(), Mark("i", Var("x")), Void(), Void()))
        assert str(exc.value) == "tuple slot is not a plain-LoF expression: [x]i"

    def test_substitute_into_tuple_stays_lof(self):
        with pytest.raises(ValueError):
            substitute(parse("{x, , , }"), {"x": parse("[y]i")})

    def test_qlf_parsing(self):
        lines = parse_qlf(
            "# comment\n"
            "[[A]]\n"
            "\n"
            "[[A] A] ==   # inline comment\n"
            "[x]i == [x]j\n"
        )
        assert [l.lineno for l in lines] == [2, 4, 5]
        assert lines[1].rhs == Void()
        assert lines[2].rhs == Mark("j", Var("x"))
        # Only "\n" ends a line; other breaks are whitespace inside one.
        assert [l.lineno for l in parse_qlf("A == A\f\n[A] == A\n")] == [1, 2]
        with pytest.raises(ParseError, match=r"\(at 8\.\.10\)"):
            parse_qlf("A == A\r\n[ == A\n")

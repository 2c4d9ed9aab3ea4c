from itertools import permutations, product

import pytest
from hypothesis import given, settings

from conftest import full_envs, q_exprs, qvalues
from qcalc.kernel import ALL_QVALUES, Q8Op, QValue, op_value, q8_apply, q8_mul
from qcalc.semantics import (
    ALL_BFVALUES,
    BF_FALSE,
    BF_TRUE,
    BFValue,
    BadBinding,
    BadExponentValue,
    EvalError,
    UnboundVariable,
    apply_op,
    apply_op_power,
    bf_apply,
    bf_evaluate,
    connective,
    embed_bf,
    evaluate,
    juxtapose,
    solve_bf_embeddings,
)
from qcalc.textio import Var, parse, print_expr


class TestApplyOp:
    def test_i_on_unmarked(self):
        assert apply_op("i", QValue(0)).pattern() == "MUUM"

    def test_k_on_unmarked_brute(self):
        # Substituting into the k slot equation (mark d, c, mark b, a).
        a = b = c = d = False
        assert apply_op("k", QValue(0)).slots == (not d, c, not b, a)

    def test_plain_involution(self):
        for v in ALL_QVALUES:
            assert apply_op("", apply_op("", v)) == v

    @pytest.mark.parametrize("sub", ["i", "j", "k"])
    def test_imaginary_order_four(self, sub):
        for v in ALL_QVALUES:
            assert apply_op_power(sub, v, 4) == v
            assert apply_op_power(sub, v, 2) == apply_op("", v)
            assert apply_op_power(sub, v, 2) != v

    def test_operation_preservation_all_pairs(self):
        for g, h in product(Q8Op, Q8Op):
            for v in ALL_QVALUES:
                assert q8_apply(h, q8_apply(g, v)) == q8_apply(q8_mul(g, h), v)


class TestJuxtapose:
    def test_calling_example(self):
        left = QValue.from_pattern("MMUM")
        for c in (False, True):
            right = QValue.from_slots(False, False, c, True)
            assert juxtapose(left, right) == QValue.from_slots(True, True, c, True)

    @given(qvalues, qvalues)
    def test_commutative(self, v, w):
        assert juxtapose(v, w) == juxtapose(w, v)

    def test_assoc_idempotent_identity_absorbing(self):
        for v, w, u in product(ALL_QVALUES, ALL_QVALUES, ALL_QVALUES):
            assert juxtapose(juxtapose(v, w), u) == juxtapose(v, juxtapose(w, u))
        for v in ALL_QVALUES:
            assert juxtapose(v, v) == v
            assert juxtapose(QValue(0), v) == v
            assert juxtapose(QValue(15), v) == QValue(15)

    def test_ij_interference(self):
        assert juxtapose(op_value(Q8Op.I), op_value(Q8Op.J)).pattern() == "MMUM"


class TestEvaluate:
    def test_nested_marks_on_tuples(self):
        lhs = parse("[[{a, b, c, d}]i]j")
        rhs = parse("[{a, b, c, d}]k")
        for bits in range(16):
            env = {
                "a": bool(bits & 8),
                "b": bool(bits & 4),
                "c": bool(bits & 2),
                "d": bool(bits & 1),
            }
            assert evaluate(lhs, env) == evaluate(rhs, env)

    def test_exponent_application(self):
        env = {"a": True, "b": False, "c": False, "d": True}
        assert evaluate(parse("{a, b, c, d}^([]i)"), env) == evaluate(
            parse("[{a, b, c, d}]i"), env
        )

    def test_power_reduces_mod_four(self):
        for v in ALL_QVALUES:
            env = {"X": v}
            assert evaluate(parse("[X]i^4"), env) == v
            assert evaluate(parse("[X]i^7"), env) == evaluate(parse("[X]i^3"), env)
            assert evaluate(parse("[X]i^2"), env) == evaluate(parse("[X]"), env)

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            evaluate(parse("X"), {})
        # The slot is marked by [] already, but x is still evaluated.
        with pytest.raises(UnboundVariable):
            evaluate(parse("{[] x, , , }"), {})

    def test_bad_exponent_reports_value(self):
        with pytest.raises(BadExponentValue) as exc:
            evaluate(parse("X^(Y)"), {"X": QValue(0), "Y": QValue.from_pattern("MMUM")})
        assert exc.value.value.pattern() == "MMUM"

    def test_slot_variable_needs_lof_binding(self):
        with pytest.raises(BadBinding):
            evaluate(parse("{x, , , }"), {"x": QValue(3)})
        with pytest.raises(BadBinding):
            evaluate(parse("X"), {"X": True})

    @pytest.mark.parametrize(
        "text, value, shown",
        [("{x, , , }", QValue(9), "MUUM"), ("X", True, "M"), ("X", False, "U"),
         ("X", 3, "3")],
    )
    def test_bad_binding_shows_the_value_as_env_writes_it(self, text, value, shown):
        with pytest.raises(BadBinding) as exc:
            evaluate(parse(text), {text.strip("{, }"): value})
        assert str(exc.value).endswith(f", got {shown}")

    @given(q_exprs, full_envs)
    @settings(max_examples=200)
    def test_juxt_fold_matches_pairwise(self, e, env):
        # Evaluation of a juxtaposition equals the fold of pairwise joins.
        from qcalc.textio import Juxt

        if isinstance(e, Juxt):
            folded = QValue(0)
            for p in e.parts:
                folded = juxtapose(folded, evaluate(p, env))
            assert evaluate(e, env) == folded


class TestConnectives:
    def test_or_is_juxtaposition(self):
        assert print_expr(connective("or", Var("A"), Var("B"))) == "A B"

    def test_and_idempotent(self):
        e = connective("and", Var("A"), Var("A"))
        for v in ALL_QVALUES:
            assert evaluate(e, {"A": v}) == v

    def test_or_i_shape(self):
        assert (
            print_expr(connective("or_i", Var("A"), Var("B")))
            == "[[A]i^3 [B]i^3]i"
        )
        assert (
            print_expr(connective("and_i", Var("A"), Var("B")))
            == "[[A]i [B]i]i^3"
        )

    def test_or_i_table_against_direct_computation(self):
        e = connective("or_i", Var("x"), Var("y"))
        for v, w in product(ALL_QVALUES, ALL_QVALUES):
            direct = apply_op(
                "i",
                juxtapose(apply_op_power("i", v, 3), apply_op_power("i", w, 3)),
            )
            assert evaluate(e, {"x": v, "y": w}) == direct

    def test_xor_is_slotwise_xor(self):
        e = connective("xor", Var("x"), Var("y"))
        for v, w in product(ALL_QVALUES, ALL_QVALUES):
            assert evaluate(e, {"x": v, "y": w}) == QValue(v.bits ^ w.bits)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            connective("nand", Var("A"), Var("B"))

    def test_bilattice_corners_in_pair_mode(self):
        or_i = connective("or_i", Var("x"), Var("y"))
        and_i = connective("and_i", Var("x"), Var("y"))
        env = {"x": BF_TRUE, "y": BF_FALSE}
        assert bf_evaluate(or_i, env) == BF_TRUE
        assert bf_evaluate(and_i, env) == BF_FALSE
        both = {"x": BF_TRUE, "y": BF_TRUE}
        assert bf_evaluate(or_i, both) == BF_TRUE
        assert bf_evaluate(and_i, both) == BF_TRUE


@pytest.mark.parametrize("cls, width, noun", [(QValue, 4, "value"), (BFValue, 2, "pair")])
def test_packed_values_share_one_encoding(cls, width, noun):
    """Both value classes pack their slots first slot highest and spell
    them as M/U patterns, with the same checks."""
    for bits in range(1 << width):
        v = cls(bits)
        assert v.slots == tuple(bool(bits >> k & 1) for k in reversed(range(width)))
        assert cls.from_slots(*v.slots) == v == cls.from_pattern(v.pattern())
        assert v.pattern() == "".join("M" if s else "U" for s in v.slots)
        assert repr(v) == f"{cls.__name__}({v.pattern()!r})"
    assert cls.from_pattern("M" + "U" * (width - 1)).bits == 1 << (width - 1)
    for bad in ("M" * (width + 1), "X" * width):
        with pytest.raises(ValueError) as err:
            cls.from_pattern(bad)
        assert str(err.value) == f"bad {noun} pattern {bad!r}; want {width} chars of M/U"
    for bits in (-1, 1 << width):
        with pytest.raises(ValueError) as err:
            cls(bits)
        assert str(err.value) == f"{cls.__name__} bits out of range: {bits}"


class TestPairMode:
    def test_defining_equation(self):
        assert bf_apply("i", BFValue.from_pattern("UU")) == BFValue.from_pattern("MU")

    def test_square_root_of_mark(self):
        for v in ALL_BFVALUES:
            assert bf_apply("i", bf_apply("i", v)) == bf_apply("", v)
            assert bf_apply("", bf_apply("", v)) == v

    def test_no_jk_marks(self):
        with pytest.raises(EvalError):
            bf_apply("j", BFValue(0))
        with pytest.raises(EvalError):
            bf_evaluate(parse("[x]k"), {"x": BFValue(0)})

    def test_tuples_not_defined(self):
        with pytest.raises(EvalError):
            bf_evaluate(parse("{a, , , }"), {"a": BFValue(0)})


class TestEmbedding:
    def test_unmarked_to_unmarked(self):
        assert embed_bf("i", BFValue(0)) == QValue(0)

    @pytest.mark.parametrize("alpha", ["i", "j", "k"])
    def test_commuting_diagrams(self, alpha):
        for v in ALL_BFVALUES:
            assert embed_bf(alpha, bf_apply("i", v)) == apply_op(
                alpha, embed_bf(alpha, v)
            )
            assert embed_bf(alpha, bf_apply("", v)) == apply_op(
                "", embed_bf(alpha, v)
            )

    def test_golden_file_matches_solver(self):
        # The reference: every injection that fixes UU, checked against
        # both intertwining conditions, must find exactly the orbit table.
        for alpha, table in solve_bf_embeddings().items():
            found = []
            for img in permutations(ALL_QVALUES[1:], 3):
                phi = dict(zip(ALL_BFVALUES, (QValue(0),) + img))
                if all(
                    phi[bf_apply("i", v)] == apply_op(alpha, phi[v])
                    and phi[bf_apply("", v)] == apply_op("", phi[v])
                    for v in ALL_BFVALUES
                ):
                    found.append({v.pattern(): w.pattern() for v, w in phi.items()})
            assert found == [table]
            for src, dst in table.items():
                assert embed_bf(alpha, BFValue.from_pattern(src)) == QValue.from_pattern(dst)

    def test_injective(self):
        for alpha in ("i", "j", "k"):
            assert len({embed_bf(alpha, v) for v in ALL_BFVALUES}) == 4

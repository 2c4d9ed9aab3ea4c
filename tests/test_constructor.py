from itertools import product, permutations

import pytest

from qcalc.constructor import (
    INTERFERENCE_NAMES,
    interference,
    mark_slot,
    op_form,
    permute_expr,
    selector_op,
    spec_tuple,
    verify_construction,
)
from qcalc.kernel import Q8Op, QValue, SignedPerm, op_value, q8_to_signed_perm
from qcalc.semantics import evaluate, juxtapose
from qcalc.textio import ac_equal, parse, print_expr, substitute
from qcalc.verifier import check_equiv

GENERIC = parse("{a, b, c, d}")


def as_env(bits: int) -> dict:
    return {
        "a": bool(bits & 8),
        "b": bool(bits & 4),
        "c": bool(bits & 2),
        "d": bool(bits & 1),
    }


class TestInterference:
    def test_named_values(self):
        assert interference("IJ").pattern() == "MMUM"
        assert interference("IK").pattern() == "MUMM"
        assert interference("JK").pattern() == "MMMU"
        assert interference("I3J3").pattern() == "UMMM"

    def test_jk_is_juxtaposition_of_empty_marks(self):
        assert interference("JK") == juxtapose(op_value(Q8Op.J), op_value(Q8Op.K))

    def test_i3j3_from_negated_empty_marks(self):
        assert interference("I3J3") == juxtapose(
            op_value(Q8Op.MI), op_value(Q8Op.MJ)
        )

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            interference("XYZ")

    def test_each_pattern_blocks_all_but_one(self):
        open_slots = {
            name: [s + 1 for s in range(4) if not interference(name).slots[s]]
            for name in INTERFERENCE_NAMES
        }
        assert open_slots == {"IJ": [3], "IK": [2], "JK": [4], "I3J3": [1]}


class TestMarkSlot:
    def test_slot3_is_the_two_factor_construction(self):
        assert ac_equal(mark_slot(3), parse("[X []i []j] [[X] [[]i []j]]"))

    @pytest.mark.parametrize("x", [1, 2, 3, 4])
    def test_marks_exactly_one_slot(self, x):
        spec = ["a", "b", "c", "d"]
        spec[x - 1] = f"[{spec[x - 1]}]"
        res = check_equiv(
            substitute(mark_slot(x), {"X": GENERIC}),
            parse("{" + ", ".join(spec) + "}"),
        )
        assert res.equivalent and res.assignments_checked == 16

    def test_double_marking_cancels(self):
        twice = substitute(mark_slot(2), {"X": mark_slot(2)})
        res = check_equiv(substitute(twice, {"X": GENERIC}), GENERIC)
        assert res.equivalent

    def test_bad_slot(self):
        with pytest.raises(ValueError):
            mark_slot(5)


class TestSelectors:
    def test_table_rederived_by_search(self):
        # selector_op is exactly the unique operator per (target, source,
        # flag) whose routing and mark flag fit.
        for t, s, flag in product((1, 2, 3, 4), (1, 2, 3, 4), (False, True)):
            candidates = [
                g
                for g in Q8Op
                if q8_to_signed_perm(g).target[t - 1] == s
                and q8_to_signed_perm(g).marked[t - 1] == (not flag)
            ]
            assert len(candidates) == 1
            assert selector_op(t, s, flag) is candidates[0]

    def test_op_form_is_canonical(self):
        x = parse("X")
        assert print_expr(op_form(Q8Op.P1, x)) == "X"
        assert print_expr(op_form(Q8Op.M1, x)) == "[X]"
        assert print_expr(op_form(Q8Op.MI, x)) == "[X]i^3"


class TestPermute:
    def test_identity(self):
        p = SignedPerm((1, 2, 3, 4), (False,) * 4)
        res = verify_construction(permute_expr(p), p)
        assert res.equivalent

    def test_example_layout(self):
        p = SignedPerm((1, 4, 2, 3), (False,) * 4)
        expr = permute_expr(p)
        res = verify_construction(expr, p)
        assert res.equivalent
        printed = parse(
            "[[X] []i^3 []j^3] [[X]j []i []k] [[X]i []j []k] [[X]k []i []j]"
        )
        assert ac_equal(expr, printed)

    def test_all_24_permutations_exhaustively(self):
        for perm in permutations((1, 2, 3, 4)):
            p = SignedPerm(tuple(perm), (False,) * 4)
            res = verify_construction(permute_expr(p), p)
            assert res.equivalent, perm
            assert res.assignments_checked == 16

    def test_marked_variants(self):
        p = SignedPerm((2, 1, 4, 3), (True, False, False, True))
        res = verify_construction(permute_expr(p), p)
        assert res.equivalent

    def test_bijection_on_values(self):
        for perm in ((1, 2, 3, 4), (2, 3, 4, 1), (4, 1, 3, 2)):
            p = SignedPerm(perm, (False, True, False, False))
            e = substitute(permute_expr(p), {"X": GENERIC})
            images = {evaluate(e, as_env(bits)) for bits in range(16)}
            assert len(images) == 16

    def test_composition(self, rng):
        for _ in range(20):
            p1 = SignedPerm(
                tuple(rng.sample([1, 2, 3, 4], 4)),
                tuple(rng.random() < 0.3 for _ in range(4)),
            )
            p2 = SignedPerm(
                tuple(rng.sample([1, 2, 3, 4], 4)),
                tuple(rng.random() < 0.3 for _ in range(4)),
            )
            nested = substitute(permute_expr(p1), {"X": permute_expr(p2)})
            res = verify_construction(nested, p2.then(p1))
            assert res.equivalent, (p1, p2)

    def test_act_matches_spec_tuple(self):
        p = SignedPerm((3, 1, 4, 2), (False, True, False, False))
        for bits in range(16):
            v = QValue(bits)
            spec_val = evaluate(spec_tuple(p), as_env(bits))
            assert p.apply_q(v) == spec_val

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            SignedPerm((1, 1, 3, 4), (False,) * 4)

    def test_needs_arity_four(self):
        with pytest.raises(ValueError, match="arity 4"):
            permute_expr(SignedPerm((2, 1, 3), (False,) * 3))

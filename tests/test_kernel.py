from itertools import product

import pytest
from hypothesis import given

from conftest import q8_ops, qvalues
from qcalc.kernel import (
    ALL_QVALUES,
    Q8Op,
    QValue,
    SignedPerm,
    cayley_table,
    generate_closure,
    is_isomorphic_to_q8,
    op_value,
    q8_apply,
    q8_inverse,
    q8_mul,
    q8_power,
    q8_to_signed_perm,
)


def test_qvalue_roundtrip():
    for v in ALL_QVALUES:
        assert QValue.from_pattern(v.pattern()) == v
        assert QValue.from_slots(*v.slots) == v
    assert QValue.from_pattern("MUUM").bits == 0b1001
    with pytest.raises(ValueError):
        QValue.from_pattern("MUX")
    with pytest.raises(ValueError):
        QValue(16)


def test_sixteen_distinct_values():
    assert len(set(ALL_QVALUES)) == 16


class TestQ8Mul:
    def test_defining_products(self):
        assert q8_mul(Q8Op.I, Q8Op.J) is Q8Op.K
        assert q8_mul(Q8Op.J, Q8Op.K) is Q8Op.I
        assert q8_mul(Q8Op.K, Q8Op.I) is Q8Op.J
        assert q8_mul(Q8Op.J, Q8Op.I) is Q8Op.MK
        assert q8_mul(Q8Op.K, Q8Op.J) is Q8Op.MI
        assert q8_mul(Q8Op.I, Q8Op.K) is Q8Op.MJ

    def test_squares_and_ijk(self):
        for axis_op in (Q8Op.I, Q8Op.J, Q8Op.K):
            assert q8_mul(axis_op, axis_op) is Q8Op.M1
        assert q8_mul(q8_mul(Q8Op.I, Q8Op.J), Q8Op.K) is Q8Op.M1

    @given(q8_ops)
    def test_identity(self, g):
        assert q8_mul(Q8Op.P1, g) is g
        assert q8_mul(g, Q8Op.P1) is g

    def test_associative_all_triples(self):
        for g, h, k in product(Q8Op, Q8Op, Q8Op):
            assert q8_mul(q8_mul(g, h), k) is q8_mul(g, q8_mul(h, k))

    def test_inverses(self):
        for g in Q8Op:
            assert q8_mul(g, q8_inverse(g)) is Q8Op.P1

    def test_center(self):
        center = {
            g for g in Q8Op if all(q8_mul(g, h) is q8_mul(h, g) for h in Q8Op)
        }
        assert center == {Q8Op.P1, Q8Op.M1}

    def test_anti_commutation(self):
        for g, h in ((Q8Op.I, Q8Op.J), (Q8Op.J, Q8Op.K), (Q8Op.K, Q8Op.I)):
            assert q8_mul(g, h) is q8_mul(Q8Op.M1, q8_mul(h, g))

    def test_powers(self):
        assert q8_power(Q8Op.I, 2) is Q8Op.M1
        assert q8_power(Q8Op.I, 3) is Q8Op.MI
        assert q8_power(Q8Op.I, 4) is Q8Op.P1
        assert q8_power(Q8Op.M1, 2) is Q8Op.P1


class TestSignedPerm:
    def test_i_matches_defining_equation(self):
        p = q8_to_signed_perm(Q8Op.I)
        assert p.target == (2, 1, 4, 3)
        assert p.marked == (True, False, False, True)

    def test_p1_is_identity(self):
        assert q8_to_signed_perm(Q8Op.P1) == SignedPerm.identity(4)

    def test_klein_four_underlying(self):
        assert q8_to_signed_perm(Q8Op.I).target == (2, 1, 4, 3)
        assert q8_to_signed_perm(Q8Op.J).target == (3, 4, 1, 2)
        assert q8_to_signed_perm(Q8Op.K).target == (4, 3, 2, 1)

    def test_isomorphism_all_64_pairs(self):
        for g, h in product(Q8Op, Q8Op):
            composed = q8_to_signed_perm(g).then(q8_to_signed_perm(h))
            assert composed == q8_to_signed_perm(q8_mul(g, h))

    def test_compose_i_then_j_is_k(self):
        assert q8_to_signed_perm(Q8Op.I).then(
            q8_to_signed_perm(Q8Op.J)
        ) == q8_to_signed_perm(Q8Op.K)

    @given(q8_ops, qvalues)
    def test_inverse_undoes(self, g, v):
        p = q8_to_signed_perm(g)
        assert p.inverse().apply_q(p.apply_q(v)) == v

    def test_not_a_permutation_rejected(self):
        with pytest.raises(ValueError):
            SignedPerm((1, 1, 3, 4), (False,) * 4)

    def test_closure_of_q8_perms(self):
        closure = generate_closure([q8_to_signed_perm(Q8Op.I), q8_to_signed_perm(Q8Op.J)])
        assert len(closure) == 8
        assert is_isomorphic_to_q8(closure)

    @pytest.mark.parametrize(
        "generators",
        [
            [((2, 1), (False, False)), ((1, 2), (True, False))],
            [((2, 3, 4, 1), (True, False, False, False))],
            [((1, 2, 3), marked) for marked in
             ((True, False, False), (False, True, False), (False, False, True))],
            [((2, 1, 3), (True, False, False)), ((1, 2, 3), (False, False, True))],
        ],
        ids=["D4", "Z8", "Z2^3", "Z4xZ2"],
    )
    def test_other_groups_of_order_8_are_not_q8(self, generators):
        closure = generate_closure(SignedPerm(*g) for g in generators)
        assert len(closure) == 8
        assert not is_isomorphic_to_q8(closure)

    def test_cayley_table_shape(self):
        elems = generate_closure([q8_to_signed_perm(Q8Op.I), q8_to_signed_perm(Q8Op.J)])
        table = cayley_table(elems)
        assert sorted(table[0]) == list(range(8))

    @pytest.mark.parametrize("source", ["q8", "braid"])
    def test_cayley_table_matches_then(self, source):
        # Each entry indexes the product SignedPerm.then gives.
        from qcalc.braid import quaternion_closure

        if source == "q8":
            elems = [q8_to_signed_perm(g) for g in Q8Op]
        else:
            elems = quaternion_closure()
        index = {(p.target, p.marked): i for i, p in enumerate(elems)}
        want = [
            [index[(g.then(h).target, g.then(h).marked)] for h in elems]
            for g in elems
        ]
        assert cayley_table(elems) == want


class TestOpValue:
    def test_empty_marks(self):
        assert op_value(Q8Op.I).pattern() == "MUUM"
        assert op_value(Q8Op.P1).pattern() == "UUUU"
        assert op_value(Q8Op.J).pattern() == "MMUU"

    def test_empty_j_by_brute_force(self):
        # Independent recomputation from the slot equation (mark c, mark d, a, b).
        a, b, c, d = (False, False, False, False)
        assert op_value(Q8Op.J).slots == (not c, not d, a, b)

    def test_injective(self):
        assert len({op_value(g) for g in Q8Op}) == 8

    @given(q8_ops, qvalues)
    def test_apply_matches_per_slot_equations(self, g, v):
        a, b, c, d = v.slots
        direct = {
            Q8Op.P1: (a, b, c, d),
            Q8Op.M1: (not a, not b, not c, not d),
            Q8Op.I: (not b, a, d, not c),
            Q8Op.MI: (b, not a, not d, c),
            Q8Op.J: (not c, not d, a, b),
            Q8Op.MJ: (c, d, not a, not b),
            Q8Op.K: (not d, c, not b, a),
            Q8Op.MK: (d, not c, b, not a),
        }[g]
        assert q8_apply(g, v).slots == direct

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from qcalc.braid import (
    BraidGen,
    BraidWord,
    braid_diagram,
    braid_to_signed_perm,
    closure_is_q8,
    gen_to_signed_perm,
    parse_braid_word,
    quaternion_braid_word,
    quaternion_closure,
    sigma_apply,
    verify_braid_relations,
    word_apply,
    word_to_text,
)
from qcalc.kernel import (
    ALL_QVALUES,
    Q8Op,
    SignedPerm,
    is_isomorphic_to_q8,
    q8_to_signed_perm,
)
from qcalc.textio import Var, print_expr


def bool_tuples(n):
    return product((False, True), repeat=n)


class TestSigmaApply:
    def test_crossing_formula_symbolic(self):
        out = sigma_apply(BraidGen(1, 1), tuple(Var(x) for x in "abcd"))
        assert [print_expr(e) for e in out] == ["[b]", "a", "c", "d"]
        out = sigma_apply(BraidGen(1, -1), tuple(Var(x) for x in "abcd"))
        assert [print_expr(e) for e in out] == ["b", "[a]", "c", "d"]

    def test_inverse_cancels(self):
        g = BraidGen(2, 1)
        for t in bool_tuples(4):
            assert sigma_apply(g.inverse(), sigma_apply(g, t)) == t
            assert sigma_apply(g, sigma_apply(g.inverse(), t)) == t

    def test_square_marks_in_place(self):
        g = BraidGen(1, 1)
        for t in bool_tuples(4):
            twice = sigma_apply(g, sigma_apply(g, t))
            assert twice == (not t[0], not t[1], t[2], t[3])

    def test_fourth_power_is_identity(self):
        for n in range(2, 7):
            for k in range(1, n):
                g = BraidGen(k, 1)
                for t in bool_tuples(n):
                    out = t
                    for _ in range(4):
                        out = sigma_apply(g, out)
                    assert out == t

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sigma_apply(BraidGen(4, 1), (False,) * 4)


class TestSignedPermCorrespondence:
    def test_empty_word_is_identity(self):
        assert braid_to_signed_perm(BraidWord(4, ())) == SignedPerm.identity(4)

    def test_word_for_i(self):
        w = parse_braid_word("s1 s3'", 4)
        assert braid_to_signed_perm(w) == q8_to_signed_perm(Q8Op.I)

    def test_word_for_j(self):
        w = parse_braid_word("s2 s1' s3 s2'", 4)
        assert braid_to_signed_perm(w) == q8_to_signed_perm(Q8Op.J)

    def test_concatenation_is_composition(self):
        wi = parse_braid_word("s1 s3'", 4)
        wj = parse_braid_word("s2 s1' s3 s2'", 4)
        assert braid_to_signed_perm(wi * wj) == q8_to_signed_perm(Q8Op.K)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.integers(min_value=1, max_value=n - 1),
                        st.sampled_from([1, -1]),
                    ),
                    max_size=20,
                ),
            )
        )
    )
    def test_homomorphism_on_random_words(self, arity_and_gens):
        n, gens = arity_and_gens
        cut = len(gens) // 2
        w1 = BraidWord(n, tuple(BraidGen(i, s) for i, s in gens[:cut]))
        w2 = BraidWord(n, tuple(BraidGen(i, s) for i, s in gens[cut:]))
        assert braid_to_signed_perm(w1 * w2) == braid_to_signed_perm(w1).then(
            braid_to_signed_perm(w2)
        )

    def test_word_action_matches_perm_action(self):
        for n in range(2, 7):
            for k in range(1, n):
                for sign in (1, -1):
                    g = BraidGen(k, sign)
                    p = gen_to_signed_perm(g, n)
                    for t in bool_tuples(n):
                        assert sigma_apply(g, t) == p.apply(t)


class TestRelations:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_relations_hold(self, n):
        report = verify_braid_relations(n)
        assert report.all_hold, report.render()

    def test_n2_has_only_power_relation(self):
        report = verify_braid_relations(2)
        assert [c.name for c in report.checks] == ["s1^4 = 1"]

    def test_minimum_arity(self):
        with pytest.raises(ValueError):
            verify_braid_relations(1)

    def test_arity_above_max_strands_is_refused(self):
        with pytest.raises(ValueError, match="^arity 9 above the cap of 8 strands$"):
            verify_braid_relations(9)


class TestQuaternionWords:
    def test_word_for_k_is_concatenation(self):
        w = quaternion_braid_word(Q8Op.K)
        assert word_to_text(w) == "s1 s3' s2 s1' s3 s2'"

    def test_identity_is_empty(self):
        assert quaternion_braid_word(Q8Op.P1).gens == ()

    def test_all_eight_words_act_correctly(self):
        for g in Q8Op:
            w = quaternion_braid_word(g)
            assert braid_to_signed_perm(w) == q8_to_signed_perm(g), g

    def test_words_act_on_values(self):
        for g in Q8Op:
            w = quaternion_braid_word(g)
            for v in ALL_QVALUES:
                assert word_apply(w, v.slots) == q8_to_signed_perm(g).apply(v.slots)

    def test_closure_is_q8(self):
        closure = quaternion_closure()
        assert len(closure) == 8
        assert is_isomorphic_to_q8(closure)
        assert closure_is_q8()


class TestText:
    def test_parse_and_print(self):
        w = parse_braid_word("s1 s3' s2", 4)
        assert word_to_text(w) == "s1 s3' s2"

    def test_bad_tokens(self):
        with pytest.raises(ValueError):
            parse_braid_word("t1", 4)
        with pytest.raises(ValueError):
            parse_braid_word("s9", 4)

    def test_diagram_smoke(self):
        art = braid_diagram(parse_braid_word("s1 s3' s2", 4))
        assert "X" in art and "x" in art
        assert "#" in art  # net action marks at least one strand

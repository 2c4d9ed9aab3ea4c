"""Value semantics of the Record classes: repr, immutability, equality and
hashing, QValue ordering and fresh defaults.

The reprs were recorded when these classes were frozen dataclasses.  Node
reprs reach users through the Tuple4 slot error, so they are pinned byte
for byte.
"""

import copy
import operator
import pickle

import pytest

from qcalc.braid import BraidGen, BraidRelationReport, BraidWord, RelationCheck
from qcalc.kernel import ALL_QVALUES, QValue, Record, SignedPerm
from qcalc.rewrite import Derivation, DerivationReport, Rule, Step, StepReport
from qcalc.semantics import BFValue
from qcalc.textio import (
    ExpApply,
    Juxt,
    Mark,
    Power,
    QlfLine,
    SourceSpan,
    Tuple4,
    Var,
    Void,
    parse,
)
from qcalc.verifier import (
    AssertionReport,
    DemoReport,
    DistCell,
    DistributionReport,
    EquivResult,
    LawCheck,
    LawSuiteReport,
)


def _cases():
    A = Var("A")
    law = LawCheck("A3", True, None, 16)
    failed = LawCheck("L1", False, {"A": "MUUM"}, 3, "A == [A]")
    cell = DistCell("or", "and", False, True, None, 4096)
    step = Step("A3-Reflexion", "ltr", (0, 1))
    report = StepReport(0, "A3-Reflexion", True, None, True, True, "A")
    gen = BraidGen(1, -1)
    relation = RelationCheck("s1 s2 s1 == s2 s1 s2", True)
    return [
        (QValue(9), "QValue('MUUM')"),
        (
            SignedPerm((2, 1, 4, 3), (True, False, False, True)),
            "SignedPerm(1<-[2], 2<-1, 3<-4, 4<-[3])",
        ),
        (SourceSpan(3, 7), "SourceSpan(start=3, end=7)"),
        (Void(), "Void()"),
        (A, "Var(name='A')"),
        (Mark("i", A), "Mark(sub='i', body=Var(name='A'))"),
        (Juxt((A, Var("b"))), "Juxt(parts=(Var(name='A'), Var(name='b')))"),
        (
            parse("{a, [b], , a b}"),
            "Tuple4(slots=(Var(name='a'), Mark(sub='', body=Var(name='b')), Void(),"
            " Juxt(parts=(Var(name='a'), Var(name='b')))))",
        ),
        (Power("j", A, 3), "Power(sub='j', body=Var(name='A'), exponent=3)"),
        (
            ExpApply(A, Mark("i", Void())),
            "ExpApply(base=Var(name='A'), exponent=Mark(sub='i', body=Void()))",
        ),
        (
            QlfLine(2, A, None, "A"),
            "QlfLine(lineno=2, lhs=Var(name='A'), rhs=None, source='A')",
        ),
        (BFValue(2), "BFValue('MU')"),
        (
            EquivResult(False, {"A": QValue(1), "b": True}, 2),
            "EquivResult(equivalent=False,"
            " counterexample={'A': QValue('UUUM'), 'b': True}, assignments_checked=2)",
        ),
        (
            failed,
            "LawCheck(name='L1', holds=False, counterexample={'A': 'MUUM'},"
            " assignments_checked=3, note='A == [A]')",
        ),
        (
            LawSuiteReport("lof_appendix_a", (law,)),
            "LawSuiteReport(suite='lof_appendix_a', checks=(LawCheck(name='A3',"
            " holds=True, counterexample=None, assignments_checked=16, note=''),))",
        ),
        (
            cell,
            "DistCell(op1='or', op2='and', trivial=False, holds=True,"
            " counterexample=None, assignments_checked=4096)",
        ),
        (
            DistributionReport((cell,)),
            "DistributionReport(cells=(DistCell(op1='or', op2='and', trivial=False,"
            " holds=True, counterexample=None, assignments_checked=4096),))",
        ),
        (
            DemoReport(True, True, False),
            "DemoReport(demo1_holds=True, demo2_template_holds=True,"
            " demo2_printed_holds=False)",
        ),
        (
            AssertionReport((failed,)),
            "AssertionReport(checks=(LawCheck(name='L1', holds=False,"
            " counterexample={'A': 'MUUM'}, assignments_checked=3, note='A == [A]'),))",
        ),
        (
            Rule("R", ("alpha",), print, print),
            "Rule(id='R', params=('alpha',), lhs=<built-in function print>,"
            " rhs=<built-in function print>)",
        ),
        (
            step,
            "Step(rule='A3-Reflexion', direction='ltr', pos=(0, 1), subst={},"
            " params={}, result=None)",
        ),
        (
            Step("Q1-SQR", "rtl", (), {"A": Var("B")}, {"alpha": "i"}, Mark("", A)),
            "Step(rule='Q1-SQR', direction='rtl', pos=(), subst={'A': Var(name='B')},"
            " params={'alpha': 'i'}, result=Mark(sub='', body=Var(name='A')))",
        ),
        (
            Derivation("d", Mark("", Mark("", A)), (step,), A),
            "Derivation(name='d',"
            " start=Mark(sub='', body=Mark(sub='', body=Var(name='A'))),"
            " steps=(Step(rule='A3-Reflexion', direction='ltr', pos=(0, 1), subst={},"
            " params={}, result=None),), end=Var(name='A'))",
        ),
        (
            report,
            "StepReport(index=0, rule='A3-Reflexion', applied=True, error=None,"
            " matches_recorded=True, semantic_ok=True, term='A')",
        ),
        (
            DerivationReport("d", (report,), True),
            "DerivationReport(name='d', steps=(StepReport(index=0, rule='A3-Reflexion',"
            " applied=True, error=None, matches_recorded=True, semantic_ok=True,"
            " term='A'),), end_matches=True)",
        ),
        (gen, "s1'"),
        (BraidWord(3, (gen, BraidGen(2, 1))), "BraidWord(3, \"s1' s2\")"),
        (relation, "RelationCheck(name='s1 s2 s1 == s2 s1 s2', holds=True)"),
        (
            BraidRelationReport(3, (relation,)),
            "BraidRelationReport(arity=3, checks=(RelationCheck(name='s1 s2 s1 =="
            " s2 s1 s2', holds=True),))",
        ),
    ]


CASES = _cases()
IDS = [f"{type(value).__name__}-{i}" for i, (value, _) in enumerate(CASES)]


def _rebuilt(value):
    """An equal instance that shares no identity with value."""
    return type(value)(*(getattr(value, name) for name in value._fields))


def test_every_record_class_is_covered():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    covered = {type(value) for value, _ in CASES}
    assert covered == set(subclasses(Record))
    assert len(covered) == 28


@pytest.mark.parametrize("value, text", CASES, ids=IDS)
def test_repr_is_unchanged(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, text", CASES, ids=IDS)
def test_fields_are_frozen(value, text):
    for name in value._fields or ("anything",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("value, text", CASES, ids=IDS)
def test_equal_instances_compare_and_hash_alike(value, text):
    twin = _rebuilt(value)
    assert twin is not value
    assert twin == value and not twin != value
    assert value != (value,) and value != None  # noqa: E711
    try:
        fields_hash = hash(tuple(getattr(value, name) for name in value._fields))
    except TypeError:  # a field holds a dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(twin) == hash(value) == fields_hash


def test_hash_and_equality_follow_the_fields():
    assert len({Mark("i", Var("A")), Mark("i", Var("A")), Mark("j", Var("A"))}) == 2
    assert Mark("i", Var("A")) != Power("i", Var("A"), 2)
    assert Void() == Void() and hash(Void()) == hash(Void())
    assert QValue(3) != BFValue(3)
    assert hash(QValue(3)) == hash((3,))


def test_qvalue_order():
    assert sorted(reversed(ALL_QVALUES)) == list(ALL_QVALUES)
    assert QValue(2) < QValue(3) <= QValue(3) and QValue(4) > QValue(3) >= QValue(3)
    with pytest.raises(TypeError):
        QValue(2) < 3  # noqa: B015


def test_step_defaults_are_fresh_per_instance():
    a = Step("A3-Reflexion", "ltr", ())
    b = Step("A3-Reflexion", "ltr", ())
    assert a.subst == {} and a.params == {} and a.result is None
    assert a.subst is not b.subst and a.params is not b.params
    assert LawCheck("A3", True, None, 16).note == ""


def test_fields_by_keyword_and_bad_arguments():
    assert Step(rule="r", direction="ltr", pos=(), result=Var("A")).result == Var("A")
    assert LawCheck("A3", True, None, 16, note="n").note == "n"
    with pytest.raises(TypeError, match="missing field 'pos'"):
        Step("r", "ltr")
    with pytest.raises(TypeError):
        Step("r", "ltr", (), rule="again")
    with pytest.raises(TypeError):
        RelationCheck("x", True, "extra")
    with pytest.raises(TypeError):
        Var()


def test_validation_still_runs():
    with pytest.raises(ValueError, match="tuple slot is not a plain-LoF expression"):
        Tuple4((Var("a"), Mark("i", Var("b")), Void(), Void()))
    with pytest.raises(ValueError):
        QValue(16)
    with pytest.raises(ValueError):
        SignedPerm((1, 1), (False, False))
    with pytest.raises(ValueError):
        SourceSpan(2, 1)
    with pytest.raises(ValueError):
        BFValue(4)
    with pytest.raises(ValueError):
        BraidGen(1, 0)
    with pytest.raises(ValueError):
        BraidWord(2, (BraidGen(2, 1),))


@pytest.mark.parametrize("value, text", CASES, ids=IDS)
def test_every_record_is_truthy(value, text):
    assert value


@pytest.mark.parametrize("value, text", CASES, ids=IDS)
def test_copies_and_pickles_are_equal(value, text):
    twins = copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))
    for twin in twins:
        assert type(twin) is type(value)
        assert twin == value and repr(twin) == text


@pytest.mark.parametrize("value, text", CASES, ids=IDS)
def test_no_order_across_classes(value, text):
    fields = tuple(getattr(value, name) for name in value._fields)
    other_class = next(v for v, _ in CASES if type(v) is not type(value))
    assert value != fields and fields != value
    for other in (other_class, fields, (), 0, None):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(value, other)
            with pytest.raises(TypeError):
                compare(other, value)


def test_no_order_between_qvalue_and_pair_value():
    with pytest.raises(TypeError):
        QValue(2) < BFValue(3)  # noqa: B015

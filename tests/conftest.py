import os
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from qcalc.kernel import ALL_QVALUES, Q8Op
from qcalc.textio import (
    VOID,
    ExpApply,
    Expr,
    Tuple4,
    Var,
    juxt,
    mark,
    power,
)

# pytest puts src on sys.path (pyproject.toml); the python processes that
# tests start import qcalc from the same checkout.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)

qvalues = st.sampled_from(ALL_QVALUES)
q8_ops = st.sampled_from(list(Q8Op))

Q_VARS = ("A", "B", "C")
LOF_VARS = ("a", "b", "c")

lof_exprs = st.recursive(
    st.one_of(
        st.just(VOID),
        st.sampled_from([Var(n) for n in LOF_VARS]),
    ),
    lambda children: st.one_of(
        children.map(mark),
        st.lists(children, min_size=2, max_size=3).map(lambda ps: juxt(*ps)),
    ),
    max_leaves=6,
)

q_exprs = st.recursive(
    st.one_of(
        st.just(VOID),
        st.sampled_from([Var(n) for n in Q_VARS]),
        st.builds(Tuple4, st.tuples(lof_exprs, lof_exprs, lof_exprs, lof_exprs)),
    ),
    lambda children: st.one_of(
        st.builds(lambda b, s: mark(b, s), children, st.sampled_from(["", "i", "j", "k"])),
        st.lists(children, min_size=2, max_size=3).map(lambda ps: juxt(*ps)),
        st.builds(
            lambda s, b, n: power(s, b, n),
            st.sampled_from(["i", "j", "k"]),
            children,
            st.integers(min_value=2, max_value=5),
        ),
    ),
    max_leaves=8,
)

# q_exprs builds no exponent application; these terms add them over any
# base, including the juxtaposed bases that only substitution produces, and
# with closed and open exponents.
exp_exprs = st.recursive(
    q_exprs,
    lambda children: st.one_of(
        st.builds(ExpApply, children, children),
        st.lists(children, min_size=2, max_size=3).map(lambda ps: juxt(*ps)),
    ),
    max_leaves=4,
)

full_envs = st.fixed_dictionaries(
    {
        **{n: qvalues for n in Q_VARS},
        **{n: st.booleans() for n in LOF_VARS},
    }
)


def random_lof_expr(rng: random.Random, depth: int = 3) -> Expr:
    kind = rng.randrange(5 if depth > 0 else 2)
    if kind == 0:
        return VOID
    if kind == 1:
        return Var(rng.choice(LOF_VARS))
    if kind == 2:
        return mark(random_lof_expr(rng, depth - 1))
    return juxt(*(random_lof_expr(rng, depth - 1) for _ in range(rng.randint(2, 3))))


def random_q_expr(rng: random.Random, depth: int = 4) -> Expr:
    kind = rng.randrange(7 if depth > 0 else 3)
    if kind == 0:
        return VOID
    if kind == 1:
        return Var(rng.choice(Q_VARS))
    if kind == 2:
        return Tuple4(tuple(random_lof_expr(rng, 2) for _ in range(4)))
    if kind == 3:
        return mark(random_q_expr(rng, depth - 1), rng.choice(["", "i", "j", "k"]))
    if kind == 4:
        return power(
            rng.choice(["i", "j", "k"]), random_q_expr(rng, depth - 1), rng.randint(2, 5)
        )
    return juxt(*(random_q_expr(rng, depth - 1) for _ in range(rng.randint(2, 3))))


def random_expr_pair(rng: random.Random) -> tuple[Expr, Expr]:
    """A pair over at most three tuple-level and three slot variables;
    roughly half the pairs share structure so both verdicts occur."""
    a = random_q_expr(rng)
    if rng.random() < 0.5:
        b = random_q_expr(rng)
    else:
        from qcalc.textio import substitute

        b = substitute(a, {rng.choice(Q_VARS): random_q_expr(rng, 2)})
    return a, b


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20250808)


# Per-criterion result lines from the acceptance module, echoed after the
# run so they are visible regardless of output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

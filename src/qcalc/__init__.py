"""qcalc: a 16-valued mark calculus on 4-tuples of two-state values.

The eight mark operators form the quaternion group; this package provides
the linear text syntax, finite-domain evaluation, an exhaustive
equivalence decider with named law suites, a rule database with a
derivation checker, the braid-word representation of the operators, and
the interference-pattern slot constructions.
"""

from .kernel import (
    ALL_QVALUES,
    LoFValue,
    MARKED,
    Q8Op,
    QValue,
    SignedPerm,
    UNMARKED,
    op_value,
    q8_apply,
    q8_inverse,
    q8_mul,
    q8_power,
    q8_to_signed_perm,
)
from .textio import (
    Expr,
    ExpApply,
    Juxt,
    Mark,
    ParseError,
    Power,
    SourceSpan,
    Tuple4,
    Var,
    Void,
    VOID,
    ac_equal,
    parse,
    parse_assertion,
    parse_qlf,
    print_expr,
    substitute,
)
from .semantics import (
    ALL_BFVALUES,
    ALL_CONNECTIVES,
    BFValue,
    CONNECTIVES,
    Env,
    EvalError,
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
from .verifier import (
    BudgetExceeded,
    EquivResult,
    LawSuiteReport,
    SUITES,
    check_assertions,
    check_equiv,
    distribution_matrix,
    run_law_suite,
    distribution_demos,
)
from .rewrite import (
    Derivation,
    DerivationReport,
    RewriteError,
    Rule,
    Step,
    apply_rule,
    check_derivation,
    find_applications,
    rules,
    validate_rules,
)
from .derivations import builtin_derivation, builtin_derivations
from .braid import (
    BraidGen,
    BraidWord,
    braid_diagram,
    braid_to_signed_perm,
    parse_braid_word,
    quaternion_braid_word,
    sigma_apply,
    verify_braid_relations,
    word_apply,
    word_to_text,
)
from .constructor import (
    INTERFERENCE_NAMES,
    interference,
    interference_expr,
    mark_slot,
    permute_expr,
)

__version__ = "0.1.0"

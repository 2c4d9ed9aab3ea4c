"""qcalc: a 16-valued mark calculus on 4-tuples of two-state values.

The eight mark operators form the quaternion group; this package provides
the linear text syntax, finite-domain evaluation, an exhaustive
equivalence decider with named law suites, a rule database with a
derivation checker, the braid-word representation of the operators, and
the interference-pattern slot constructions.

``import qcalc`` loads none of the modules.  An exported name is looked
up on first use (PEP 562) and imports its module then, so a program pays
only for the layers it touches; importing a module, by either route, binds
all of its exported names here, as an eager package would.
"""

import sys
from types import ModuleType

__version__ = "0.1.0"

# Each exported name, by the module that defines it.
_EXPORTS = {
    "kernel": (
        "ALL_QVALUES", "LoFValue", "MARKED", "Q8Op", "QValue", "SignedPerm",
        "UNMARKED", "op_value", "q8_apply", "q8_inverse", "q8_mul", "q8_power",
        "q8_to_signed_perm",
    ),
    "textio": (
        "Expr", "ExpApply", "Juxt", "Mark", "ParseError", "Power", "SourceSpan",
        "Tuple4", "Var", "Void", "VOID", "ac_equal", "parse", "parse_assertion",
        "parse_qlf", "print_expr", "substitute",
    ),
    "semantics": (
        "ALL_BFVALUES", "ALL_CONNECTIVES", "BFValue", "CONNECTIVES", "Env",
        "EvalError", "apply_op", "apply_op_power", "bf_apply", "bf_evaluate",
        "connective", "embed_bf", "evaluate", "juxtapose", "solve_bf_embeddings",
    ),
    "verifier": (
        "BudgetExceeded", "EquivResult", "LawSuiteReport", "SUITES",
        "check_assertions", "check_equiv", "distribution_matrix", "run_law_suite",
        "distribution_demos",
    ),
    "rewrite": (
        "Derivation", "DerivationReport", "RewriteError", "Rule", "Step",
        "apply_rule", "check_derivation", "find_applications", "rules",
        "validate_rules",
    ),
    "derivations": ("builtin_derivation", "builtin_derivations"),
    "braid": (
        "BraidGen", "BraidWord", "braid_diagram", "braid_to_signed_perm",
        "parse_braid_word", "quaternion_braid_word", "sigma_apply",
        "verify_braid_relations", "word_apply", "word_to_text",
    ),
    "constructor": (
        "INTERFERENCE_NAMES", "interference", "interference_expr", "mark_slot",
        "permute_expr",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


class _Package(ModuleType):
    def __setattr__(self, name: str, value: object) -> None:
        # The import system sets each submodule here once it has loaded.
        super().__setattr__(name, value)
        for export in _EXPORTS.get(name, ()):
            super().__setattr__(export, getattr(value, export))


sys.modules[__name__].__class__ = _Package


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in -X importtime.
    __import__(f"{__name__}.{module}")
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

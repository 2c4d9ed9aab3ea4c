"""The package's lazy exports and what each entry point imports.

Import sets are observed in fresh interpreters, since this test process
has long since imported every module.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcalc

SRC = Path(__file__).resolve().parent.parent / "src"

# The names the package exported when it imported every module eagerly,
# by defining module.
EXPORTED = {
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
ALL_NAMES = [name for names in EXPORTED.values() for name in names]
MODULES = (*EXPORTED, "oracle", "cli")


def fresh(code: str):
    """Run code in a new interpreter and return what it prints as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("QCALC_BUDGET", None)
    prelude = (
        "import json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('qcalc'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", prelude + code],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", ALL_NAMES)
def test_export_is_the_defining_modules_object(name):
    module = next(m for m, names in EXPORTED.items() if name in names)
    assert getattr(qcalc, name) is getattr(
        importlib.import_module(f"qcalc.{module}"), name
    )


def test_all_and_dir_list_the_exports():
    assert sorted(qcalc.__all__) == sorted(ALL_NAMES)
    assert set(ALL_NAMES) <= set(dir(qcalc))
    assert qcalc.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qcalc.no_such_name  # noqa: B018
    assert not hasattr(qcalc, "SlotPermutation")


def test_import_qcalc_loads_no_module():
    assert fresh("import qcalc\nprint(json.dumps(loaded()))") == ["qcalc"]


def test_first_use_loads_only_the_defining_layers():
    got = fresh(
        "import qcalc\n"
        "assert qcalc.check_equiv('[[A]i]j', '[A]k').equivalent\n"
        "print(json.dumps(loaded()))"
    )
    assert got == ["qcalc", "qcalc.kernel", "qcalc.semantics", "qcalc.textio",
                   "qcalc.verifier"]


def test_from_import_of_submodules():
    got = fresh(
        "from qcalc import verifier, braid\n"
        "import qcalc\n"
        "assert qcalc.verifier is verifier and qcalc.braid is braid\n"
        "assert qcalc.SUITES is verifier.SUITES\n"
        "print(json.dumps(loaded()))"
    )
    assert "qcalc.verifier" in got and "qcalc.braid" in got


def test_a_loaded_module_binds_its_exports():
    """Importing a module, not only asking the package, puts its exported
    names in the package namespace."""
    got = fresh(
        "import qcalc, qcalc.braid\n"
        "print(json.dumps(sorted(n for n in vars(qcalc) if not n.startswith('_'))))"
    )
    assert set(EXPORTED["braid"]) | set(EXPORTED["kernel"]) <= set(got)
    assert not set(EXPORTED["verifier"]) & set(got)


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["equiv", "[[A]i]j == [A]k"], ["kernel", "semantics", "textio", "verifier"]),
        (["group-table"], ["kernel"]),
    ],
    ids=["equiv", "group-table"],
)
def test_command_loads_only_what_it_runs(argv, modules):
    got = fresh(
        "import io, contextlib\n"
        "from qcalc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(json.dumps(loaded()))"
    )
    assert got == ["qcalc", "qcalc.cli"] + [f"qcalc.{m}" for m in modules]


def test_no_module_imports_dataclasses():
    added = fresh(
        "before = set(sys.modules)\n"
        f"for m in {list(MODULES)!r}:\n"
        "    __import__('qcalc.' + m)\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    assert "dataclasses" not in added
    assert {f"qcalc.{m}" for m in MODULES} <= set(added)

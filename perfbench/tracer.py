"""Boundary tracer for the traced run.

Each public function in BOUNDARIES is replaced, wherever a `qcalc` module's
namespace holds it, by a wrapper that records one span per call: the
function, start and end (perf_counter_ns) and the enclosing span.  A
function that calls itself (as `evaluate` and `print_expr` do) keeps its
own name in its defining module, so its recursion runs the original
function at no cost; calls to it from elsewhere in that module (such as
`canonical_text` calling `print_expr`) are then timed as part of their
caller.  A call that re-enters a boundary through another function is
passed straight through, so one span covers one call from another layer.
Spans stay in memory until `dump` writes them out;
`summarize` turns span files into per-function calls, self time (span
minus its child spans) and the counts kept at the boundaries.

A boundary that a later version removes or renames is listed as absent.
"""

from __future__ import annotations

import dis
import functools
import importlib
import json
import sys
import time
from statistics import median

BOUNDARIES = (
    "textio.parse",
    "textio.print_expr",
    "textio.canonical_text",
    "textio.ac_equal",
    "semantics.evaluate",
    "semantics.connective",
    "verifier.check_equiv",
    "verifier.run_law_suite",
    "verifier.distribution_matrix",
    "verifier.check_assertions",
    "rewrite.validate_rules",
    "rewrite.find_applications",
    "rewrite.apply_rule",
    "rewrite.check_derivation",
    "derivations.builtin_derivations",
    "braid.verify_braid_relations",
    "constructor.verify_construction",
    "cli.main",
)

# Boundaries whose arguments or results are kept for counts made in dump.
_KEEP = {"textio.parse", "verifier.check_equiv", "rewrite.validate_rules",
         "rewrite.check_derivation", "derivations.builtin_derivations"}


def import_modules() -> dict:
    """Import the defining module of each boundary; None where it is gone."""
    out = {}
    for module_name in dict.fromkeys(name.split(".")[0] for name in BOUNDARIES):
        try:
            out[module_name] = importlib.import_module(f"qcalc.{module_name}")
        except ImportError:
            out[module_name] = None
    return out


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.absent: list[str] = []
        self.originals: dict[str, object] = {}
        self.spans: list[list[int]] = []  # [function, parent, start, end, returned]
        self.kept: list[tuple] = []
        self._stack = [-1]  # open span indices, over a sentinel
        self._stack_fn = [-1]
        self._patches: list[tuple] | None = None  # (module, key, original, wrapper)

    def install(self) -> None:
        """Put the wrappers in place; the first call makes them."""
        if self._patches is None:
            self._patches = self._make_patches()
        for mod, key, _, wrapper in self._patches:
            setattr(mod, key, wrapper)

    def remove(self) -> None:
        """Put the original functions back."""
        for mod, key, original, _ in self._patches or ():
            setattr(mod, key, original)

    def _make_patches(self) -> list[tuple]:
        patches = []
        modules = import_modules()
        for name in BOUNDARIES:
            module_name, attr = name.split(".")
            module = modules[module_name]
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            self.originals[name] = original
            wrapper = self._wrap(len(self.names), original, name in _KEEP)
            self.names.append(name)
            recursive = _calls_itself(original, attr)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "qcalc" or mod_name.startswith("qcalc.")):
                    continue
                if mod is module and recursive:
                    continue
                patches += [(mod, key, original, wrapper)
                            for key, value in vars(mod).items() if value is original]
        return patches

    def _wrap(self, fid: int, fn, keep: bool):
        stack, stack_fn, spans, kept = self._stack, self._stack_fn, self.spans, self.kept
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack_fn[-1] == fid:
                return fn(*args, **kwargs)
            span = [fid, stack[-1], 0, 0, 0]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            stack_fn.append(fid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                span[2] = t0
                stack.pop()
                stack_fn.pop()
            span[4] = 1
            if keep:
                kept.append((idx, args, result))
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write the spans, in call order, and the kept counts as JSON."""
        out = {"names": self.names, "absent": self.absent,
               "spans": self.spans, "counts": self._counts()}
        with open(path, "w") as fh:
            fh.write(json.dumps(out))  # json.dump to a file is several times slower

    def _counts(self) -> dict:
        parse = self.originals.get("textio.parse")
        textio = sys.modules.get("qcalc.textio")
        free_vars = getattr(textio, "free_vars", None)
        counts: dict[str, list] = {"parse_nodes": [], "equiv": [], "instances": [],
                                   "derivation_steps": [], "builtin_steps": []}
        nodes: dict[str, int] = {}
        for idx, args, result in self.kept:
            name = self.names[self.spans[idx][0]]
            if name == "textio.parse":
                if args[0] not in nodes:
                    nodes[args[0]] = _count_nodes(result)
                counts["parse_nodes"].append(nodes[args[0]])
            elif name == "verifier.check_equiv" and free_vars is not None:
                sides = [parse(x) if isinstance(x, str) else x for x in args[:2]]
                qvars: set = set()
                svars: set = set()
                for side in sides:
                    q, s = free_vars(side)
                    qvars |= q
                    svars |= s
                space = 16 ** len(qvars) * 2 ** len(svars)
                counts["equiv"].append(
                    [idx, len(qvars), space, result.assignments_checked])
            elif name == "rewrite.validate_rules":
                counts["instances"].append(int(result))
            elif name == "rewrite.check_derivation":
                counts["derivation_steps"].append(len(result.steps))
            elif name == "derivations.builtin_derivations":
                counts["builtin_steps"].append(sum(len(d.steps) for d in result))
        return counts


def _calls_itself(fn, name: str) -> bool:
    """Whether fn's code, or code nested in it, looks up `name` as a global."""
    code = getattr(getattr(fn, "__wrapped__", fn), "__code__", None)
    todo = [code] if code is not None else []
    while todo:
        code = todo.pop()
        if any(ins.opname == "LOAD_GLOBAL" and ins.argval == name
               for ins in dis.get_instructions(code)):
            return True
        todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return False


def _count_nodes(expr) -> int:
    count = 0
    todo = [expr]
    while todo:
        node = todo.pop()
        count += 1
        for attr in ("body", "parts", "slots", "base", "exponent"):
            child = getattr(node, attr, None)
            if isinstance(child, tuple):
                todo.extend(child)
            elif child is not None and not isinstance(child, (int, str)):
                todo.append(child)
    return count


def summarize(paths, ops: int) -> tuple[dict, list]:
    """Per-layer metrics from span files, normalized per operation where
    the unit says /op, and the sorted list of absent boundaries."""
    calls: dict[str, int] = dict.fromkeys(BOUNDARIES, 0)
    self_ns: dict[str, int] = dict.fromkeys(BOUNDARIES, 0)
    ok: dict[str, int] = dict.fromkeys(BOUNDARIES, 0)
    absent: set[str] = set()
    equiv = []
    parse_nodes = 0
    instances, derivation_steps, builtin_steps = [], 0, []
    for path in paths:
        with open(path) as fh:
            d = json.load(fh)
        absent |= set(d["absent"])
        spans = d["spans"]
        dur = [end - start for _, _, start, end, _ in spans]
        child = [0] * len(dur)
        for i, (_, parent, _, _, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]
        for i, (f, _, _, _, returned) in enumerate(spans):
            name = d["names"][f]
            calls[name] += 1
            self_ns[name] += dur[i] - child[i]
            ok[name] += returned
        c = d["counts"]
        parse_nodes += sum(c["parse_nodes"])
        equiv += [(k, dur[idx], space, checked) for idx, k, space, checked in c["equiv"]]
        instances += c["instances"]
        derivation_steps += sum(c["derivation_steps"])
        builtin_steps += c["builtin_steps"]

    m: dict[str, tuple[float, str]] = {}
    ops = max(ops, 1)
    for name in BOUNDARIES:
        m[f"{name}.calls"] = (calls[name] / ops, "count/op")
        m[f"{name}.self_ms"] = (self_ns[name] / 1e6 / ops, "ms/op")
    parse_s = self_ns["textio.parse"] / 1e9
    m["textio.parse.nodes_per_s"] = (parse_nodes / parse_s if parse_s else 0.0, "1/s")
    for k in range(7):
        durs = [dur for n, dur, _, _ in equiv if n == k]
        m[f"verifier.check_equiv.n{k}_ms"] = (median(durs) / 1e6 if durs else 0.0, "ms")
    equiv_s = sum(dur for _, dur, _, _ in equiv) / 1e9
    space = sum(sp for _, _, sp, _ in equiv)
    m["verifier.rows_per_s"] = (space / equiv_s if equiv_s else 0.0, "1/s")
    m["verifier.useful_ratio"] = (
        sum(ch for _, _, _, ch in equiv) / space if space else 0.0, "ratio")
    m["rewrite.validate_rules.instances"] = (max(instances, default=0), "count")
    applied = calls["rewrite.apply_rule"]
    m["rewrite.apply_rule.hit_ratio"] = (
        ok["rewrite.apply_rule"] / applied if applied else 0.0, "ratio")
    m["rewrite.check_derivation.steps"] = (derivation_steps / ops, "count/op")
    m["derivations.builtin_derivations.steps"] = (max(builtin_steps, default=0), "count")
    return m, sorted(absent)

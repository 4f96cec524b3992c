"""Span tracing of cohist's modules from outside the package.

`Tracer.install` replaces each traced function with a wrapper, under every
name it is reachable by: the defining module, and every other cohist module
that imported it by name (`cli` and `models` hold their own references to
`decoherence_functional`, `cli` to `parse` and `resolve`).  Methods are
wrapped on their class.  Spans are kept in memory as
(id, parent id, name, start, end) and written out at the end; self times are
derived from them afterwards.
"""

from __future__ import annotations

import functools
import inspect
import json
import pathlib
import sys
import time

# (defining module, attribute path, span name).  Several functions may share
# a span name; a span name is a per-layer metric with the suffix "_s".
TRACED = (
    ("cli", "run_text", "cli.run_text"),
    ("cli", "execute", "cli.execute"),
    ("cli", "render_machine", "cli.render"),
    ("cli", "render_human", "cli.render"),
    ("scenario", "parse", "scenario.parse"),
    ("scenario", "resolve", "scenario.resolve"),
    ("operators", "Operator.__init__", "operators.construct"),
    ("framework", "ProjectiveDecomposition.__init__", "framework.pd_build"),
    ("framework", "compatible", "framework.query"),
    ("framework", "common_refinement", "framework.query"),
    ("framework", "refines", "framework.query"),
    ("histories", "product_family", "histories.build"),
    ("histories", "fixed_initial_family", "histories.build"),
    ("histories", "unitary_family", "histories.build"),
    ("histories", "raw_family", "histories.build"),
    ("histories", "HistoryFamily.validate", "histories.validate"),
    ("histories", "family_compatible", "histories.compat"),
    ("histories", "HistoryFamily.select", "histories.select"),
    ("dynamics", "decoherence_functional", "dynamics.functional"),
    ("dynamics", "chain_operator", "dynamics.chain"),
    ("dynamics", "sample_history", "dynamics.sample"),
    ("dynamics", "conditional_probability", "dynamics.query"),
    ("dynamics", "probability", "dynamics.query"),
    ("dynamics", "event_weight", "dynamics.query"),
    ("models", "einstein_locality_check", "models.locality"),
    ("models", "LocalityExperiment.__init__", "models.locality"),
    ("models", "LocalityExperiment.dynamics", "models.locality"),
    ("models", "LocalityExperiment.family", "models.locality"),
    ("models", "povm_from_ancilla", "models.povm"),
)

ROOT_SPAN = "cli.run_text"


class Counters:
    """Work counts taken at the traced boundaries, per workload pass."""

    def __init__(self):
        self.values = {
            "operators.validated": 0,
            "framework.pd_builds": 0,
            "histories.histories": 0,
            "histories.validate_pairs": 0,
            "histories.dense_bytes": 0,
            "histories.compat_pairs": 0,
            "dynamics.functional_calls": 0,
            "dynamics.pairs_checked": 0,
            "dynamics.d_bytes_max": 0,
            "cli.report_bytes": 0,
        }
        self.distinct_functionals = 0
        self._scenario_keys: set = set()

    def start_scenario(self) -> None:
        self._scenario_keys = set()

    def reuse(self) -> float:
        """Distinct (family, dynamics, tolerances) triples per D computation."""
        calls = self.values["dynamics.functional_calls"]
        return self.distinct_functionals / calls if calls else 0.0

    def record(self, attr: str, bound: inspect.BoundArguments, result) -> None:
        v, a = self.values, bound.arguments
        if attr == "ProjectiveDecomposition.__init__":
            v["framework.pd_builds"] += 1
        elif attr.endswith("_family") and attr != "family_compatible":
            v["histories.histories"] += result.n
        elif attr == "HistoryFamily.validate":
            fam = a["self"]
            v["histories.validate_pairs"] += fam.n * (fam.n - 1) // 2
            v["histories.dense_bytes"] += fam.n * fam.space.total_dim ** 2 * 16
        elif attr == "family_compatible":
            v["histories.compat_pairs"] += a["f1"].n * a["f2"].n
        elif attr == "decoherence_functional":
            n = a["family"].n
            v["dynamics.functional_calls"] += 1
            v["dynamics.pairs_checked"] += n * (n - 1) // 2
            v["dynamics.d_bytes_max"] = max(v["dynamics.d_bytes_max"], n * n * 16)
            # Holding the objects keeps their identities unique for the scenario.
            key = (a["family"], a["dynamics"], a["tol_consistency"], a["floor"])
            if key not in self._scenario_keys:
                self._scenario_keys.add(key)
                self.distinct_functionals += 1
        elif attr == "run_text":
            v["cli.report_bytes"] += len(result[0].encode())


# Functions whose arguments or result feed a counter.
_COUNTED = {"ProjectiveDecomposition.__init__",
            "product_family", "fixed_initial_family", "unitary_family",
            "raw_family", "HistoryFamily.validate", "family_compatible",
            "decoherence_functional", "run_text"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters = Counters()
        self._stack: list[int] = []
        self._next_id = 0

    def install(self) -> None:
        """Wrap every TRACED function under every name it is reachable by."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "cohist" or name.startswith("cohist."))]
        for module_name, attr, span in TRACED:
            owner = sys.modules[f"cohist.{module_name}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if path else getattr(owner, leaf)
            wrapped = self._wrap(original, attr, span)
            setattr(owner, leaf, wrapped)
            if not path:
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapped)

    def _wrap(self, fn, attr: str, span: str):
        tracer = self
        signature = inspect.signature(fn) if attr in _COUNTED else None
        is_root = span == ROOT_SPAN
        is_operator = attr == "Operator.__init__"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            if is_root:
                tracer.counters.start_scenario()
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, span, start, end))
            if is_operator:
                # Operator(matrix, dims=None, flavor=None, tol=...): the hot
                # path, so the flavor argument is read without binding.
                flavor = args[3] if len(args) > 3 else kwargs.get("flavor")
                if flavor is not None:
                    tracer.counters.values["operators.validated"] += 1
            elif signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.counters.record(attr, bound, result)
            return result

        return traced

    def take(self) -> tuple[list, Counters]:
        """Spans and counters recorded since the last call; starts afresh."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters = [], Counters()
        return spans, counters


def self_times(spans: list[tuple[int, int, str, float, float]]) -> dict[str, float]:
    """Self time per span name: each span's duration minus its children's."""
    child = {}
    for _, parent, _, start, end in spans:
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (end - start)
    out: dict[str, float] = {}
    for sid, _, name, start, end in spans:
        out[name] = out.get(name, 0.0) + (end - start) - child.get(sid, 0.0)
    return out


def root_time(spans) -> float:
    return sum(end - start for _, parent, _, start, end in spans if parent < 0)


def write_spans(path: pathlib.Path, passes: list[list]) -> None:
    """One JSON document: a list of passes, each a list of span records."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "name", "start_s", "end_s"],
                   "passes": passes}, fh, separators=(",", ":"))

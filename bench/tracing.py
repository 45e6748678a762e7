"""In-process layer tracing for ``uncrel.cli.main``.

Nothing under ``src/`` is edited.  :class:`Tracer` replaces, in the
namespace of the calling module, each function one module takes from
another with a timed wrapper, and puts the originals back afterwards.
Spans close into in-memory aggregates per span name: call count, total
time, and self time, which is the span's duration minus the time its
child spans cover.  Work a wrapped function does in unwrapped code counts
as that function's self time.

A layer is a module.  ``WRAPPED`` lists ``(module, attribute, span)``:
the attribute of ``module`` that is replaced and the span it records.  An
attribute ``ref.name`` replaces ``name`` in a copy of the module that
``module`` refers to as ``ref``, and points ``ref`` at the copy.
A name that the program no longer has is skipped, and a metric all of
whose names are missing is left out of the report rather than reported
as zero.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import types
from collections import Counter, defaultdict
from time import perf_counter

WRAPPED = (
    # cli -> harness, relations, qubit; cli's own loaders
    ("uncrel.cli", "run_verify", "harness.loop"),
    ("uncrel.cli", "run_sweep", "harness.loop"),
    ("uncrel.cli", "emit", "harness.emit"),
    ("uncrel.cli", "evaluate_all", "relations.evaluate_all"),
    ("uncrel.cli", "bloch_to_state", "qubit"),
    ("uncrel.cli", "stokes_to_density", "qubit"),
    ("uncrel.cli", "pauli_triple", "qubit"),
    ("uncrel.cli", "_load_state", "cli.load"),
    ("uncrel.cli", "_load_observables", "cli.load"),
    # harness -> core, relations, qubit, shots
    ("uncrel.harness", "random_pure_state", "core.generate"),
    ("uncrel.harness", "random_observable", "core.generate"),
    ("uncrel.harness", "evaluate_all", "relations.evaluate_all"),
    ("uncrel.harness", "maccone_pati_orthogonal", "relations.pairwise"),
    ("uncrel.harness", "bloch_to_state", "qubit"),
    ("uncrel.harness", "closed_form_lhs", "qubit"),
    ("uncrel.harness", "closed_form_rhs", "qubit"),
    ("uncrel.harness", "moments_from_angles", "qubit"),
    ("uncrel.harness", "pauli_triple", "qubit"),
    ("uncrel.harness", "derive_seed", "shots.derive_seed"),
    ("uncrel.harness", "simulate_counts", "shots.simulate"),
    ("uncrel.harness", "bootstrap_bounds", "shots.bootstrap"),
    # relations' pairwise forms, called through its own globals
    ("uncrel.relations", "robertson", "relations.pairwise"),
    ("uncrel.relations", "maccone_pati_orthogonal", "relations.pairwise"),
    ("uncrel.relations", "maccone_pati_deviation", "relations.pairwise"),
    # relations -> core workhorses, called as ``core.<name>``; only the
    # ``core`` reference inside relations is replaced, so core's own calls
    # (as from shots through ``expectation``) stay untraced
    ("uncrel.relations", "core._expect_vec", "core.moments"),
    ("uncrel.relations", "core._expect_rho", "core.moments"),
    ("uncrel.relations", "core._var_vec", "core.moments"),
    ("uncrel.relations", "core._var_rho", "core.moments"),
    ("uncrel.relations", "core._comm_vec", "core.moments"),
    ("uncrel.relations", "core._comm_rho", "core.moments"),
    ("uncrel.relations", "core.deviation_state", "core.moments"),
    # shots -> qubit
    ("uncrel.shots", "closed_form_bounds", "qubit"),
    ("uncrel.shots", "closed_form_lhs", "qubit"),
    ("uncrel.shots", "closed_form_rhs", "qubit"),
    ("uncrel.shots", "moments_from_expectations", "qubit"),
    ("uncrel.shots", "pauli", "qubit"),
)

ROOT_SPAN = "cli.main"

#: Per-layer metric -> (what is summed, over which spans, unit).
LAYER_METRICS = {
    "shots.derive_seed.calls": ("calls", ("shots.derive_seed",), "count"),
    "shots.derive_seed.self_s": ("self", ("shots.derive_seed",), "s"),
    "core.generate.calls": ("calls", ("core.generate",), "count"),
    "core.generate.self_s": ("self", ("core.generate",), "s"),
    "core.moments.calls": ("calls", ("core.moments",), "count"),
    "core.moments.self_s": ("self", ("core.moments",), "s"),
    "relations.self_s": ("self", ("relations.evaluate_all", "relations.pairwise"), "s"),
    "relations.evaluate_all.calls": ("calls", ("relations.evaluate_all",), "count"),
    "relations.pairwise.self_s": ("self", ("relations.pairwise",), "s"),
    "harness.self_s": ("self", ("harness.loop",), "s"),
    "harness.emit.self_s": ("self", ("harness.emit",), "s"),
    "harness.emit.bytes": ("units", ("harness.emit",), "bytes"),
    "qubit.calls": ("calls", ("qubit",), "count"),
    "qubit.self_s": ("self", ("qubit",), "s"),
    "shots.simulate.self_s": ("self", ("shots.simulate",), "s"),
    "shots.bootstrap.self_s": ("self", ("shots.bootstrap",), "s"),
    "shots.bootstrap.replicates": ("units", ("shots.bootstrap",), "count"),
    "cli.self_s": ("self", (ROOT_SPAN, "cli.load"), "s"),
    "cli.load.calls": ("calls", ("cli.load",), "count"),
}


def _unit_counter(span: str, fn):
    """How a span counts its units (``LAYER_METRICS`` kind "units"), if it does."""
    if span == "harness.emit":
        # The rendered text is ASCII, so its length is its size in bytes.
        return lambda args, kwargs, result: len(result)
    if span == "shots.bootstrap":
        signature = inspect.signature(fn)

        def resamples(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return int(bound.arguments["resamples"])

        return resamples
    return None


def _resolve(module_name: str, attr: str):
    """``(object holding the name, name, current value or None)``."""
    holder = importlib.import_module(module_name)
    *refs, name = attr.split(".")
    for ref in refs:
        holder = getattr(holder, ref, None)
    return holder, name, getattr(holder, name, None)


class Tracer:
    """Aggregated spans of every wrapped call while installed."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.units = Counter()
        self._children = []
        self._saved = []
        self.present = {span for module, attr, span in WRAPPED if _resolve(module, attr)[2] is not None}

    def wrap(self, span: str, fn):
        measure = _unit_counter(span, fn)
        children = self._children
        calls, self_s, units = self.calls, self.self_s, self.units

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                calls[span] += 1
                self_s[span] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
            if measure is not None:
                units[span] += measure(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        views = {}
        for module_name, attr, span in WRAPPED:
            holder, name, original = _resolve(module_name, attr)
            if original is None:
                continue
            if "." in attr:
                module = importlib.import_module(module_name)
                ref = attr.split(".")[0]
                if (module_name, ref) not in views:
                    views[module_name, ref] = types.SimpleNamespace(**vars(holder))
                    self._saved.append((module, ref, holder))
                    setattr(module, ref, views[module_name, ref])
                holder = views[module_name, ref]
            else:
                self._saved.append((holder, name, original))
            setattr(holder, name, self.wrap(span, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics per traced round, as ``{name: (value, unit)}``."""
        have = self.present | {ROOT_SPAN}
        tables = {"calls": self.calls, "self": self.self_s, "units": self.units}
        out = {}
        for name, (kind, spans, unit) in LAYER_METRICS.items():
            if any(s in have for s in spans):
                out[name] = (sum(tables[kind][s] for s in spans) / rounds, unit)
        if {"core.moments", "relations.evaluate_all"} <= have:
            instances = self.calls["relations.evaluate_all"]
            per = self.calls["core.moments"] / instances if instances else 0.0
            out["core.moments.per_instance"] = (per, "calls/instance")
        return out

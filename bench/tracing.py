"""Spans recorded from outside the program, around calls into dprep's layers.

A traced verification temporarily rebinds each public function listed in
``TRACED`` -- in every ``dprep`` module that holds a reference to it -- to
a wrapper that records a span and the counts named in ``HOOKS``.  The
program still calls the same functions in the same order; nothing inside
``src/dprep`` is changed.  Spans are kept in memory and written out once at
the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time

# public functions whose calls get a span; the first group are the stages
# a verification's time is split into
STAGES = {
    "tabular.read_table": "ingest",
    "privacy.BudgetLedger": "ledger_open",
    "partition.make_partition": "partition",
    "ad.compute_indicator_count": "fit",
    "am.average_overlap": "fit",
    "ad.release_count": "release",
    "am.release_overlap": "release",
    "ad.gibbs_posterior": "posterior",
    "am.posterior_nu": "posterior",
    "verify.write_json": "write",
}
TRACED = tuple(STAGES) + (
    "linmod.parse_formula",
    "verify.ad_verify",
    "verify.am_verify",
    "verify.resolve_delta",
    "verify.summarize_r_samples",
    "verify.summarize_nu_samples",
    "am.credible_interval",
    "am.invert_credible_interval",
    "am.null_assumption_lengths",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _size(path) -> int:
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


# name -> (counts taken before the call, counts taken after it); neither
# runs inside the span, so counting adds nothing to the stage's time
HOOKS = {
    "tabular.read_table": (
        lambda a, k: {"bytes": _size(_arg(a, k, 0, "path"))}, None),
    "privacy.BudgetLedger": (
        lambda a, k: {"bytes": _size(k.get("path", a[1] if len(a) > 1 else None))},
        lambda a, k, r: {"entries": len(r.entries)}),
    "ad.compute_indicator_count": (
        None, lambda a, k, r: {"fits": _arg(a, k, 4, "plan").M}),
    "am.average_overlap": (
        None, lambda a, k, r: {"fits": 2 * _arg(a, k, 4, "plan").M}),
    "ad.gibbs_posterior": (
        None, lambda a, k, r: {"sweeps": sum(_arg(a, k, 0, "released").config.mcmc)}),
    "am.posterior_nu": (
        None, lambda a, k, r: {"grid_points": _arg(a, k, 0, "released").config.grid_points}),
    "verify.write_json": (
        None, lambda a, k, r: {"bytes": _size(_arg(a, k, 0, "path"))}),
}

# custodian-only results kept (in memory only) for the oracle check
CAPTURE = {
    "partition.make_partition": lambda r: {"plan": r},
    "ad.compute_indicator_count": lambda r: {"S": r.S},
    "am.average_overlap": lambda r: {"nu_bar": r.nu_bar},
}


class Tracer:
    """Span recorder for one run; ``rebound()`` routes dprep's calls
    through it for the duration of a ``with`` block."""

    def __init__(self):
        self.spans: list[dict] = []
        self.captured: dict[int, dict] = {}
        self.verification: int | None = None
        self._stack: list[int] = []
        self._bindings = self._find_bindings()

    @contextlib.contextmanager
    def span(self, name: str, counts: dict | None = None):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "verification": self.verification, "counts": counts or {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        before, after = HOOKS.get(name, (None, None))
        capture = CAPTURE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = before(args, kwargs) if before else {}
            with self.span(name, counts) as rec:
                result = fn(*args, **kwargs)
            if after:
                rec["counts"].update(after(args, kwargs, result))
            if capture and self.verification is not None:
                self.captured.setdefault(self.verification, {}).update(capture(result))
            return result

        return traced

    def _find_bindings(self) -> list[tuple]:
        modules = [m for n, m in sys.modules.items() if n == "dprep" or n.startswith("dprep.")]
        bindings = []
        for name in TRACED:
            layer, attr = name.split(".")
            original = getattr(sys.modules[f"dprep.{layer}"], attr)
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        bindings.append((module, key, original, wrapped))
        return bindings

    @contextlib.contextmanager
    def rebound(self):
        for module, key, _, wrapped in self._bindings:
            setattr(module, key, wrapped)
        try:
            yield
        finally:
            for module, key, original, _ in self._bindings:
                setattr(module, key, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class NullTracer:
    """Stand-in for untraced runs: spans cost one no-op context manager."""

    verification = None

    def span(self, name, counts=None):
        return contextlib.nullcontext()


def layer_summary(spans: list[dict], verifications: list[int]) -> dict:
    """Per-verification stage times, their remainder, and counts.

    Times are means over the traced verifications, so the stage times
    plus ``other`` add up exactly to the mean traced verification time.
    """
    n = len(verifications)
    wanted = set(verifications)
    stage_time = {stage: 0.0 for stage in set(STAGES.values())}
    per_call: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    total = 0.0
    for rec in spans:
        if rec["verification"] not in wanted:
            continue
        dt = rec["end"] - rec["start"]
        per_call.setdefault(rec["name"], []).append(dt)
        if rec["parent"] is None:
            total += dt
        if rec["name"] in STAGES:
            stage_time[STAGES[rec["name"]]] += dt
        for key, value in rec["counts"].items():
            counts[f"{rec['name']}.{key}"] = counts.get(f"{rec['name']}.{key}", 0) + value
    mean = {stage: t / n for stage, t in stage_time.items()}
    mean["total"] = total / n
    mean["other"] = mean["total"] - sum(stage_time.values()) / n
    return {
        "stage_s": mean,
        "calls": {name: {"calls_per_verification": len(v) / n, "mean_s": sum(v) / len(v)}
                  for name, v in per_call.items()},
        "counts_per_verification": {k: v / n for k, v in counts.items()},
    }

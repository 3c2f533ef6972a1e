"""Outside-in span recorder for the traced benchmark run.

Nothing inside ``classinv`` knows about tracing.  ``patched`` wraps a
fixed list of public names from the outside and puts the wrapper into
every namespace that holds the original object: ``certify`` imports
``act``, ``rref`` and ``nullspace_basis`` by name and ``cli`` imports the
certify entry points the same way, so patching only the defining module
would silently miss those call sites.  Everything is restored on exit.

Spans are kept in memory as lists ``[layer, name, start, end, parent,
job, info]``; ``parent`` indexes the same list (-1 for a root).  A
span's self time is its duration minus the durations of its direct
children: calls are synchronous and nested, so children never overlap.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYER, NAME, START, END, PARENT, JOB, INFO = range(7)


class Tracer:
    """Collects spans for one process; one job at a time."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = None

    def call(self, layer, name, fn, probe, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [layer, name, time.perf_counter(), 0.0, parent, self.job, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
            if probe is not None:
                span[INFO] = probe(args, result)
            return result
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def job_span(self, job_id):
        """Root span of one benchmark job; everything the job calls nests under it."""
        self.job = job_id
        parent = self._stack[-1] if self._stack else -1
        span = ["bench", "job", time.perf_counter(), 0.0, parent, job_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
            self.job = None

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------------------
# probes: small facts about one call, computed inside its span


def _frac_bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _probe_rref(args, result):
    rows = args[0]
    reduced, _ = result
    cells = len(rows) * (len(rows[0]) if rows else 0)
    bits = max(
        (_frac_bits(x) for part in (rows, reduced) for r in part for x in r if x), default=0
    )
    return {"cells": cells, "bits": bits}


def _probe_act(args, result):
    return {"terms_in": len(args[2].terms), "terms_out": len(result.terms)}


def _probe_kernel(args, result):
    hist = result.dim_history
    drops = sum(1 for a, b in zip(hist, hist[1:]) if b < a)
    return {"samples": result.samples_used, "cuts": len(hist) - 1, "drops": drops}


def _probe_span(args, result):
    return {"products": result.free_count}


# (layer, owner, attribute, probe): owner is a module path, or a
# "module:Class" path for a method
TARGETS = (
    ("exact", "classinv.exact", "rref", _probe_rref),
    ("exact", "classinv.exact", "nullspace_basis", None),
    ("poly", "classinv.poly:Polynomial", "__mul__", None),
    ("groups", "classinv.groups", "sample_element", None),
    ("groups", "classinv.groups", "small_integer_elements", None),
    ("groups", "classinv.groups", "group_elements", None),
    ("groups", "classinv.groups", "group_elements_matrices", None),
    ("groups", "classinv.groups", "finite_closure", None),
    ("action", "classinv.action", "act", _probe_act),
    ("action", "classinv.action", "is_invariant", None),
    ("action", "classinv.action", "reynolds", None),
    ("certify", "classinv.certify", "generator_products_basis", _probe_span),
    ("certify", "classinv.certify", "invariant_subspace_basis", _probe_kernel),
    ("certify", "classinv.certify", "fft_verify", None),
    ("certify", "classinv.certify", "decompose_in_generators", None),
    ("certify", "classinv.certify", "minimal_generator_degrees", None),
    ("expr", "classinv.expr", "parse_expression", None),
    ("expr", "classinv.expr", "format_polynomial", None),
    ("expr", "classinv.expr", "format_generator_combination", None),
    ("cli", "classinv.cli", "main", None),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _namespaces(owner) -> list:
    if isinstance(owner, type):
        return [owner]
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "classinv" or name.startswith("classinv."))
    ]


def _wrapper(tracer: Tracer, layer: str, name: str, fn, probe):
    def traced(*args, **kwargs):
        return tracer.call(layer, name, fn, probe, args, kwargs)

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


@contextmanager
def patched(tracer: Tracer, targets=TARGETS):
    """Route every target through the tracer; restore all names on exit."""
    saved = []
    try:
        for layer, owner_path, attr, probe in targets:
            owner = _resolve(owner_path)
            original = vars(owner)[attr]
            wrapper = _wrapper(tracer, layer, attr, original, probe)
            for ns in _namespaces(owner):
                for key, value in list(vars(ns).items()):
                    if value is original:
                        saved.append((ns, key, value))
                        setattr(ns, key, wrapper)
        yield
    finally:
        for ns, key, value in reversed(saved):
            setattr(ns, key, value)


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer figures of one traced pass, by metric name."""
    selfs = self_times(spans)
    layer_self: dict = defaultdict(float)
    fn_self: dict = defaultdict(float)
    incl: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    info: dict = defaultdict(int)
    max_bits = 0
    for s, own in zip(spans, selfs):
        layer, name = s[LAYER], s[NAME]
        layer_self[layer] += own
        fn_self[name] += own
        incl[name] += s[END] - s[START]
        calls[name] += 1
        if s[INFO]:
            for key, value in s[INFO].items():
                if key == "bits":
                    max_bits = max(max_bits, value)
                else:
                    info[key] += value
    return {
        "exact.self_s": layer_self["exact"],
        "exact.rref_calls": calls["rref"],
        "exact.rref_cells": info["cells"],
        "exact.max_bits": max_bits,
        "action.act_s": incl["act"],
        "action.act_calls": calls["act"],
        "action.act_terms_in": info["terms_in"],
        "action.act_terms_out": info["terms_out"],
        "action.is_invariant_s": incl["is_invariant"],
        "action.reynolds_s": incl["reynolds"],
        "certify.kernel_self_s": fn_self["invariant_subspace_basis"],
        "certify.samples_used": info["samples"],
        "certify.useful_cut_ratio": info["drops"] / info["cuts"] if info["cuts"] else 0.0,
        "certify.span_s": incl["generator_products_basis"],
        "certify.span_products": info["products"],
        "certify.decompose_self_s": fn_self["decompose_in_generators"],
        "poly.mul_s": incl["__mul__"],
        "poly.mul_calls": calls["__mul__"],
        "groups.self_s": layer_self["groups"],
        "groups.sample_calls": calls["sample_element"],
        "groups.closure_s": incl["finite_closure"],
        "expr.self_s": layer_self["expr"],
        "expr.parse_calls": calls["parse_expression"],
        "cli.self_s": layer_self["cli"],
    }


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def write_spans(path, passes: list[list[list]]) -> None:
    """One JSON object per span; span indices restart in every pass."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for number, spans in enumerate(passes):
            for s in spans:
                fh.write(
                    json.dumps(
                        {
                            "pass": number,
                            "layer": s[LAYER],
                            "name": s[NAME],
                            "start": s[START],
                            "end": s[END],
                            "parent": s[PARENT],
                            "job": s[JOB],
                            "info": s[INFO],
                        }
                    )
                )
                fh.write("\n")

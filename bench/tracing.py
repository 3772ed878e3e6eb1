"""Spans around calls into crystor's public functions, recorded from
outside the package.

``install()`` wraps each function in ``LAYERS`` and rebinds the wrapper
everywhere the original is bound: on its class for methods, and under
its name in every loaded ``crystor`` module for functions, since a
module that did ``from .abelian import smith_normal_form`` holds its
own reference.  Spans (id, parent id, layer, start, end) stay in memory
until the run writes them out.  A layer's self time is its span's
duration minus the time covered by its child spans.

Span times use ``time.perf_counter``: the traced run is single-threaded,
and a wall-clock read costs less than a CPU-clock read in a wrapper that
runs hundreds of thousands of times.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (layer name, module, attribute path); the layer name is the metric prefix
LAYERS = (
    ("abelian.smith_normal_form", "crystor.abelian", "smith_normal_form"),
    ("abelian.IntMatrix.det", "crystor.abelian", "IntMatrix.det"),
    ("abelian.kernel_mod_n", "crystor.abelian", "kernel_mod_n"),
    ("abelian.hnf_rows", "crystor.abelian", "hnf_rows"),
    ("abelian.quotient_orders", "crystor.abelian", "quotient_orders"),
    ("abelian.enumerate_subgroups", "crystor.abelian", "enumerate_subgroups"),
    ("abelian.subgroup_elements", "crystor.abelian", "subgroup_elements"),
    ("abelian.require_prime", "crystor.abelian", "require_prime"),
    ("degen.validate", "crystor.degen", "DegenerationData.validate"),
    ("degen.torsion_module", "crystor.degen", "torsion_module"),
    ("kummer.ExtClass.column_combination", "crystor.kummer",
     "ExtClass.column_combination"),
    ("pushout.degeneration_object", "crystor.pushout", "degeneration_object"),
    ("pushout.star_pullback", "crystor.pushout", "star_pullback"),
    ("pushout.mp_hom", "crystor.pushout", "mp_hom"),
    ("pushout.check_mp_exactness", "crystor.pushout", "check_mp_exactness"),
    ("crys.crys1_torsion", "crystor.crys", "crys1_torsion"),
    ("crys.phi_n", "crystor.crys", "phi_n"),
    ("crys.r1crys1_tors", "crystor.crys", "r1crys1_tors"),
    ("crys.les_report", "crystor.crys", "les_report"),
    ("crys.oracle_crys1", "crystor.crys", "oracle_crys1"),
    ("crys.crys1_tate_module", "crystor.crys", "crys1_tate_module"),
    ("cli.parse_input", "crystor.cli", "parse_input"),
)

# counters that need a call's arguments or result
COUNTERS = (
    "abelian.smith_normal_form.max_bits",
    "abelian.enumerate_subgroups.subgroups",
    "abelian.enumerate_subgroups.repeat_calls",
)

# start-up timings measured by fresh processes, not by spans
STARTUP_METRICS = ("cli.process_start_s", "cli.import_s", "cli.import_sympy_s")


def _max_bits(snf) -> int:
    return max(
        (abs(x).bit_length() for m in (snf.U, snf.D, snf.V) for x in m.entries),
        default=0,
    )


class Tracer:
    """In-memory span recorder plus the counters that need arguments or
    results: SNF bit lengths and subgroup enumeration keys."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[int] = [0]  # span 0 is the run itself
        self._next_id = 1
        self.max_bits = 0
        self.subgroups = 0
        self.repeat_calls = 0
        self._enum_keys: set[tuple[int, int]] = set()

    def wrap(self, layer: str, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans.append((span_id, parent, layer, start, end))
            self._count(layer, args, result)
            return result

        return traced

    def _count(self, layer: str, args, result) -> None:
        if layer == "abelian.smith_normal_form":
            self.max_bits = max(self.max_bits, _max_bits(result))
        elif layer == "abelian.enumerate_subgroups":
            key = (args[0], args[1])
            self.repeat_calls += key in self._enum_keys
            self._enum_keys.add(key)
            self.subgroups += len(result)

    def counters(self) -> dict[str, int]:
        return dict(zip(COUNTERS, (self.max_bits, self.subgroups, self.repeat_calls)))

    def dump(self, path) -> None:
        """Write the spans and counters of this process as JSON."""
        with open(path, "w") as f:
            json.dump({"counters": self.counters(), "spans": self.spans}, f)


def load(path) -> tuple[dict[str, int], list]:
    with open(path) as f:
        doc = json.load(f)
    return doc["counters"], doc["spans"]


def merge_counters(parts) -> dict[str, int]:
    """Counters of several processes: the largest bit length, and sums
    of the rest (each process starts with an empty subgroup cache)."""
    out = dict.fromkeys(COUNTERS, 0)
    for part in parts:
        for key, value in part.items():
            if key.endswith(".max_bits"):
                out[key] = max(out[key], value)
            else:
                out[key] += value
    return out


def layer_metrics(span_lists, counters) -> dict[str, float]:
    """Per-layer calls and self time, summed over the span lists of one
    or more processes (span ids are unique within a process only), plus
    the counters."""
    out: dict[str, float] = {}
    for layer, _, _ in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    for spans in span_lists:
        for layer, self_s in self_times(spans):
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += self_s
    out.update(counters)
    return out


def self_times(spans):
    """(layer, self time) per span: duration minus the child spans."""
    covered: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end in spans:
        covered[parent] += end - start
    for span_id, _, layer, start, end in spans:
        yield layer, (end - start) - covered[span_id]


def install(tracer: Tracer) -> None:
    """Wrap every layer in ``LAYERS`` and rebind the wrappers."""
    for _, module_name, _ in LAYERS:
        importlib.import_module(module_name)
    modules = [m for name, m in sys.modules.items()
               if name == "crystor" or name.startswith("crystor.")]
    for layer, module_name, path in LAYERS:
        owner = sys.modules[module_name]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(layer, original)
        if cls_path:
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)

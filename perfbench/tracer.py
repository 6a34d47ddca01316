"""Span tracing of hypomean's layers from outside the package.

Each layer is a public function named `<module>.<function>`.  While a
Tracer is installed, every reference to that function held in a hypomean
module namespace, or in a dict stored there, is replaced by one wrapper.
That covers aliases such as `positivity.finite_section`, `cli.certify`
and the entry table `matrices._ENTRY_FUNCS`, so a layer reached through
any of those names is still recorded.

A span is (layer, start, end, parent) kept in memory.  Self time is the
span's duration minus the durations of its direct children; the process
is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

LAYERS = (
    "weights.check_hypotheses",
    "matrices.finite_section",
    "matrices.offdiag_factors",
    "matrices.p_entry_oracle",
    "positivity.certify",
    "positivity.elimination_multiplier",
    "positivity.tridiagonalize",
    "positivity.delta_sequence",
    "positivity.check_delta_bounds",
    "positivity.leading_minors",
    "symbolic.symbolic_q",
    "symbolic.symbolic_tridiagonal",
    "symbolic.induction_certificate",
    "polynomials.poly_gcd",
    "polynomials.count_roots_above",
    "cli.main",
)


def _bits(x) -> tuple[int, int]:
    return abs(x.numerator).bit_length(), x.denominator.bit_length()


class Tracer:
    """Records spans and layer counters while installed."""

    def __init__(self):
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.counters = {
            "matrices.section_entries": 0,
            "positivity.pivot_num_bits_max": 0,
            "positivity.pivot_den_bits_max": 0,
            "positivity.det_bits": 0,
            "symbolic.certified": 0,
        }
        self.aliases: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[dict, object, object]] = []
        self._probes = {
            "matrices.finite_section": self._probe_section,
            "positivity.certify": self._probe_report,
            "symbolic.induction_certificate": self._probe_certificate,
        }

    # -- counters read from layer results --------------------------------

    def _probe_section(self, section) -> None:
        self.counters["matrices.section_entries"] += section.n_rows * section.n_cols

    def _probe_report(self, report) -> None:
        c = self.counters
        for delta in report.deltas:
            num, den = _bits(delta)
            c["positivity.pivot_num_bits_max"] = max(c["positivity.pivot_num_bits_max"], num)
            c["positivity.pivot_den_bits_max"] = max(c["positivity.pivot_den_bits_max"], den)
        if report.determinant is not None:
            c["positivity.det_bits"] = max(c["positivity.det_bits"], sum(_bits(report.determinant)))

    def _probe_certificate(self, cert) -> None:
        self.counters["symbolic.certified"] += cert.nonneg_for_n_ge_1 and cert.base_holds

    # -- patching --------------------------------------------------------

    def _wrap(self, index: int, fn, probe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[me] = (index, start, end, parent)
            if probe is not None:
                probe(result)
            return result

        return traced

    def install(self) -> None:
        """Replace every module-level reference to each layer function."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "hypomean" or name.startswith("hypomean.")}
        for index, layer in enumerate(LAYERS):
            module_name, func_name = layer.split(".")
            original = getattr(importlib.import_module(f"hypomean.{module_name}"), func_name)
            wrapper = self._wrap(index, original, self._probes.get(layer))
            found = self.aliases[layer] = []
            for mod_name, mod in modules.items():
                namespace = vars(mod)
                tables = [(mod_name, namespace)] + [
                    (f"{mod_name}.{key}", value) for key, value in namespace.items()
                    if isinstance(value, dict) and not key.startswith("__")]
                for where, table in tables:
                    for key, value in list(table.items()):
                        if value is original:
                            self._saved.append((table, key, original))
                            table[key] = wrapper
                            found.append(f"{where}[{key!r}]" if table is not namespace
                                         else f"{where}.{key}")

    def uninstall(self) -> None:
        for table, key, original in reversed(self._saved):
            table[key] = original
        self._saved.clear()

    # -- results ---------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls and self time per layer over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for index, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for (index, start, end, _), covered in zip(self.spans, child_time):
            entry = totals[LAYERS[index]]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered
        return totals

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": LAYERS, "fields": ["layer", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))

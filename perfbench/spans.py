"""Spans around the calls into each bimix layer, recorded from outside the package.

``Tracer.install`` replaces each layer's public functions at the module
attribute their callers look up (``bimix.harness.disp``, ``bimix.disp.spa``,
``bimix.cli.load_matrix_csv``, ...) with a wrapper that records one span per
call: its id, name, layer, start, end, parent span and unit id.  Parents are
tracked per thread.  Spans stay in memory until ``write`` saves them and
``layer_metrics`` reduces them; ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

LAYERS = (
    "harness",
    "model",
    "sampler",
    "spectral",
    "spa",
    "disp",
    "metrics",
    "ingest",
    "io",
    "cli",
)

# layers whose per-call cost is reported on its own
PER_CALL_LAYERS = ("spectral", "spa", "sampler", "metrics")

# (module the caller looks the name up in, attribute, layer of the callee)
WRAPPED = (
    ("bimix.harness", "run_sweep", "harness"),
    ("bimix.harness", "build_omega", "model"),
    ("bimix.harness", "validate_model", "model"),
    ("bimix.harness", "make_standard_two_block", "model"),
    ("bimix.harness", "sample_adjacency", "sampler"),
    ("bimix.harness", "disp", "disp"),
    ("bimix.harness", "error_rate", "metrics"),
    ("bimix.disp", "top_k_svd", "spectral"),
    ("bimix.disp", "spa", "spa"),
    ("bimix.disp", "vertex_matrix", "spa"),
    ("bimix.cli", "main", "cli"),
    ("bimix.cli", "disp", "disp"),
    ("bimix.cli", "error_rate", "metrics"),
    ("bimix.cli", "hamm_rc", "metrics"),
    ("bimix.cli", "mixed_proportion", "metrics"),
    ("bimix.cli", "singular_values", "spectral"),
    ("bimix.cli", "estimate_k_eigengap", "spectral"),
    ("bimix.cli", "load_edge_list", "ingest"),
    ("bimix.cli", "drop_isolated", "ingest"),
    ("bimix.cli", "to_dense", "ingest"),
    ("bimix.cli", "summarize", "ingest"),
    ("bimix.cli", "load_edges_tsv", "io"),
    ("bimix.cli", "load_matrix_csv", "io"),
    ("bimix.cli", "save_matrix_csv", "io"),
)


class Tracer:
    """Collects spans from wrapped layer functions.

    A span is ``(id, name, layer, start, end, parent_id, unit)``; the parent
    is the innermost open span of the same thread, or None at the top.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed: list[tuple] = []

    def set_unit(self, unit) -> None:
        self._local.unit = unit

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                unit = getattr(self._local, "unit", None)
                self.spans.append((span_id, name, layer, start, end, parent, unit))

        return traced

    def install(self) -> None:
        """Wrap every function in WRAPPED; names a module lacks are listed in ``missing``."""
        for module_name, attr, layer in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            short = module_name.rsplit(".", 1)[-1]
            setattr(module, attr, self._wrap(fn, f"{layer}.{attr}@{short}", layer))
            self._installed.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines, one object per span, in completion order."""
        keys = ("id", "name", "layer", "start", "end", "parent", "unit")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self, fits: int, points: int, skipped: int, edges: int) -> dict:
        """Per-layer calls and self time per fit, shares and per-call costs.

        A span's self time is its duration minus the durations of its direct
        children; shares are of the summed duration of top-level spans.
        ``edges`` is the number of edge-list lines the traced units parsed.
        Returns ``{metric name: (value, unit)}``.
        """
        child_time: dict = defaultdict(float)
        for _, _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        top_s = 0.0
        edges_parse_s = 0.0
        for span_id, name, layer, start, end, parent, _ in self.spans:
            own = end - start - child_time[span_id]
            calls[layer] += 1
            self_s[layer] += own
            if parent is None:
                top_s += end - start
            if name.startswith("ingest.load_edge_list"):
                edges_parse_s += own
        fits = max(fits, 1)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer] / fits, "count/fit")
            out[f"{layer}.self_ms"] = (1000.0 * self_s[layer] / fits, "ms/fit")
            out[f"{layer}.share"] = (self_s[layer] / top_s if top_s else 0.0, "fraction")
        for layer in PER_CALL_LAYERS:
            per_call = 1000.0 * self_s[layer] / calls[layer] if calls[layer] else 0.0
            out[f"{layer}.ms_per_call"] = (per_call, "ms")
        out["harness.skip_frac"] = (skipped / points if points else 0.0, "fraction")
        out["ingest.edges_per_s"] = (edges / edges_parse_s if edges_parse_s else 0.0, "1/s")
        return out

"""In-memory spans around calls into the rggloc layers, recorded from outside.

`Tracer.install()` replaces each function named in `LAYER_FUNCTIONS` by a
wrapper that opens a span, in every `rggloc.*` module namespace that binds
it (the defining module and every module that imported the name), so calls
made inside the package are seen too.  `uninstall()` puts the originals
back.  Nothing under `src/` is changed.

A span records its name, layer, the benchmark operation it ran under, its
duration and its self time (duration minus the time of its direct child
spans), plus an optional work count taken from its arguments or result.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

def _pairs(args, kwargs, result):
    k = len(args[0])
    cap = args[2] if len(args) > 2 else kwargs.get("cap", 400)
    return k * (k - 1) // 2 if k <= cap else 0


def _length(args, kwargs, result):
    return len(result)


# (module, function) -> work count taken from (args, kwargs, result), or None.
# Hot per-cell helpers (flat_index, cell_metric, ...) are left unwrapped: a
# span per call would cost more than the call.
LAYER_FUNCTIONS = {
    ("points", "sample_ppp"): None,
    ("points", "edge_count"): lambda a, k, r: r,
    ("points", "count_in_probe"): None,
    ("grid", "build_grid"): None,
    ("grid", "tiny_grid"): None,
    ("grid", "max_clique_info"): None,
    ("grid", "enumerate_max_clique_sets"): _length,
    ("grid", "inscribed_ball_diameter"): None,
    ("grid", "outer_hull"): None,
    ("grid", "inner_hull"): None,
    ("grid", "coarsen"): None,
    ("grid", "sample_cell_config"): None,
    ("grid", "sgraded_edge_count"): None,
    ("grid", "dump_config_csv"): None,
    ("grid", "load_config_csv"): None,
    ("sampling", "planted_cell_sampler"): None,
    ("sampling", "planted_continuum_sampler"): None,
    ("sampling", "importance_estimate_tail"): None,
    ("extract", "certify_thm1"): None,
    ("extract", "certify_thm2"): None,
    ("extract", "extract_bulk_exceedance"): _length,
    ("extract", "extract_T"): None,
    ("extract", "extract_P"): _length,
    ("extract", "set_diameter_capped"): _pairs,
    ("extract", "localization_profile"): None,
    ("stats", "derived_scales"): None,
    ("stats", "Q_internal"): None,
    ("stats", "Q_cross"): None,
    ("stats", "V_count"): None,
    ("ldp", "sandwich_bounds"): None,
    ("ldp", "normalized_log_tail"): None,
    ("cli", "main"): None,
}


class Tracer:
    """Records spans in memory; `records` holds one tuple per finished span:
    (name, layer, op, phase, duration_s, self_s, count, top), where `top`
    marks a span opened with no other span open."""

    def __init__(self):
        self.records = []
        self.op = ""
        self.phase = ""
        self._stack = []  # child-time accumulators of the open spans
        self._patched = []

    @contextmanager
    def span(self, name: str, layer: str):
        """A span around the block; the block may set its work count in the
        yielded one-item list."""
        top = not self._stack
        self._stack.append(0.0)
        count = [0]
        t0 = time.perf_counter()
        try:
            yield count
        finally:
            dur = time.perf_counter() - t0
            child = self._stack.pop()
            if self._stack:
                self._stack[-1] += dur
            self.records.append((name, layer, self.op, self.phase, dur, dur - child, count[0], top))

    def adopt(self, records, op: str):
        """Nest spans recorded in a child process under the open span."""
        for name, layer, _op, _phase, dur, self_s, count, _top in records:
            self.records.append((name, layer, op, self.phase, dur, self_s, count, False))
        roots = sum(r[4] for r in records if r[0] == "cli.main")
        if self._stack:
            self._stack[-1] += roots

    def _wrap(self, layer: str, fn, count_fn):
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer) as count:
                result = fn(*args, **kwargs)
                if count_fn:
                    count[0] = count_fn(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every binding of the layer functions in loaded rggloc modules."""
        mods = [m for n, m in sys.modules.items() if n == "rggloc" or n.startswith("rggloc.")]
        for (layer, fname), count_fn in LAYER_FUNCTIONS.items():
            home = sys.modules.get(f"rggloc.{layer}")
            if home is None or not hasattr(home, fname):
                continue
            original = getattr(home, fname)
            wrapped = self._wrap(layer, original, count_fn)
            for mod in mods:
                if getattr(mod, fname, None) is original:
                    setattr(mod, fname, wrapped)
                    self._patched.append((mod, fname, original))

    def uninstall(self):
        for mod, fname, original in reversed(self._patched):
            setattr(mod, fname, original)
        self._patched.clear()

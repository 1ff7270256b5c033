"""Span tracer that wraps beamfocus's public functions from outside the package.

``Tracer().install()`` replaces each function named in ``TARGETS`` with a
wrapper that records one span per call: name, start, end, parent span and
whether the call raised. Every binding of the function in every loaded
``beamfocus`` module is replaced, so ``from .linalg import svd`` inside
``beamforming`` is traced like ``linalg.svd`` itself. ``Scenario`` is traced
by wrapping its ``__init__`` and ``rate`` in place, which keeps the class
identity that ``isinstance`` checks rely on.

Spans stay in memory until ``dump``. The tracer keeps one span stack and so
assumes the traced program runs on one thread (the benchmark passes
``--threads 1``).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

TARGETS = {
    "geometry": ("optimal_spacing", "build_layout", "aperture"),
    "channel": ("exact_channel", "fresnel_factors", "gram"),
    "linalg": ("svd", "eig_hermitian", "least_squares"),
    "spectral": ("rate", "water_filling"),
    "beamforming": (
        "digital_svd",
        "dictionary_tx",
        "dictionary_rx",
        "asymptotic_hybrid",
        "omp_hybrid",
        "phase_extraction_hybrid",
    ),
    "scenario": ("load_config", "spectrum_data", "Scenario", "Scenario.rate"),
    "cli": ("run_rate_sweep", "run_spectrum", "run_aperture_sweep"),
}

SPAN_NAMES = tuple(f"{module}.{name}" for module, names in TARGETS.items() for name in names)

# Derived per-layer metrics: (name, unit). Work and bytes are computed from
# argument shapes, not measured, and repeat exactly for a given input. The two
# waste ratios need CSV row counts, so run.py fills them in.
DERIVED = (
    ("linalg.svd.work", "ops_computed"),
    ("linalg.eig_hermitian.work", "ops_computed"),
    ("geometry.aperture.bytes", "B_computed"),
    ("channel.exact_channel.bytes", "B_computed"),
    ("spectral.rate.calls_per_row", "ratio"),
    ("scenario.svd_per_scenario", "ratio"),
    ("linalg.svd.resid_max", "ratio"),
    ("linalg.eig_hermitian.resid_max", "ratio"),
)


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


class Tracer:
    """Records spans around the public beamfocus functions while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, raised]
        self.derived = {name: 0.0 for name, _ in DERIVED}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- derived metrics, computed after the wrapped call returns ------------

    def _after_svd(self, args, kwargs, res):
        a = np.asarray(_first_arg(args, kwargs, "a"), dtype=np.complex128)
        m, n = a.shape
        self.derived["linalg.svd.work"] += m * n * min(m, n)
        recon = (res.left * res.singular_values) @ res.right.conj().T
        resid = float(np.linalg.norm(a - recon) / max(np.linalg.norm(a), 1e-300))
        self.derived["linalg.svd.resid_max"] = max(self.derived["linalg.svd.resid_max"], resid)

    def _after_eig(self, args, kwargs, res):
        a = np.asarray(_first_arg(args, kwargs, "a"), dtype=np.complex128)
        self.derived["linalg.eig_hermitian.work"] += a.shape[0] ** 3
        gap = a @ res.vectors - res.vectors * res.values
        resid = float(np.linalg.norm(gap) / max(np.linalg.norm(a), 1e-300))
        key = "linalg.eig_hermitian.resid_max"
        self.derived[key] = max(self.derived[key], resid)

    def _after_aperture(self, args, kwargs, _res):
        k = _first_arg(args, kwargs, "layout").count
        self.derived["geometry.aperture.bytes"] += 24 * k * k

    def _after_exact_channel(self, args, kwargs, _res):
        tx = args[0] if args else kwargs["tx"]
        rx = args[1] if len(args) > 1 else kwargs["rx"]
        self.derived["channel.exact_channel.bytes"] += 40 * rx.count * tx.count

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        importlib.import_module("beamfocus.cli")
        modules = [m for n, m in sys.modules.items() if n == "beamfocus" or n.startswith("beamfocus.")]
        after = {
            "linalg.svd": self._after_svd,
            "linalg.eig_hermitian": self._after_eig,
            "geometry.aperture": self._after_aperture,
            "channel.exact_channel": self._after_exact_channel,
        }
        for module_name, names in TARGETS.items():
            module = sys.modules[f"beamfocus.{module_name}"]
            for name in names:
                span_name = f"{module_name}.{name}"
                if name == "Scenario":
                    cls = module.Scenario
                    self._set(cls, "__init__", self._wrap(span_name, cls.__init__))
                    continue
                if "." in name:
                    cls_name, method = name.split(".")
                    cls = getattr(module, cls_name)
                    self._set(cls, method, self._wrap(span_name, getattr(cls, method)))
                    continue
                original = getattr(module, name)
                wrapped = self._wrap(span_name, original, after.get(span_name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def patched_bindings(self) -> list[str]:
        """``module.attr`` names currently replaced, for the self-test."""
        return [f"{getattr(o, '__name__', o)}.{attr}" for o, attr, _ in self._patched]

    # -- results --------------------------------------------------------------

    def layers(self) -> dict:
        """Per span name: calls, self seconds and calls that raised.

        Self time is a span's duration minus the time its child spans cover;
        spans on one thread nest, so the children's durations add up.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0, "errors": 0} for name in SPAN_NAMES}
        for i, (name, start, end, _, raised) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - child[i]
            entry["errors"] += int(raised)
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "raised"], "spans": self.spans}, fh)

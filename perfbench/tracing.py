"""Per-layer spans recorded from outside the library.

The traced run wraps the public functions of each ``cdlab`` module (a
*span* per call) and restores the original objects afterwards; the library
source is never touched.  A function imported into another module
(``from .matrix_core import psd_check``) has its own binding there, so every
module binding of a span function is replaced by the same wrapper.

Spans stay in memory as flat arrays, each tagged with the request id and its
parent span, and are written out once at the end.  Self time is a span's
duration minus the time covered by its direct child spans, which also holds
for nested and recursive calls of the same function.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: Span names per layer (the layers are the library's modules).
SPANS = {
    "matrix_core": ("psd_check", "hermitian_det"),
    "rules": ("RationalRule.__call__",),
    "shifts": ("WeightSequence.weights", "materialize", "defect_operator",
               "hypercontractivity_report", "shields_similarity"),
    "rkhs": ("DiagonalKernel.coeffs_slice", "metric_eval", "curvature_series", "curvature_fd"),
    "blockops": ("assemble", "BlockOperator.window_norms", "contraction_check",
                 "blockwise_contraction_scan", "unit_norm_reducibility", "cascade_reducibility",
                 "rank_one_defect_check", "frame_solver", "section_vector"),
    "similarity": ("det_ratio_profile", "subharmonic_witness_check", "commutator_example"),
    "cli": ("parse_request", "run", "render_report", "main"),
}
SPAN_NAMES = tuple(f"{layer}.{attr}" for layer, attrs in SPANS.items() for attr in attrs)

PACKAGE = "cdlab"
_MARK = "__perfbench_span__"


def self_times(parents: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children.

    ``parents[i]`` is the index of span ``i``'s parent, or -1 for a root.
    """
    dur = ends - starts
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


class Tracer:
    """Installs span wrappers into a loaded ``cdlab`` package and records spans."""

    def __init__(self):
        self.layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in SPANS}
        self.request_id = -1
        self._name = array("h")
        self._request = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._error = array("b")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.psd_n3 = 0
        self.defect_n3 = 0
        self.metric_calls = 0
        self.metric_repeats = 0
        self._metric_seen: set = set()
        self._metric_request = None

    # -- argument-derived counts -------------------------------------------

    def _count_psd(self, args, kwargs):
        M = args[0] if args else kwargs["M"]
        self.psd_n3 += int(np.shape(M)[0]) ** 3

    def _count_defect(self, args, kwargs):
        T = args[0] if args else kwargs["T"]
        k = args[1] if len(args) > 1 else kwargs["k"]
        self.defect_n3 += 2 * int(k) * int(T.order) ** 3

    def _count_metric(self, args, kwargs):
        K = args[0] if args else kwargs["K"]
        r = args[1] if len(args) > 1 else kwargs["r"]
        if self._metric_request != self.request_id:
            self._metric_request = self.request_id
            self._metric_seen.clear()
        key = (K, float(r))
        self.metric_calls += 1
        if key in self._metric_seen:
            self.metric_repeats += 1
        else:
            self._metric_seen.add(key)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, index: int, fn, hook=None):
        names, requests, parents = self._name, self._request, self._parent
        starts, ends, errors, stack = self._start, self._end, self._error, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            sid = len(starts)
            names.append(index)
            requests.append(tracer.request_id)
            parents.append(stack[-1] if stack else -1)
            errors.append(0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[sid] = 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()

        setattr(wrapper, _MARK, SPAN_NAMES[index])
        return wrapper


    def install(self) -> None:
        if self._patches:
            raise RuntimeError("span wrappers are already installed")
        hooks = {"matrix_core.psd_check": self._count_psd,
                 "shifts.defect_operator": self._count_defect,
                 "rkhs.metric_eval": self._count_metric}
        modules = [m for _, m in _package_modules()]
        for index, span in enumerate(SPAN_NAMES):
            layer, _, attr = span.partition(".")
            module = self.layers[layer]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(index, original, hooks.get(span)))
                self._patches.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(index, original, hooks.get(span))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patches.append((m, key, original))

    def restore(self) -> None:
        """Put every original object back, then verify that none is missing."""
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        wrong = [f"{getattr(t, '__name__', t)}.{k}" for t, k, o in self._patches if vars(t).get(k) is not o]
        self._patches.clear()
        if wrong:
            raise RuntimeError(f"span wrappers not restored: {wrong}")

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int16),
            "request": np.frombuffer(self._request, dtype=np.int32),
            "parent": np.frombuffer(self._parent, dtype=np.int32),
            "start": np.frombuffer(self._start, dtype=np.float64),
            "end": np.frombuffer(self._end, dtype=np.float64),
            "error": np.frombuffer(self._error, dtype=np.int8),
        }

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, zero where a span never ran."""
        a = self.arrays()
        own = self_times(a["parent"].astype(np.int64), a["start"], a["end"])
        n = len(SPAN_NAMES)
        calls = np.bincount(a["name"], minlength=n)
        self_s = np.bincount(a["name"], weights=own, minlength=n)
        errors = np.bincount(a["name"], weights=a["error"], minlength=n)
        out: dict[str, tuple[float, str]] = {}
        for i, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = (int(calls[i]), "count")
            out[f"{span}.self_s"] = (float(self_s[i]), "s")
            out[f"{span}.errors"] = (int(errors[i]), "count")
        for layer in SPANS:
            total = sum(out[f"{layer}.{attr}.self_s"][0] for attr in SPANS[layer])
            out[f"{layer}.self_s"] = (total, "s")
        out["matrix_core.psd_check.n3_sum"] = (self.psd_n3, "count")
        out["shifts.defect_operator.n3_sum"] = (self.defect_n3, "count")
        repeat = self.metric_repeats / self.metric_calls if self.metric_calls else 0.0
        out["rkhs.metric_eval.repeat_frac"] = (repeat, "ratio")
        return out

    def write(self, path) -> None:
        """Write every span (with the span-name table) as an ``.npz`` archive."""
        np.savez(path, names=np.array(SPAN_NAMES), **self.arrays())


def _package_modules():
    return [(name, m) for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def installed_wrappers() -> list[str]:
    """Names of span wrappers currently bound anywhere in the package."""
    found = []
    for name, m in _package_modules():
        for key, value in vars(m).items():
            if hasattr(value, _MARK):
                found.append(f"{name}.{key}")
            elif isinstance(value, type) and value.__module__ == name:
                found.extend(f"{name}.{key}.{attr}" for attr, v in vars(value).items() if hasattr(v, _MARK))
    return found

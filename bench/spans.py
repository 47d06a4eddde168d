"""Spans around the calls into each swbundle module, recorded from outside.

The tracer replaces public names at the module boundary with timing
wrappers: the names ``swbundle.cli`` and ``swbundle.bundle`` import, the
bundle functions the lifebar loop calls through module globals, and two
methods (``ProjectiveTriangulation.face_simplices`` and
``LiftedCloud.distance_matrix``).  No file of the package changes.  Each call
records a span ``(name, start, end, parent, request)`` in memory; sizes are
read off the arguments and returned objects into counters.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

LAYERS = ("cli", "datasets", "render", "bundle", "simplicial", "grassmann", "projective", "z2")

# module -> attributes replaced while tracing
_PATCHED_NAMES = {
    "swbundle.cli": (
        "lifebar", "build_bundle_filtration", "rips_index_bound", "triangulate_rp",
        "barcode_svg", "barcode_text", "lifebar_svg", "lifebar_text",
        "rips_filtration", "barcode",
    ),
    "swbundle.datasets": ("load_cloud",),
    "swbundle.bundle": (
        "jacobi_eigh_batch", "line_projector", "tmax", "barycentric_subdivision",
        "is_simplicial_map", "pullback_cochain", "rips_filtration", "is_cocycle",
        "is_coboundary", "sw_class_at", "weak_star_check", "rips_index_bound",
    ),
}
_PATCHED_METHODS = (
    ("swbundle.projective", "ProjectiveTriangulation", "face_simplices"),
    ("swbundle.bundle", "LiftedCloud", "distance_matrix"),
)


def _span_name(fn) -> str:
    layer = fn.__module__.rsplit(".", 1)[-1]
    return f"{layer}.{fn.__name__}"


def _count_rips(counts, args, result):
    size = result.complex.n_simplices()
    counts["simplicial.flag.simplices"] += size
    counts["simplicial.max_complex_simplices"] = max(
        counts["simplicial.max_complex_simplices"], size)


def _count_subdivision(counts, args, result):
    size = result.n_simplices()
    counts["simplicial.subdivision.simplices"] += size
    counts["simplicial.max_complex_simplices"] = max(
        counts["simplicial.max_complex_simplices"], size)


def _count_eigh(counts, args, result):
    counts["grassmann.jacobi_eigh_batch.matrices"] += args[0].shape[0]


def _count_faces(counts, args, result):
    counts["projective.face_simplices.queries"] += args[1].shape[0]


def _count_weak_star(counts, args, result):
    counts["bundle.weak_star.passes"] += result[0] is not None


def _count_barcode(counts, args, result):
    counts["z2.barcode.simplices"] += args[0].complex.n_simplices()


_COUNTERS = {
    "simplicial.rips_filtration": _count_rips,
    "simplicial.barycentric_subdivision": _count_subdivision,
    "grassmann.jacobi_eigh_batch": _count_eigh,
    "projective.face_simplices": _count_faces,
    "bundle.weak_star_check": _count_weak_star,
    "z2.barcode": _count_barcode,
}


class Tracer:
    """Records spans and counters while installed; restores every name on removal."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts = defaultdict(float)
        self.request = None
        self._stack: list = []
        self._saved: list = []

    def wrap(self, fn):
        """A wrapper that records one span per call of fn."""
        name = _span_name(fn)
        count = _COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attrs in _PATCHED_NAMES.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn))
        for module_name, cls_name, attr in _PATCHED_METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            fn = cls.__dict__[attr]
            self._saved.append((cls, attr, fn))
            setattr(cls, attr, self.wrap(fn))

    def remove(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for (_, start, end, _, _) in spans]
    for (_, start, end, parent, _) in spans:
        if parent is not None:
            own[parent] -= end - start
    return own

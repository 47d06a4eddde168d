"""Parametric generators for the example line bundles.

Circle bundles in R^2 x M(R^2): the normal bundle turns the fiber line at
full angular speed (orientable), the tautological one at half speed (the
Mobius band).  Surface bundles in R^3 x M(R^3): the unit normals of a torus
and of a figure-8 Klein immersion.  All matrix parts are rank-1 projectors,
so every noiseless cloud sits on G_1 and has the same index bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bundle import LiftedCloud, _top_eigenvectors
from .grassmann import jacobi_eigh_batch, line_projectors

_KINDS = ("circle_normal", "circle_tautological", "torus_normal", "klein_normal")

_FD_STEP = 1e-5  # central-difference step for numerically computed normals

# largest generated cloud: lifebar and barcode screen all N (N - 1) / 2 pairs,
# 5.5e11 at this size
MAX_POINTS = 2 ** 20


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one generated cloud."""

    kind: str
    count: int
    count2: int | None = None
    noise: float = 0.0
    seed: int = 0
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}; choose from {_KINDS}")
        _check_counts("count", self.count, *(() if self.count2 is None else (self.count2,)))
        if self.count2 is not None and self.kind.startswith("circle"):
            raise ValueError(f"{self.kind} takes one count; a second count (grid columns) "
                             "is for the torus and Klein surfaces")
        points = self.count * (1 if self.kind.startswith("circle") else self.count2 or self.count)
        if points > MAX_POINTS:
            raise ValueError(f"{points} points requested, more than the cap of {MAX_POINTS} "
                             "(2**20): lifebar and barcode screen all N (N - 1) / 2 pairs")
        if not (isinstance(self.noise, (int, float, np.number)) and 0.0 <= self.noise < np.inf):
            raise ValueError(f"noise level must be finite and nonnegative, got {self.noise!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:  # numpy's names no seed
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


def _check_counts(noun: str, *counts) -> None:
    """ValueError unless every count is an integer of at least 3; the message calls it noun."""
    for k in counts:  # the type first: "5" < 3 raises TypeError
        if not isinstance(k, (int, np.integer)) or k < 3:
            low = isinstance(k, (int, float, np.number)) and k < 3
            raise ValueError(f"{noun}s must be at least 3" if low
                             else f"{noun} {k!r} is not an integer")


def generate(spec: GeneratorSpec) -> LiftedCloud:
    """Build the cloud described by a GeneratorSpec (noise applied last)."""
    if spec.kind == "circle_normal":
        cloud = circle_normal(spec.count, spec.gamma)
    elif spec.kind == "circle_tautological":
        cloud = circle_tautological(spec.count, spec.gamma)
    elif spec.kind == "torus_normal":
        cloud = torus_normal(spec.count, spec.count2 or spec.count, spec.gamma)
    else:
        cloud = klein_normal(spec.count, spec.count2 or spec.count, spec.gamma)
    if spec.noise > 0:
        cloud = add_noise(cloud, spec.noise, spec.seed)
    return cloud


def _circle(k: int, gamma: float, half_speed: bool) -> LiftedCloud:
    _check_counts("circle count", k)
    theta = 2.0 * np.pi * np.arange(k) / k
    xs = np.column_stack([np.cos(theta), np.sin(theta)])
    ang = theta / 2.0 if half_speed else theta
    c, s = np.cos(ang), np.sin(ang)
    mats = np.empty((k, 2, 2))
    mats[:, 0, 0] = c * c
    mats[:, 0, 1] = mats[:, 1, 0] = c * s
    mats[:, 1, 1] = s * s
    return LiftedCloud(xs, mats, gamma)


def circle_normal(k: int, gamma: float = 1.0) -> LiftedCloud:
    """k points on the unit circle, each carrying the projector onto its radius."""
    return _circle(k, gamma, half_speed=False)


def circle_tautological(k: int, gamma: float = 1.0) -> LiftedCloud:
    """k points on the unit circle with half-angle fiber lines (Mobius band)."""
    return _circle(k, gamma, half_speed=True)


def _grid(k_u: int, k_v: int) -> tuple:
    """Parameters (u, v) of a k_u x k_v grid on the square [0, 2 pi)^2, v fastest."""
    _check_counts("grid count", k_u, k_v)  # steps of 2 pi / 4.5 do not close a grid
    u, v = np.meshgrid(2.0 * np.pi * np.arange(k_u) / k_u, 2.0 * np.pi * np.arange(k_v) / k_v,
                       indexing="ij")
    return u.ravel(), v.ravel()


def torus_normal(k_u: int, k_v: int, gamma: float = 1.0) -> LiftedCloud:
    """Grid sample of the torus (R = 2, r = 1) with its unit normal lines."""
    u, v = _grid(k_u, k_v)
    xs = np.column_stack([(2.0 + np.cos(v)) * np.cos(u), (2.0 + np.cos(v)) * np.sin(u), np.sin(v)])
    normals = np.column_stack([np.cos(v) * np.cos(u), np.cos(v) * np.sin(u), np.sin(v)])
    return LiftedCloud(xs, line_projectors(normals), gamma)


def klein_point(u, v) -> np.ndarray:
    """Figure-8 immersion of the Klein bottle in R^3 (tube scale a = 2), along
    the last axis of arrays u and v of one shape (or of two scalars)."""
    r = 2.0 + np.cos(u / 2.0) * np.sin(v) - np.sin(u / 2.0) * np.sin(2.0 * v)
    z = np.sin(u / 2.0) * np.sin(v) + np.cos(u / 2.0) * np.sin(2.0 * v)
    return np.stack([r * np.cos(u), r * np.sin(u), z], axis=-1)


def klein_normal(k_u: int, k_v: int, gamma: float = 1.0) -> LiftedCloud:
    """Grid sample of the figure-8 Klein immersion with normal lines.

    Normals come from central differences of the parametrization (the closed
    form is unwieldy).
    """
    u, v = _grid(k_u, k_v)
    h = _FD_STEP
    du = (klein_point(u + h, v) - klein_point(u - h, v)) / (2.0 * h)
    dv = (klein_point(u, v + h) - klein_point(u, v - h)) / (2.0 * h)
    return LiftedCloud(klein_point(u, v), line_projectors(np.cross(du, dv)), gamma)


def tangent_lift(points: np.ndarray, gamma: float = 1.0) -> LiftedCloud:
    """Discrete tangent bundle of an ordered cyclic cloud: lines x_{i+1} - x_{i-1}."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 3:
        raise ValueError("need an ordered cloud of at least 3 points")
    diffs = np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)
    return LiftedCloud(pts, line_projectors(diffs), gamma)


def add_noise(cloud: LiftedCloud, sigma: float, seed: int) -> LiftedCloud:
    """Gaussian jitter of base points and fiber directions, re-projected to G_1.

    Matrix parts stay on the Grassmannian: each fiber's top eigenvector is
    perturbed and sent back through the rank-1 projector.  Deterministic for
    a fixed seed.  A point on the medial axis has no top eigenvector to
    perturb: it raises MedialAxisError.  The lines come from the Jacobi
    solver: the sign of each u fixes u + sigma * noise, so another solver
    would change the generated clouds.
    """
    if not 0.0 <= sigma < np.inf:
        raise ValueError(f"noise level must be finite and nonnegative, got {sigma}")
    if sigma == 0:
        return cloud
    u, _ = _top_eigenvectors(cloud.mats, "point", solve=jacobi_eigh_batch)
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        xs = cloud.xs + sigma * rng.normal(size=cloud.xs.shape)
        u = u + sigma * rng.normal(size=u.shape)
    if not (np.isfinite(xs).all() and np.isfinite(u).all()):
        raise ValueError(f"noise level {sigma} overflows a float")
    return LiftedCloud(xs, line_projectors(u), cloud.gamma)


# ---------------------------------------------------------------------------
# Cloud files
# ---------------------------------------------------------------------------

def save_cloud(cloud: LiftedCloud, path: str) -> None:
    with open(path, "w") as fh:
        # dumps, not dump: only a one-shot encode takes the C encoder
        fh.write(json.dumps(cloud.to_json_obj(), sort_keys=True, separators=(",", ":")) + "\n")


def load_cloud(path: str) -> LiftedCloud:
    with open(path) as fh:
        try:  # the decoder recurses once per level of nesting
            obj = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path!r} nests its JSON too deeply to decode") from None
    return LiftedCloud.from_json_obj(obj)

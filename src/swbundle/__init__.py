"""Persistent first Stiefel-Whitney classes of line bundles from point clouds.

A lifted cloud in R^n x M(R^m) gets a flag-complex filtration under the
gamma-weighted product norm; wherever the matrix parts stay off the medial
axis of G_1(R^m), that filtration carries projection maps to the projective
space, and the pulled-back generator of H^1(RP^{m-1}, Z/2) is the first
persistent class.  The lifebar records where it is nonzero.

The production modules are cli, datasets, render, bundle and grassmann; the
reference modules simplicial, z2 and projective hold the paper's decider and
the test oracles.  Every name below loads its module on first use, so
``from swbundle import cli`` loads no reference module.  _EXPORTS is the one
record of where each name lives: cli and bundle resolve the names they do not
define through it too, for the benchmark tracer, which patches names there
that they never call.
"""

import importlib

_EXPORTS = {
    "bundle": ("Barcode", "Lifebar", "LiftedCloud", "lifebar", "lift_cloud"),
    "datasets": ("GeneratorSpec", "add_noise", "circle_normal", "circle_tautological",
                 "generate", "klein_normal", "load_cloud", "save_cloud", "tangent_lift",
                 "torus_normal"),
    "grassmann": ("MedialAxisError", "jacobi_eigh_batch"),
    "projective": ("GrassmannPoint", "MatrixPoint", "ProjectiveTriangulation",
                   "SubdivisionLimitError", "SWResult", "build_bundle_filtration", "gamma_dist",
                   "hausdorff_distance", "line_projector", "medial_distance",
                   "project_grassmannian", "rips_index_bound", "sw_class_at", "tmax",
                   "triangulate_rp", "vertex_face_values", "weak_simplicial_approximation",
                   "weak_star_check"),
    "simplicial": ("FilteredComplex", "SimplicialComplex", "barycentric_subdivision",
                   "clique_complex", "is_simplicial_map", "pullback_cochain", "rips_barcode",
                   "rips_filtration"),
    "z2": ("BitMatrix", "CochainZ2", "barcode", "betti_numbers", "coboundary_matrix",
           "gf2_rank", "gf2_solve", "h1_generator", "is_coboundary", "is_cocycle"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)

__version__ = "0.1.0"


def lazy_names(module: str):
    """A PEP 562 module __getattr__ for module: each name of _EXPORTS resolves,
    on use, in the module that defines it."""

    def __getattr__(name: str):
        if name not in _HOME:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)

    return __getattr__


__getattr__ = lazy_names(__name__)

"""Persistent first Stiefel-Whitney classes of line bundles from point clouds.

A lifted cloud in R^n x M(R^m) gets a flag-complex filtration under the
gamma-weighted product norm; wherever the matrix parts stay off the medial
axis of G_1(R^m), that filtration carries projection maps to the projective
space, and the pulled-back generator of H^1(RP^{m-1}, Z/2) is the first
persistent class.  The lifebar records where it is nonzero.
"""

from .bundle import (
    Lifebar,
    LiftedCloud,
    SubdivisionLimitError,
    SWResult,
    build_bundle_filtration,
    hausdorff_distance,
    lifebar,
    lift_cloud,
    rips_index_bound,
    sw_class_at,
    vertex_face_values,
    weak_simplicial_approximation,
    weak_star_check,
)
from .datasets import (
    GeneratorSpec,
    add_noise,
    circle_normal,
    circle_tautological,
    generate,
    klein_normal,
    load_cloud,
    save_cloud,
    tangent_lift,
    torus_normal,
)
from .grassmann import (
    GrassmannPoint,
    MatrixPoint,
    MedialAxisError,
    gamma_dist,
    line_projector,
    medial_distance,
    project_grassmannian,
    tmax,
)
from .projective import ProjectiveTriangulation, triangulate_rp
from .simplicial import (
    FilteredComplex,
    SimplicialComplex,
    barycentric_subdivision,
    clique_complex,
    is_simplicial_map,
    pullback_cochain,
    rips_barcode,
    rips_filtration,
)
from .z2 import (
    Barcode,
    BitMatrix,
    CochainZ2,
    barcode,
    betti_numbers,
    coboundary_matrix,
    gf2_rank,
    gf2_solve,
    h1_generator,
    is_coboundary,
    is_cocycle,
)

__version__ = "0.1.0"

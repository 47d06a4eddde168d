"""Lifebars and barcodes do not depend on where the cloud sits or on the order
of its points.

The filtration is built from pairwise distances only, so translating the
base points or permuting the points changes nothing in exact arithmetic.
Translation by s rounds each shifted coordinate to within ulp(s) / 2, so the
checks allow 1e-8 of the top value; a distance formula that cancels against
|e_i|^2 loses the digits that s carries and misses that by orders of
magnitude from s = 1e6 on.  A permutation keeps every coordinate, so t_dagger
must keep every bit.
"""

import numpy as np
import pytest

from swbundle.bundle import LiftedCloud, lifebar
from swbundle.cli import _cloud_barcode
from swbundle.datasets import (
    add_noise,
    circle_normal,
    circle_tautological,
    klein_normal,
    torus_normal,
)

CLOUDS = {
    "mobius-60-noisy": lambda: add_noise(circle_tautological(60), 0.02, seed=0),
    "klein-12-noisy": lambda: add_noise(klein_normal(12, 12), 0.03, seed=0),
    "circle-normal-60-g2": lambda: circle_normal(60, 2.0),
    "torus-12-noisy": lambda: add_noise(torus_normal(12, 12), 0.03, seed=0),  # empty
}
SHIFTS = (1e3, 1e6, 1e7)
MAX_EDGE = 1.3


def _shifted(cloud: LiftedCloud, s: float) -> LiftedCloud:
    return LiftedCloud(cloud.xs + s, cloud.mats, cloud.gamma)


@pytest.mark.parametrize("name", CLOUDS)
def test_translation_moves_t_dagger_by_rounding_only(name):
    cloud = CLOUDS[name]()
    base = lifebar(cloud)
    for s in SHIFTS:
        moved = lifebar(_shifted(cloud, s))
        assert moved.t_max == base.t_max  # the bound reads the matrices only
        assert moved.empty == base.empty, s
        if not base.empty:
            assert abs(moved.t_dagger - base.t_dagger) <= 1e-8 * base.t_max, s


@pytest.mark.parametrize("name", CLOUDS)
def test_translation_moves_barcode_values_by_rounding_only(name):
    # births and deaths are compared as sorted lists, each on its own: tied
    # births (circle-normal-60 at gamma 2 has several at 1.0) may pair with
    # other deaths once the last bits move
    cloud = CLOUDS[name]()
    base = _cloud_barcode(cloud, MAX_EDGE, 1)
    for s in SHIFTS:
        moved = _cloud_barcode(_shifted(cloud, s), MAX_EDGE, 1)
        for dim in (0, 1):
            a, b = np.array(base.in_dim(dim)), np.array(moved.in_dim(dim))
            assert a.shape == b.shape, (s, dim)
            for k in (0, 1):  # births, then deaths (inf where a bar stays open)
                np.testing.assert_allclose(np.sort(b[:, k]), np.sort(a[:, k]),
                                           rtol=0.0, atol=1e-8 * MAX_EDGE)


@pytest.mark.parametrize("name", CLOUDS)
def test_permutation_keeps_t_dagger_to_the_bit(name):
    cloud = CLOUDS[name]()
    perm = np.random.default_rng(7).permutation(len(cloud))
    base = lifebar(cloud)
    moved = lifebar(LiftedCloud(cloud.xs[perm], cloud.mats[perm], cloud.gamma))
    assert moved.t_max.hex() == base.t_max.hex()
    assert (None if moved.empty else moved.t_dagger.hex()) == (
        None if base.empty else base.t_dagger.hex())

"""The benchmark's workloads: which clouds are generated and which requests run.

A workload is a list of clouds (each the arguments of ``swbundle generate``)
and a list of CLI requests on those clouds.  One pass runs every request
once; the benchmark repeats passes in a closed loop.  Everything here is a
pure function of the workload name and the workload seed.

Why these workloads:

* ``lifebar-deep`` -- few, long lifebar requests on large subdivided
  complexes: barycentric subdivision, the simplicial-map check and the Z/2
  cocycle tests dominate, and the subdivision-limit failure path and peak
  memory are exercised.  Its clouds are the fixed canonical ones (the noisy
  Klein cloud is noise seed 0, the cloud whose default-limit run is the
  recorded 294 s / 7.3 GB defect), so it does not depend on the seed.  The
  request order is fixed too: the process's peak RSS depends on it.
* ``lifebar-mix`` -- about twenty short lifebar requests at default
  settings: per-request and per-evaluation overhead (cloud loading, index
  bound, distance matrix, flag build, eigensolve and face map) dominates.
  Mobius sizes span 40-80 and noise levels cycle through 0, 0.02 and 0.05;
  the seed draws the Mobius and torus noise realisations.  Sizes and levels
  are fixed so that the work of a pass, and which request sits at the
  median, barely depend on the seed.  The noisy Klein 12x12 clouds use the
  fixed noise seeds 0, 1 and 2: about one realisation in fifteen needs a
  deeper subdivision (seven levels over a lifebar instead of five or six,
  1.9 s instead of 0.4 s), which moved a pass by ~10-20% between seeds.
* ``barcode-flag`` -- flag-filtration barcodes: full flag fill and column
  reduction, almost no Grassmannian or projective work, so a lifebar
  optimisation should leave it unchanged.  The Mobius cloud is also
  queried at the intermediate bound 1.2, so that the median request is one
  request kind rather than the midpoint between the short default-bound
  requests and the long 1.3 ones.  Its clouds are fixed, so the stored
  reference barcodes cover every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# noise seed of the canonical noisy Klein 16x16 cloud
CANONICAL_NOISE_SEED = 0


@dataclass(frozen=True)
class Request:
    """One CLI request: ``swbundle <command> --input <cloud> <args>``.

    ``may_refuse`` marks the one request whose documented refusal (exit 3,
    weak star condition not met within --subdiv-limit) is an accepted
    outcome; a lifebar that passes the oracle is accepted there too.
    """

    name: str
    cloud: str
    command: str
    args: tuple = ()
    may_refuse: bool = False


@dataclass(frozen=True)
class Workload:
    clouds: dict  # cloud name -> tuple of `swbundle generate` arguments
    requests: list


def _cloud(dataset, count, count_v=None, gamma=1.0, noise=0.0, seed=0) -> tuple:
    args = ["--dataset", dataset, "--count", str(count), "--gamma", repr(gamma)]
    if count_v is not None:
        args += ["--count-v", str(count_v)]
    if noise:
        args += ["--noise", repr(noise), "--seed", str(seed)]
    return tuple(args)


KLEIN16_NOISY = _cloud("klein", 16, noise=0.05, seed=CANONICAL_NOISE_SEED)


def _lifebar_deep(rng: random.Random) -> Workload:
    clouds = {
        "circle-normal-60-g2": _cloud("circle-normal", 60, gamma=2.0),
        "circle-normal-60-g1": _cloud("circle-normal", 60, gamma=1.0),
        "klein-16-n0.05": KLEIN16_NOISY,
    }
    requests = [
        Request("lifebar circle-normal-60-g2", "circle-normal-60-g2", "lifebar"),
        Request("lifebar circle-normal-60-g1", "circle-normal-60-g1", "lifebar"),
        Request("lifebar klein-16-n0.05 limit 2", "klein-16-n0.05", "lifebar",
                ("--subdiv-limit", "2"), may_refuse=True),
    ]
    return Workload(clouds, requests)


MIX_MOBIUS = 15
MIX_NOISES = (0.0, 0.02, 0.05)


def _lifebar_mix(rng: random.Random) -> Workload:
    clouds = {}
    for i in range(MIX_MOBIUS):
        count = 40 + round(40 * i / (MIX_MOBIUS - 1))
        clouds[f"mobius-{count}"] = _cloud(
            "mobius", count, noise=MIX_NOISES[i % len(MIX_NOISES)], seed=rng.randrange(2**31))
    for i in range(3):
        clouds[f"torus-12-{i}"] = _cloud("torus", 12, noise=0.03, seed=rng.randrange(2**31))
        # fixed noise seeds: some realisations need a deeper subdivision,
        # which would move a pass's work by ~20% from one workload seed to the next
        clouds[f"klein-12-{i}"] = _cloud("klein", 12, noise=0.03,
                                         seed=CANONICAL_NOISE_SEED + i)
    clouds["klein-16"] = _cloud("klein", 16)
    requests = [Request(f"lifebar {name}", name, "lifebar") for name in clouds]
    return Workload(clouds, requests)


def _barcode_flag(rng: random.Random) -> Workload:
    clouds = {
        "mobius-100": _cloud("mobius", 100),
        "klein-16-n0.05": KLEIN16_NOISY,
    }
    requests = [Request("barcode mobius-100 max-edge 1.2", "mobius-100", "barcode",
                        ("--max-edge", "1.2"))]
    for name in clouds:
        requests.append(Request(f"barcode {name} max-edge 1.3", name, "barcode",
                                ("--max-edge", "1.3")))
        requests.append(Request(f"barcode {name} default bound", name, "barcode"))
    return Workload(clouds, requests)


WORKLOADS = {
    "lifebar-deep": _lifebar_deep,
    "lifebar-mix": _lifebar_mix,
    "barcode-flag": _barcode_flag,
}


def build(name: str, seed: int) -> Workload:
    """The clouds and requests of workload ``name`` for the given seed."""
    return WORKLOADS[name](random.Random(seed))

"""Command line front end: generate clouds, compute barcodes, compute lifebars.

Exit codes: 0 on success, 2 on bad input or when memory runs out.
Verbosity comes from the SWBUNDLE_LOG environment variable (debug / info /
warning).
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import datasets, lazy_names
from .bundle import _check_max_value, _edge_blocks, _flag_barcode, checked_index_bound, lifebar
from .render import barcode_svg, barcode_text, lifebar_svg, lifebar_text

log = logging.getLogger("swbundle")

EXIT_BAD_INPUT = 2

_DATASET_ALIASES = {
    "circle-normal": "circle_normal",
    "circle-tautological": "circle_tautological",
    "mobius": "circle_tautological",
    "torus": "torus_normal",
    "klein": "klein_normal",
}
_SUFFIXES = {"svg": ".svg", "text": ".txt"}


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swbundle",
        description="Persistent first Stiefel-Whitney classes of line-bundle point clouds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a generated cloud to a JSON file")
    gen.add_argument("--dataset", required=True, choices=sorted(_DATASET_ALIASES))
    gen.add_argument("--count", type=int, required=True, help="points (or grid rows)")
    gen.add_argument("--count-v", type=int, default=None, help="grid columns for surfaces")
    gen.add_argument("--gamma", type=float, default=1.0)
    gen.add_argument("--noise", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", required=True)

    bar = sub.add_parser("barcode", help="persistence barcode of a cloud's flag filtration")
    bar.add_argument("--input", required=True)
    bar.add_argument("--max-edge", type=float, default=None,
                     help="largest filtration value (default: the bundle index bound)")
    bar.add_argument("--max-dim", type=int, default=1, choices=(0, 1),
                     help="largest reported degree: 0 or 1 (the flag complex's H2 "
                          "is not computed)")
    bar.add_argument("--output", required=True)
    bar.add_argument("--render", choices=("svg", "text", "json"), default="svg")
    bar.add_argument("--render-output", default=None)

    life = sub.add_parser("lifebar", help="lifebar of the first persistent class")
    life.add_argument("--input", required=True)
    life.add_argument("--resolution", type=float, default=0.02,
                      help="validated (positive and finite) and written to the output; "
                           "steers nothing, since the onset is exact")
    life.add_argument("--subdiv-limit", type=int, default=4,
                      help="validated (non-negative); steers nothing, since the parity "
                           "sweep needs no subdivision")
    life.add_argument("--output", required=True)
    life.add_argument("--render", choices=("svg", "text", "json"), default="svg")
    life.add_argument("--render-output", default=None)
    return parser


def _rendering_path(args) -> Optional[Path]:
    """The file --render writes (None for json), refused when it is --output's own."""
    if args.render == "json":
        return None
    path = Path(args.render_output or Path(args.output).with_suffix(_SUFFIXES[args.render]))
    if os.path.abspath(path) == os.path.abspath(args.output):  # abspath also folds ".."
        raise ValueError(f"the {args.render} rendering {str(path)!r} would overwrite "
                         f"--output {args.output!r}: give another --output or --render-output")
    return path


def _write_rendering(args, path: Optional[Path], svg, text, *data) -> None:
    """Write svg(*data) or text(*data) to path, as --render asks (json: no path)."""
    if path is not None:
        path.write_text((svg if args.render == "svg" else text)(*data))


def _cmd_generate(args) -> int:
    spec = datasets.GeneratorSpec(
        kind=_DATASET_ALIASES[args.dataset],
        count=args.count,
        count2=args.count_v,
        noise=args.noise,
        seed=args.seed,
        gamma=args.gamma,
    )
    cloud = datasets.generate(spec)
    datasets.save_cloud(cloud, args.output)
    log.info("wrote %d points to %s", len(cloud), args.output)
    return 0


def _cmd_barcode(args) -> int:
    if args.max_edge is not None and not math.isfinite(args.max_edge):
        raise ValueError(f"--max-edge must be finite, got {args.max_edge}")
    rendering = _rendering_path(args)
    cloud = datasets.load_cloud(args.input)
    max_edge = args.max_edge if args.max_edge is not None else checked_index_bound(cloud)
    bc = _cloud_barcode(cloud, max_edge, args.max_dim)
    Path(args.output).write_text(bc.to_json() + "\n")
    _write_rendering(args, rendering, barcode_svg, barcode_text, bc, max_edge)
    log.info("wrote %d bars to %s", len(bc.intervals), args.output)
    return 0


def _cloud_barcode(cloud, max_value: float, max_dim: int):
    """rips_barcode(cloud.distance_matrix(), max_value, max_dim), from the
    edges that _edge_blocks lists in one block: no N x N matrix is built."""
    _check_max_value(max_value)
    n = len(cloud)
    none = np.zeros(0, dtype=int)
    # a float64 bound past ~1e154 squares to inf in the edge screen, not to an OverflowError
    with np.errstate(over="ignore"):
        i, j, values = next(_edge_blocks(cloud, np.float64(max_value), max(1, n * (n - 1) // 2)),
                            (none, none, np.zeros(0)))
    return _flag_barcode(n, i, j, values.tolist(), max_dim)


def _cmd_lifebar(args) -> int:
    if args.subdiv_limit < 0:  # kept in the interface; the sweep needs no subdivision
        raise ValueError(f"subdivision limit must be non-negative, got {args.subdiv_limit}")
    rendering = _rendering_path(args)
    cloud = datasets.load_cloud(args.input)
    lb = lifebar(cloud, resolution=args.resolution)
    Path(args.output).write_text(lb.to_json() + "\n")
    _write_rendering(args, rendering, lifebar_svg, lifebar_text, lb)
    state = "empty" if lb.empty else f"nonzero after {lb.t_dagger!r}"
    log.info("lifebar %s on [0, %g)", state, lb.t_max)
    return 0


def main(argv=None) -> int:
    level = os.environ.get("SWBUNDLE_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "barcode":
            return _cmd_barcode(args)
        return _cmd_lifebar(args)
    except (ValueError, OSError, KeyError) as err:  # json.JSONDecodeError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except MemoryError as err:  # numpy's "Unable to allocate ..." names the size
        detail = f": {err}" if str(err) else ""
        print(f"error: {args.command} ran out of memory{detail}", file=sys.stderr)
        return EXIT_BAD_INPUT


# bench/spans.py patches names here that this module never calls: each resolves
# through the package's table
__getattr__ = lazy_names(__name__)


if __name__ == "__main__":
    sys.exit(main())

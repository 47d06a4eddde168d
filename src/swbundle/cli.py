"""Command line front end: generate clouds, compute barcodes, compute lifebars.

Exit codes: 0 on success, 2 on bad input or when memory runs out.
Verbosity comes from the SWBUNDLE_LOG environment variable, a logging level
name (debug / info / warning); any other value reads as warning.
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import sys
from pathlib import Path

from . import datasets, lazy_names
from .bundle import _flag_barcode, _flag_graph, checked_index_bound, lifebar
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
    cloud = argparse.ArgumentParser(add_help=False)  # what barcode and lifebar read and write
    cloud.add_argument("--input", required=True)
    cloud.add_argument("--output", required=True)
    cloud.add_argument("--render", choices=("svg", "text", "json"), default="svg")
    cloud.add_argument("--render-output", default=None)

    gen = sub.add_parser("generate", help="write a generated cloud to a JSON file")
    gen.set_defaults(run=_cmd_generate)
    gen.add_argument("--dataset", required=True, choices=sorted(_DATASET_ALIASES))
    gen.add_argument("--count", type=int, required=True, help="points (or grid rows)")
    gen.add_argument("--count-v", type=int, default=None, help="grid columns for surfaces")
    gen.add_argument("--gamma", type=float, default=1.0)
    gen.add_argument("--noise", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", required=True)

    bar = sub.add_parser("barcode", parents=[cloud],
                         help="persistence barcode of a cloud's flag filtration")
    bar.set_defaults(run=_cmd_barcode)
    bar.add_argument("--max-edge", type=float, default=None,
                     help="largest filtration value (default: the bundle index bound)")
    bar.add_argument("--max-dim", type=int, default=1, choices=(0, 1),
                     help="largest reported degree: 0 or 1 (the flag complex's H2 "
                          "is not computed)")

    life = sub.add_parser("lifebar", parents=[cloud], help="lifebar of the first persistent class")
    life.set_defaults(run=_cmd_lifebar)
    life.add_argument("--resolution", type=float, default=0.02,
                      help="validated (positive and finite) and written to the output; "
                           "steers nothing, since the onset is exact")
    life.add_argument("--subdiv-limit", type=int, default=4,
                      help="validated (non-negative); steers nothing, since the parity "
                           "sweep needs no subdivision")
    return parser


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


def _file_key(path) -> tuple:
    """What a write to path reaches: (st_dev, st_ino) of its file, or of a file
    not made yet, its directory's pair and its name.  A dangling link reads as
    the path it names, and a path through a missing directory, which no write
    passes, reads folded ("sub/.." goes) as os.path.realpath would fold it."""
    try:
        st = os.stat(path)
        return st.st_dev, st.st_ino
    except OSError:  # realpath only for a link: it costs a system call per component
        path = os.path.realpath(path) if os.path.islink(path) else os.fspath(path)
    try:
        st = os.stat(os.path.dirname(path) or ".")
        return st.st_dev, st.st_ino, os.path.basename(path)
    except OSError:
        folded = os.path.abspath(path)
    return (folded,) if folded == path else _file_key(folded)


def _cloud_command(args, compute, svg, text):
    """Load --input, compute(cloud) -> (result, *data), write result.to_json()
    to --output and svg or text(result, *data) as --render asks; return result.
    Before the input is read, _file_key compares the paths through hard and
    symbolic links: none may be --input, nor the rendering --output."""
    rendering = None if args.render == "json" else Path(
        args.render_output or Path(args.output).with_suffix(_SUFFIXES[args.render]))
    source, output = _file_key(args.input), _file_key(args.output)
    rendered = rendering and _file_key(rendering)  # None for --render json
    if rendered == output:
        raise ValueError(f"the {args.render} rendering {str(rendering)!r} would overwrite "
                         f"--output {args.output!r}: give another --output or --render-output")
    for what, path, key in (("--output", args.output, output),
                            (f"the {args.render} rendering", rendering, rendered)):
        if key == source:
            raise ValueError(f"{what} {str(path)!r} would overwrite --input {args.input!r}")
    result, *data = compute(datasets.load_cloud(args.input))
    Path(args.output).write_text(result.to_json() + "\n")
    if rendering is not None:
        rendering.write_text((svg if args.render == "svg" else text)(result, *data))
    return result


def _cmd_barcode(args) -> int:
    if args.max_edge is not None and not (math.isfinite(args.max_edge) and args.max_edge >= 0):
        raise ValueError(f"--max-edge must be finite and non-negative, got {args.max_edge}")

    def compute(cloud):
        max_edge = args.max_edge if args.max_edge is not None else checked_index_bound(cloud)
        return _cloud_barcode(cloud, max_edge, args.max_dim), max_edge

    bc = _cloud_command(args, compute, barcode_svg, barcode_text)
    log.info("wrote %d bars to %s", len(bc.intervals), args.output)
    return 0


def _cloud_barcode(cloud, max_value: float, max_dim: int):
    """rips_barcode(cloud.distance_matrix(), max_value, max_dim), from the
    edges that _flag_graph lists, which _flag_barcode cuts, checks and sorts
    itself: no N x N distance matrix is built."""
    return _flag_barcode(len(cloud), *_flag_graph(cloud, max_value), max_dim)


def _cmd_lifebar(args) -> int:
    if args.subdiv_limit < 0:  # kept in the interface; the sweep needs no subdivision
        raise ValueError(f"subdivision limit must be non-negative, got {args.subdiv_limit}")
    lb = _cloud_command(args, lambda cloud: (lifebar(cloud, resolution=args.resolution),),
                        lifebar_svg, lifebar_text)
    state = "empty" if lb.empty else f"nonzero after {lb.t_dagger!r}"
    log.info("lifebar %s on [0, %g)", state, lb.t_max)
    return 0


def main(argv=None) -> int:
    level = logging.getLevelName(os.environ.get("SWBUNDLE_LOG", "warning").upper())
    logging.basicConfig(level=level if isinstance(level, int) else "WARNING", format="%(message)s")
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
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

"""Write the cloud files of one workload with ``swbundle generate``.

    python3 bench/generate.py --workload lifebar-mix --seed 1 --out DIR

This is the benchmark's set-up step, run in a fresh process so that its
wall time covers interpreter start, imports and cloud generation: the time
from process start to the first request.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from swbundle import cli  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    for name, gen_args in workloads.build(args.workload, args.seed).clouds.items():
        code = cli.main(["generate", *gen_args, "--output", str(out / f"{name}.json")])
        if code != 0:
            print(f"generate {name} exited {code}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

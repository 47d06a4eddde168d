"""Regenerate the stored reference barcodes of the barcode-flag workload.

    python3 bench/make_refs.py

Runs every barcode request of the workload once through ``swbundle.cli`` and
writes the intervals to ``bench/refs/barcodes.json``.  The stored file holds
the barcodes of the commit that defined the benchmark; regenerate it only
when a barcode is meant to change, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from swbundle import cli  # noqa: E402


def main() -> int:
    workload = workloads.build("barcode-flag", 0)
    references = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, gen_args in workload.clouds.items():
            if cli.main(["generate", *gen_args, "--output", f"{tmp}/{name}.json"]) != 0:
                return 1
        for request in sorted(workload.requests, key=lambda r: r.name):
            out = f"{tmp}/out.json"
            argv = [request.command, "--input", f"{tmp}/{request.cloud}.json",
                    *request.args, "--output", out, "--render", "json"]
            if cli.main(argv) != 0:
                return 1
            with open(out) as fh:
                references[request.name] = oracle.barcode_rows(json.load(fh))
    path = BENCH / "refs" / "barcodes.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text("{\n" + ",\n".join(
        f"{json.dumps(k)}: {json.dumps(v)}" for k, v in references.items()) + "\n}\n")
    print(f"wrote {len(references)} barcodes to {path.relative_to(BENCH.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

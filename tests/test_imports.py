"""The CLI's commands load no reference module, and the package exports lazily.

Run in a fresh interpreter, since the pytest process itself imports every
module.  The reference modules (simplicial, z2, projective) hold the paper's
decider and the test oracles; the production modules (cli, datasets, render,
bundle, grassmann) must answer every command without them.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import sys
from pathlib import Path

import swbundle.cli as cli

REFERENCE = ("swbundle.simplicial", "swbundle.z2", "swbundle.projective")
tmp = Path(sys.argv[1])
cloud = str(tmp / "c.json")
runs = [
    ["generate", "--dataset", "klein", "--count", "8", "--noise", "0.03", "--output", cloud],
    ["lifebar", "--input", cloud, "--output", str(tmp / "lb.json")],
    ["barcode", "--input", cloud, "--output", str(tmp / "bc.json")],
    ["barcode", "--input", cloud, "--max-edge", "1.3", "--output", str(tmp / "bc13.json")],
]
for argv in runs:
    assert cli.main(argv) == 0, argv
loaded = [name for name in REFERENCE if name in sys.modules]
assert not loaded, loaded

import swbundle

missing = [name for name in swbundle.__all__ if getattr(swbundle, name, None) is None]
assert not missing, missing
star = {}
exec("from swbundle import *", star)
unbound = sorted(set(swbundle.__all__) - set(star))
assert not unbound, unbound
print("ok", len(swbundle.__all__))
"""


def test_cli_loads_no_reference_module(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok ")

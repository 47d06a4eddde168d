import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from swbundle.bundle import LiftedCloud, Lifebar, checked_index_bound
from swbundle.cli import _cloud_barcode, main
from swbundle.datasets import (
    add_noise,
    circle_tautological,
    klein_normal,
    load_cloud,
    save_cloud,
)
from swbundle.render import barcode_svg, barcode_text, lifebar_svg, lifebar_text
from swbundle.simplicial import rips_barcode
from swbundle.z2 import INF, Barcode

from test_rips_barcode import EXTREME_ENDS
from test_sign_transport import TIE, sign_onset


def run(*args):
    return main(list(args))


def _mobius_rows(rows):
    cloud = circle_tautological(12)
    return LiftedCloud(cloud.xs[rows], cloud.mats[rows], cloud.gamma)


IDENTITY_CLOUDS = {
    "one-point": lambda: _mobius_rows([0]),
    # three points repeated: zero-length edges
    "coincident": lambda: _mobius_rows([0, 1, 1, 2, 3, 4, 5, 5, 5, 6, 7, 8, 9, 10, 11, 11]),
    "mobius-100": lambda: circle_tautological(100),
    "klein-8x8-noisy": lambda: add_noise(klein_normal(8, 8), 0.05, seed=4),
}


class TestGenerate:
    def test_writes_cloud(self, tmp_path):
        out = tmp_path / "cloud.json"
        assert run("generate", "--dataset", "mobius", "--count", "50",
                   "--gamma", "1", "--seed", "7", "--output", str(out)) == 0
        obj = json.loads(out.read_text())
        assert len(obj["points"]) == 50 and obj["gamma"] == 1.0

    def test_byte_identical_per_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("generate", "--dataset", "mobius", "--count", "30",
                       "--noise", "0.05", "--seed", "11", "--output", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_minimal_cloud(self, tmp_path):
        out = tmp_path / "c.json"
        assert run("generate", "--dataset", "circle-normal", "--count", "3",
                   "--output", str(out)) == 0
        assert len(json.loads(out.read_text())["points"]) == 3

    def test_bad_count_exits_2(self, tmp_path):
        assert run("generate", "--dataset", "mobius", "--count", "2",
                   "--output", str(tmp_path / "x.json")) == 2
        assert run("generate", "--dataset", "mobius", "--count", "10", "--count-v", "5",
                   "--output", str(tmp_path / "x.json")) == 2

    @pytest.mark.parametrize("counts", [
        ("--dataset", "mobius", "--count", str(2 ** 20 + 1)),
        ("--dataset", "klein", "--count", "17", "--count-v", "61681"),
        ("--dataset", "torus", "--count", "1025"),
        ("--dataset", "klein", "--count", "100000", "--count-v", "100000"),
    ], ids=["mobius-cap+1", "klein-cap+1", "torus-square", "klein-10^10"])
    def test_point_cap_exits_2_before_allocating(self, tmp_path, capsys, counts):
        # 2**20 + 1 = 17 * 61681; a torus or Klein grid without --count-v is square
        out = tmp_path / "x.json"
        tracemalloc.start()
        try:
            code = run("generate", *counts, "--output", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2 ** 20
        assert "more than the cap of 1048576 (2**20)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["nan", "inf", "-0.1", "1e308"])
    def test_bad_noise_exits_2(self, tmp_path, capsys, noise):
        # at 1e308, sigma times a normal draw overflows: refused without a RuntimeWarning
        message = ("noise level 1e+308 overflows a float" if noise == "1e308" else
                   f"noise level must be finite and nonnegative, got {float(noise)}")
        out = tmp_path / "x.json"
        assert run("generate", "--dataset", "mobius", "--count", "20",
                   "--noise", noise, "--output", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        # refused by name before any array exists, not by numpy's bare message
        out = tmp_path / "x.json"
        assert run("generate", "--dataset", "mobius", "--count", "20", "--noise", "0.1",
                   "--seed", "-1", "--output", str(out)) == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    def test_overflowing_gamma_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run("generate", "--dataset", "mobius", "--count", "5",
                   "--gamma", "1e308", "--output", str(out)) == 2
        assert "squared distances overflow a float" in capsys.readouterr().err
        assert not out.exists()


class TestBarcodeCommand:
    def test_mobius_barcode(self, tmp_path):
        cloud = tmp_path / "c.json"
        out = tmp_path / "bc.json"
        run("generate", "--dataset", "mobius", "--count", "40", "--output", str(cloud))
        assert run("barcode", "--input", str(cloud), "--output", str(out),
                   "--render", "svg") == 0
        bc = Barcode.from_json(out.read_text())
        assert sum(1 for b, d in bc.in_dim(0) if d == INF) == 1
        svg = (tmp_path / "bc.svg").read_text()
        assert svg.startswith("<svg") and "http" not in svg.split("\n", 1)[1]

    def test_long_h1_for_circle_normal(self, tmp_path):
        cloud = tmp_path / "c.json"
        out = tmp_path / "bc.json"
        run("generate", "--dataset", "circle-normal", "--count", "60",
            "--output", str(cloud))
        assert run("barcode", "--input", str(cloud), "--max-edge", "1.3",
                   "--output", str(out), "--render", "text") == 0
        bc = Barcode.from_json(out.read_text())
        bars = bc.in_dim(1)
        longest = max(bars, key=lambda bd: bd[1] - bd[0])
        assert longest[1] - longest[0] > 0.5
        assert (tmp_path / "bc.txt").exists()

    def test_barcode_memory_follows_the_edges(self):
        # noisy Klein 16x16 at 1.3: the bound guards the reduction's 2.32 MB
        # peak, with the rank matrix in int16, the edge values as one float64
        # array and each emergent column stored as a trimmed copy of its
        # stacked row.  _flag_graph's own 0.63 MB peak (row tiles, pair
        # blocks) is guarded in test_edge_blocks.py; its (pairs x k) gather
        # of the screened rows once traced 2.36 MB.  Emergent
        # columns kept as views that pin their blocks read 2.76 MB, an n x n
        # int64 rank matrix 3.71 MB, the values as a Python list 2.65 MB, and
        # coboundary keys built through full-size int64 temporaries 3.83 MB
        cloud = add_noise(klein_normal(16, 16), 0.05, seed=0)
        _cloud_barcode(cloud, 1.3, 1)  # first-call allocations are not the barcode's
        tracemalloc.start()
        try:
            _cloud_barcode(cloud, 1.3, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2 ** 20

    @pytest.mark.parametrize("max_dim", ["-1", "2"])
    def test_max_dim_outside_0_1_exits_2(self, tmp_path, max_dim):
        cloud = tmp_path / "c.json"
        out = tmp_path / "bc.json"
        run("generate", "--dataset", "mobius", "--count", "20", "--output", str(cloud))
        with pytest.raises(SystemExit) as exc:
            run("barcode", "--input", str(cloud), "--max-dim", max_dim, "--output", str(out))
        assert exc.value.code == 2
        assert not out.exists()

    def test_max_dim_0_reports_h0_only(self, tmp_path):
        cloud = tmp_path / "c.json"
        out = tmp_path / "bc.json"
        run("generate", "--dataset", "circle-normal", "--count", "30", "--output", str(cloud))
        assert run("barcode", "--input", str(cloud), "--max-edge", "1.3", "--max-dim", "0",
                   "--output", str(out), "--render", "json") == 0
        bc = Barcode.from_json(out.read_text())
        assert bc.intervals and all(d == 0 for d, _, _ in bc.intervals)

    @pytest.mark.parametrize("max_edge", ["nan", "-1", "inf"])
    def test_bad_max_edge_exits_2(self, tmp_path, capsys, max_edge):
        cloud = tmp_path / "c.json"
        out = tmp_path / "bc.json"
        run("generate", "--dataset", "mobius", "--count", "20", "--output", str(cloud))
        # refused before --input is read: a missing cloud gets the same message
        for path in (cloud, tmp_path / "missing.json"):
            assert run("barcode", "--input", str(path), "--max-edge", max_edge,
                       "--output", str(out)) == 2
            assert "--max-edge" in capsys.readouterr().err
            assert not out.exists() and not (tmp_path / "bc.svg").exists()

    @pytest.mark.parametrize("render", ["svg", "text"])
    def test_largest_finite_max_edge_renders(self, tmp_path, render):
        # the axis margin past the largest float would make it infinite
        cloud = tmp_path / "c.json"
        out = tmp_path / "bc.json"
        run("generate", "--dataset", "mobius", "--count", "20", "--output", str(cloud))
        assert run("barcode", "--input", str(cloud), "--max-edge", "1.79e308",
                   "--output", str(out), "--render", render) == 0
        drawn = (tmp_path / f"bc.{'svg' if render == 'svg' else 'txt'}").read_text()
        assert "nan" not in drawn
        coords = re.findall(r' [xy][12]?="([^"]*)"', drawn)
        assert (render == "text" or coords) and all(math.isfinite(float(c)) for c in coords)

    @pytest.mark.parametrize("name", sorted(IDENTITY_CLOUDS))
    def test_matches_rips_barcode_of_the_distance_matrix(self, tmp_path, name):
        # the CLI lists the edges without the N x N matrix; its JSON and text
        # must still be rips_barcode(cloud.distance_matrix(), v, d)'s, byte for byte
        path, out = tmp_path / "c.json", tmp_path / "bc.json"
        save_cloud(IDENTITY_CLOUDS[name](), str(path))
        cloud = load_cloud(str(path))
        D = cloud.distance_matrix()
        for bound in (0.0, 1e-300, 1.2, 1.3, None, 1e200, 1.79e308):
            option = [] if bound is None else ["--max-edge", repr(bound)]
            max_edge = checked_index_bound(cloud) if bound is None else bound
            for max_dim in (0, 1):
                assert run("barcode", "--input", str(path), *option, "--max-dim", str(max_dim),
                           "--output", str(out), "--render", "text") == 0
                bc = rips_barcode(D, max_edge, max_dim)
                assert out.read_text() == bc.to_json() + "\n", (bound, max_dim)
                assert out.with_suffix(".txt").read_text() == barcode_text(bc, max_edge)

    def test_missing_input_exits_2(self, tmp_path):
        assert run("barcode", "--input", str(tmp_path / "nope.json"),
                   "--output", str(tmp_path / "x.json")) == 2

    def test_module_entry_point_passes_the_exit_code(self, tmp_path):
        # python -m swbundle.cli exits with what main returns
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        cloud = tmp_path / "c.json"
        runs = (["generate", "--dataset", "mobius", "--count", "8", "--output", str(cloud)],
                ["barcode", "--input", str(tmp_path / "nope.json"),
                 "--output", str(tmp_path / "x.json")])
        procs = [subprocess.run([sys.executable, "-m", "swbundle.cli", *argv], env=env,
                                capture_output=True, text=True, timeout=120) for argv in runs]
        assert [p.returncode for p in procs] == [0, 2] and cloud.exists()
        assert procs[1].stderr.startswith("error: ")

    def test_empty_cloud_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "m": 2, "gamma": 1.0, "points": []}')
        assert run("barcode", "--input", str(bad),
                   "--output", str(tmp_path / "x.json")) == 2


class TestLifebarCommand:
    def test_mobius_solid_bar(self, tmp_path):
        cloud = tmp_path / "c.json"
        out = tmp_path / "lb.json"
        run("generate", "--dataset", "mobius", "--count", "60", "--output", str(cloud))
        assert run("lifebar", "--input", str(cloud), "--resolution", "0.02",
                   "--output", str(out), "--render", "svg") == 0
        obj = json.loads(out.read_text())
        assert obj["t_dagger"] is not None and obj["t_dagger"] <= 0.05
        svg = (tmp_path / "lb.svg").read_text()
        assert 'fill="#1a1a1a"' in svg  # solid section present

    def test_circle_normal_fully_hatched(self, tmp_path):
        cloud = tmp_path / "c.json"
        out = tmp_path / "lb.json"
        run("generate", "--dataset", "circle-normal", "--count", "60",
            "--output", str(cloud))
        assert run("lifebar", "--input", str(cloud), "--resolution", "0.05",
                   "--output", str(out), "--render", "svg") == 0
        obj = json.loads(out.read_text())
        assert obj["t_dagger"] is None
        svg = (tmp_path / "lb.svg").read_text()
        assert 'fill="#1a1a1a"' not in svg  # nothing solid: empty lifebar

    @pytest.mark.parametrize("render", ["svg", "text"])
    def test_zero_bound_renders(self, tmp_path, render):
        # gamma underflows the index bound to 0.0: the bar is all zero part
        cloud = tmp_path / "c.json"
        cloud.write_text(json.dumps({"n": 2, "m": 2, "gamma": 5e-324, "points": [
            {"x": [k, 0], "A": [[0.5, 0], [0, 0]]} for k in range(4)]}))
        out = tmp_path / "lb.json"
        assert run("lifebar", "--input", str(cloud), "--output", str(out),
                   "--render", render) == 0
        assert json.loads(out.read_text())["t_max"] == 0.0
        drawn = out.with_suffix(".svg" if render == "svg" else ".txt").read_text()
        assert "nan" not in drawn
        if render == "svg":
            assert 'width="544" height="16" fill="url(#hatch)"' in drawn
        else:
            assert drawn.startswith("/" * 79 + "\n")

    def test_subdivision_limit_0_exits_0(self, tmp_path):
        cloud = tmp_path / "c.json"
        run("generate", "--dataset", "circle-normal", "--count", "8",
            "--output", str(cloud))
        rc = run("lifebar", "--input", str(cloud), "--subdiv-limit", "0",
                 "--resolution", "0.02", "--output", str(tmp_path / "lb.json"))
        assert rc == 0

    def test_lines_in_r8(self, tmp_path):
        # the projective triangulations stop at m = 6; the sweep needs none
        rng = np.random.default_rng(8)
        theta = 2.0 * np.pi * np.arange(40) / 40
        frame = np.linalg.qr(rng.normal(size=(8, 8)))[0]
        lines = np.column_stack([np.cos(theta / 2), np.sin(theta / 2), np.zeros((40, 6))])
        lines = (lines + 0.05 * rng.normal(size=lines.shape)) @ frame.T
        cloud = tmp_path / "c.json"
        cloud.write_text(json.dumps({"n": 2, "m": 8, "gamma": 1.0, "points": [
            {"x": [math.cos(a), math.sin(a)], "v": list(v)} for a, v in zip(theta, lines)]}))
        out = tmp_path / "lb.json"
        assert run("lifebar", "--input", str(cloud), "--output", str(out),
                   "--render", "text") == 0
        obj = json.loads(out.read_text())
        t_star = sign_onset(load_cloud(str(cloud)))
        assert t_star is not None and obj["t_dagger"] is not None
        assert obj["t_dagger"] - TIE < t_star <= obj["t_dagger"] + obj["resolution"]
        assert obj["evaluations"] == []

    def test_answers_without_the_paper_pipeline(self, tmp_path, monkeypatch):
        import swbundle.bundle as bundle
        import swbundle.cli as cli
        import swbundle.projective as projective
        import swbundle.simplicial as simplicial
        import swbundle.z2 as z2

        cloud = tmp_path / "c.json"
        run("generate", "--dataset", "klein", "--count", "12", "--noise", "0.03",
            "--output", str(cloud))
        bounds = ([], ["--max-edge", "1.3"])
        bars = tmp_path / "bars.json"
        expected = []
        for bound in bounds:
            assert run("barcode", "--input", str(cloud), *bound, "--output", str(bars)) == 0
            expected.append(bars.read_text())

        def refuse(*args, **kwargs):
            raise AssertionError("lifebar and barcode must not call the reference pipeline")

        # cli's names first: cli resolves them in their home modules, and the
        # undo would otherwise leave refuse in cli for the later tests
        for module, name in ((cli, "triangulate_rp"), (cli, "rips_filtration"), (cli, "barcode"),
                             (projective, "weak_simplicial_approximation"),
                             (projective, "barycentric_subdivision"),
                             (projective, "is_coboundary"),
                             (simplicial, "_flag_fill"), (simplicial, "rips_filtration"),
                             (z2, "barcode"), (bundle.LiftedCloud, "distance_matrix"),
                             (simplicial, "_flag_edges")):
            monkeypatch.setattr(module, name, refuse)
        lb = bundle.lifebar(load_cloud(str(cloud)))
        out = tmp_path / "lb.json"
        assert run("lifebar", "--input", str(cloud), "--output", str(out)) == 0
        assert not lb.empty
        assert json.loads(out.read_text())["t_dagger"] == lb.t_dagger
        for bound, text in zip(bounds, expected):
            assert run("barcode", "--input", str(cloud), *bound, "--output", str(bars)) == 0
            assert bars.read_text() == text
        assert Barcode.from_json(expected[1]).in_dim(1)  # at 1.3 the H1 reduction has work

    @pytest.mark.parametrize("option, value, message", [
        ("--resolution", "nan", "resolution must be positive and finite"),
        ("--subdiv-limit", "-1", "subdivision limit must be non-negative"),
    ], ids=["resolution-nan", "subdiv-limit-negative"])
    def test_bad_option_exits_2(self, tmp_path, capsys, option, value, message):
        cloud = tmp_path / "c.json"
        out = tmp_path / "lb.json"
        run("generate", "--dataset", "mobius", "--count", "20", "--output", str(cloud))
        assert run("lifebar", "--input", str(cloud), option, value, "--output", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def _corrupt(obj, where):
    if where == "x":
        obj["points"][3]["x"][0] = float("nan")
    elif where == "A":
        obj["points"][5]["A"][1][1] = float("inf")
    elif where == "v":  # directions in R^3 under a header with m = 2
        for p in obj["points"]:
            p["v"] = [1.0, 0.0, 1.0]
            del p["A"]
    elif where == "v mixed":
        for i, p in enumerate(obj["points"]):
            p["v"] = [1.0, 0.0, 1.0] if i == 4 else [1.0, 0.0]
            del p["A"]
    elif where == "v mixed object":  # points 0-2 keep "A", the rest carry "v"
        for p in obj["points"][3:]:
            p["v"] = [1.0, 0.0]
            del p["A"]
        obj["points"][3]["v"] = {"a": 1}
    elif where == "points":
        obj["points"] = 5
    elif where == "point":
        obj["points"] = [1]
    elif where == "n":
        obj["n"] = 2.5
    elif where == "m":
        obj["m"] = "2"
    elif where == "document":
        return [obj]
    elif where == "x big int":  # a JSON integer past the largest float
        obj["points"][2]["x"][0] = 10 ** 400
    elif where == "A big int":
        obj["points"][2]["A"][0][1] = 10 ** 400
    elif where == "n big int":  # a header size past any array
        obj["n"] = 10 ** 400
    elif where in ("n negative", "m negative"):
        obj[where[0]] = -1
    elif where == "m big float":
        obj["m"] = 1e300
    elif where == "gamma big int":
        obj["gamma"] = 10 ** 400
    elif where == "v big int":
        for p in obj["points"]:
            p["v"] = [1.0, 0.0]
            del p["A"]
        obj["points"][2]["v"][1] = 10 ** 400
    elif where == "gamma 1e308":  # finite, but the squared distances overflow
        obj["gamma"] = 1e308
    elif where == "gamma string":  # JSON "1", true and null: not numbers
        obj["gamma"] = "1"
    elif where == "gamma bool":
        obj["gamma"] = True
    elif where == "gamma null":
        obj["gamma"] = None
    elif where == "x string":  # numbers that float() would read
        obj["points"][2]["x"] = [str(v) for v in obj["points"][2]["x"]]
    elif where == "A bool":
        obj["points"][2]["A"][0] = [True, 0]
    elif where == "v string":
        for p in obj["points"]:
            p["v"] = [1.0, 0.0]
            del p["A"]
        obj["points"][2]["v"] = ["0", "1"]
    elif where == "A ragged":
        obj["points"][2]["A"][1] = [0.0]
    elif where == "x list":
        obj["points"][2]["x"][1] = [0.0, 1.0]
    elif where == "no A or v":
        del obj["points"][2]["A"]
    elif where in ("v zero", "v nan"):
        for p in obj["points"]:
            p["v"] = [1.0, 0.0]
            del p["A"]
        obj["points"][2]["v"] = [0.0, 0.0] if where == "v zero" else [float("nan"), 1.0]
    elif where.startswith("no "):
        for item in obj["points"] if where == "no x" else [obj]:
            del item[where[3:]]
    elif where in ("x object", "A object"):
        obj["points"][2][where[0]] = {"a": 1}
    elif where == "v object":
        for p in obj["points"]:
            p["v"] = [1.0, 0.0]
            del p["A"]
        obj["points"][2]["v"] = {"a": 1}
    else:
        obj["gamma"] = float("nan")
    return obj


@pytest.mark.parametrize("command", ["lifebar", "barcode"])
@pytest.mark.parametrize("where, message", [
    ("x", "non-finite base coordinate"),
    ("A", "non-finite matrix entry"),
    ("gamma", "gamma must be positive and finite"),
    ("v", "point 0 has 'v' of shape (3,), expected (2,)"),
    ("v mixed", "point 4 has 'v' of shape (3,), expected (2,)"),
    ("n big int", "'n' must be at most 2**31, got an integer of 401 digits"),
    ("m big float", "'m' must be at most 2**31, got an integer of 301 digits"),
    ("n negative", "'n' must be non-negative, got -1"),
    ("m negative", "'m' must be non-negative, got -1"),
    ("points", "'points' must be a list, got int"),
    ("point", "point 0 must be an object, got int"),
    ("n", "'n' must be an integer, got 2.5"),
    ("m", "'m' must be an integer, got '2'"),
    ("document", "cloud must be a JSON object, got list"),
    ("x object", "point 2 has a non-numeric 'x'"),
    ("A object", "point 2 has a non-numeric 'A'"),
    ("v object", "point 2 has a non-numeric 'v'"),
    ("no n", "cloud is missing 'n'"),
    ("no m", "cloud is missing 'm'"),
    ("no gamma", "cloud is missing 'gamma'"),
    ("no points", "cloud is missing 'points'"),
    ("no x", "point 0 is missing 'x'"),
    ("v mixed object", "point 3 has a non-numeric 'v'"),
    ("x big int", "point 2 has a number too large for a float in 'x'"),
    ("A big int", "point 2 has a number too large for a float in 'A'"),
    ("v big int", "point 2 has a number too large for a float in 'v'"),
    ("gamma big int", "'gamma' is a number too large for a float"),
    ("gamma 1e308", "squared distances overflow a float (gamma = 1e+308)"),
    ("gamma string", "'gamma' must be a number, got '1'"),
    ("gamma bool", "'gamma' must be a number, got True"),
    ("gamma null", "'gamma' must be a number, got None"),
    ("x string", "point 2 has a non-numeric 'x'"),
    ("A bool", "point 2 has a non-numeric 'A'"),
    ("v string", "point 2 has a non-numeric 'v'"),
    ("A ragged", "point 2 has a ragged 'A', expected shape (2, 2)"),
    ("x list", "point 2 has a ragged 'x', expected shape (2,)"),
    ("no A or v", "point 2 needs a matrix 'A' or a line direction 'v'"),
    ("x", "non-finite base coordinate x at point 3"),
    ("A", "non-finite matrix entry A at point 5"),
    ("v zero", "point 2 has a bad 'v': near-zero direction vector"),
    ("v nan", "point 2 has a bad 'v': non-finite direction vector"),
])
def test_non_finite_cloud_exits_2(tmp_path, capsys, command, where, message):
    cloud = tmp_path / "c.json"
    run("generate", "--dataset", "mobius", "--count", "20", "--output", str(cloud))
    obj = _corrupt(json.loads(cloud.read_text()), where)
    cloud.write_text(json.dumps(obj))  # NaN / Infinity literals, as json reads them
    out = tmp_path / "out.json"
    assert run(command, "--input", str(cloud), "--output", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["lifebar", "barcode"])
@pytest.mark.parametrize("output, options", [
    ("out.svg", ()),
    ("out.txt", ("--render", "text")),
    ("o.json", ("--render-output", "o.json")),
    ("o.json", ("--render", "text", "--render-output", "sub/../o.json")),
], ids=["svg-default", "text-default", "render-output", "render-output-dotted"])
def test_rendering_onto_output_exits_2(tmp_path, capsys, command, output, options):
    # refused before the input is read: this one does not exist
    out = tmp_path / output
    options = [str(tmp_path / o) if o.endswith(".json") else o for o in options]
    argv = [command, "--input", str(tmp_path / "missing.json"), "--output", str(out), *options]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "would overwrite --output" in err and err.count(str(tmp_path)) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["lifebar", "barcode"])
@pytest.mark.parametrize("option", ["--output", "--render-output"])
@pytest.mark.parametrize("spelling", ["", "./", "sub/../"], ids=["plain", "dot", "dotdot"])
def test_writing_onto_input_exits_2(tmp_path, capsys, command, option, spelling):
    # refused before the input is read: the cloud keeps its bytes, nothing is written
    cloud = tmp_path / "m.json"
    assert run("generate", "--dataset", "mobius", "--count", "20", "--output", str(cloud)) == 0
    before = cloud.read_bytes()
    target = f"{tmp_path}/{spelling}m.json"
    out = target if option == "--output" else str(tmp_path / "o.json")
    argv = [command, "--input", str(cloud), "--output", out, "--render", "text"]
    if option == "--render-output":
        argv += ["--render-output", target]
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "would overwrite --input" in err and err.count(str(tmp_path)) == 2  # both paths
    assert cloud.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


@pytest.mark.parametrize("command", ["lifebar", "barcode"])
@pytest.mark.parametrize("option", ["--output", "--render-output"])
def test_writing_onto_a_link_to_input_exits_2(tmp_path, capsys, command, option):
    # a link is followed to the file it names: the cloud keeps its bytes
    cloud, link = tmp_path / "c.json", tmp_path / "link.json"
    assert run("generate", "--dataset", "mobius", "--count", "20", "--output", str(cloud)) == 0
    link.symlink_to(cloud)
    before = cloud.read_bytes()
    argv = [command, "--input", str(cloud), "--render", "json", "--output", str(link)]
    if option == "--render-output":
        argv[-2:] = ["--output", str(tmp_path / "o.json"), "--render", "text",
                     "--render-output", str(link)]
    capsys.readouterr()
    assert run(*argv) == 2
    assert "would overwrite --input" in capsys.readouterr().err
    assert cloud.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "link.json"]


@pytest.mark.parametrize("command", ["lifebar", "barcode"])
@pytest.mark.parametrize("option", ["--output", "--render-output"])
def test_writing_onto_a_hard_link_to_input_exits_2(tmp_path, capsys, command, option):
    # a hard link is another name for the input's file: refused, nothing written
    cloud, hard = tmp_path / "c.json", tmp_path / "hard.json"
    assert run("generate", "--dataset", "mobius", "--count", "20", "--output", str(cloud)) == 0
    os.link(cloud, hard)
    before = cloud.read_bytes()
    argv = [command, "--input", str(cloud), "--render", "json", "--output", str(hard)]
    if option == "--render-output":
        argv[-2:] = ["--output", str(tmp_path / "o.json"), "--render", "text",
                     "--render-output", str(hard)]
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "would overwrite --input" in err and str(cloud) in err and str(hard) in err
    assert cloud.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "hard.json"]


@pytest.mark.parametrize("command", ["lifebar", "barcode"])
def test_rendering_through_a_linked_directory_onto_output_exits_2(tmp_path, capsys, command):
    # neither file exists yet: the rendering's directory is a link to --output's
    (tmp_path / "real").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "real")
    out = tmp_path / "real" / "o.json"
    argv = [command, "--input", str(tmp_path / "missing.json"), "--output", str(out),
            "--render", "text", "--render-output", str(tmp_path / "link" / "o.json")]
    assert run(*argv) == 2
    assert "would overwrite --output" in capsys.readouterr().err
    assert not any((tmp_path / "real").iterdir())


@pytest.mark.parametrize("command", ["lifebar", "barcode"])
def test_output_as_a_dangling_link_onto_the_rendering_exits_2(tmp_path, capsys, command):
    # writing --output through the link would make the file the rendering then overwrites
    (tmp_path / "dangling.json").symlink_to(tmp_path / "o.txt")
    argv = [command, "--input", str(tmp_path / "missing.json"),
            "--output", str(tmp_path / "dangling.json"), "--render", "text",
            "--render-output", str(tmp_path / "o.txt")]
    assert run(*argv) == 2
    assert "would overwrite --output" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dangling.json"]


@pytest.mark.parametrize("command", ["lifebar", "barcode"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    # the JSON decoder recurses once per level: refused as bad input, not a traceback
    cloud = tmp_path / "nested.json"
    cloud.write_text("[" * 200_000)
    out = tmp_path / "out.json"
    assert run(command, "--input", str(cloud), "--output", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nested.json" in err and "too deeply" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["lifebar", "barcode"])
def test_invalid_json_exits_2(tmp_path, capsys, command):
    cloud = tmp_path / "c.json"
    cloud.write_text('{"n": 1, "m": 2, "gamma": 1.0, "points": [')
    out = tmp_path / "out.json"
    assert run(command, "--input", str(cloud), "--output", str(out)) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


# point 1 carries I/2, whose eigen-gap is zero: it has no line
MEDIAL_AXIS_CLOUD = {"n": 1, "m": 2, "gamma": 1.0, "points": [
    {"x": [0.0], "A": [[1.0, 0.0], [0.0, 0.0]]},
    {"x": [1.0], "A": [[0.5, 0.0], [0.0, 0.5]]},
    {"x": [2.0], "A": [[0.0, 0.0], [0.0, 1.0]]},
]}


@pytest.mark.parametrize("command", ["lifebar", "barcode"])
def test_medial_axis_cloud_exits_2(tmp_path, capsys, command):
    cloud = tmp_path / "c.json"
    cloud.write_text(json.dumps(MEDIAL_AXIS_CLOUD))
    out = tmp_path / "out.json"
    assert run(command, "--input", str(cloud), "--output", str(out)) == 2
    assert "point 1 has eigen-gap 0.000e+00" in capsys.readouterr().err
    assert not out.exists()


def test_medial_axis_cloud_barcode_with_max_edge(tmp_path):
    # plain persistence needs no projection: an explicit bound is accepted
    cloud = tmp_path / "c.json"
    cloud.write_text(json.dumps(MEDIAL_AXIS_CLOUD))
    out = tmp_path / "out.json"
    assert run("barcode", "--input", str(cloud), "--max-edge", "1.0", "--output", str(out)) == 0
    assert len(Barcode.from_json(out.read_text()).intervals) == 3


# 1 x 1 matrix parts: there is no line to project to, so no index bound
M1_CLOUD = {"n": 1, "m": 1, "gamma": 1.0, "points": [
    {"x": [0.0], "A": [[1.0]]},
    {"x": [1.0], "A": [[0.5]]},
    {"x": [2.0], "A": [[0.0]]},
]}


@pytest.mark.parametrize("command", ["lifebar", "barcode"])
def test_m1_cloud_exits_2(tmp_path, capsys, command):
    cloud = tmp_path / "c.json"
    cloud.write_text(json.dumps(M1_CLOUD))
    out = tmp_path / "out.json"
    assert run(command, "--input", str(cloud), "--output", str(out)) == 2
    assert "out of range for m = 1" in capsys.readouterr().err
    assert not out.exists()


def test_m1_cloud_barcode_with_max_edge(tmp_path):
    cloud = tmp_path / "c.json"
    cloud.write_text(json.dumps(M1_CLOUD))
    out = tmp_path / "out.json"
    assert run("barcode", "--input", str(cloud), "--max-edge", "1.0", "--output", str(out)) == 0
    assert len(Barcode.from_json(out.read_text()).intervals) == 3


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("command, target", [
    ("lifebar", "lifebar"), ("barcode", "_cloud_barcode")])
@pytest.mark.parametrize("detail", ["Unable to allocate 3.2 GiB", ""])
def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, command, target, detail):
    import swbundle.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError(detail)

    cloud, out = tmp_path / "c.json", tmp_path / "out.json"
    assert run("generate", "--dataset", "mobius", "--count", "20", "--output", str(cloud)) == 0
    monkeypatch.setattr(cli, target, exhausted)
    capsys.readouterr()
    assert run(command, "--input", str(cloud), "--output", str(out)) == 2
    suffix = f": {detail}" if detail else ""
    assert capsys.readouterr().err == f"error: {command} ran out of memory{suffix}\n"
    assert not out.exists()


# an axis tick: a vertical line, so x1 == x2
TICK = r'<line x1="([^"]*)" y1="\d+" x2="\1" y2="\d+" stroke="black"'


class TestRenderers:
    @pytest.mark.parametrize("name, render", [
        ("barcode.svg", lambda: barcode_svg(
            Barcode(((0, 0.0, INF), (0, 0.0, 0.3), (1, 0.25, 0.75), (1, 0.5, INF))), 1.0)),
        ("lifebar.svg", lambda: lifebar_svg(Lifebar(0.5, 0.25, 0.02))),
        ("lifebar_empty.svg", lambda: lifebar_svg(Lifebar(0.5, None, 0.02))),
    ])
    def test_svg_golden(self, name, render):
        assert render() == (GOLDEN / name).read_text()

    def test_text_barcode_is_80_columns(self):
        bc = Barcode(((0, 0.0, INF), (1, 0.25, 0.75)))
        text = barcode_text(bc, 1.0)
        lines = text.strip().split("\n")
        assert all(len(line) <= 80 for line in lines)
        assert lines[0].startswith("H0")

    def test_text_barcode_golden(self):
        bc = Barcode(((1, 0.5, 1.0),))
        assert barcode_text(bc, 1.0) == (
            "H1 [0.5, 1)".ljust(24) + " " * 27 + "#" * 27 + "\naxis: 0 .. 1.02\n"
        )

    @pytest.mark.parametrize("t_max", [None, 0.0, 1.0, 1e300, 1.7976931348623157e308])
    def test_bar_positions_match_the_per_bar_formula(self, t_max):
        # every bar of EXTREME_ENDS in degrees 0 and 1, scaled for all bars at
        # once: each coordinate and column must be the per-bar formula's
        bc = Barcode(tuple((d, b, e) for d in (0, 1) for b in EXTREME_ENDS
                           for e in EXTREME_ENDS if b <= e))
        finite = [v for (_, b, e) in bc.intervals for v in (b, e) if v != INF]
        right = max(finite + [t_max if t_max is not None else 0.0, 1e-9])
        right = min(right * 1.02, sys.float_info.max)
        fractions = [(min(b, right) / right, min(e, right) / right) for (_, b, e) in bc.intervals]
        svg = barcode_svg(bc, t_max)
        bars = re.findall(r'<line x1="([^"]*)" y1="\d+" x2="([^"]*)" y2="\d+" stroke="#', svg)
        want = [(48 + 544 * fb, 48 + 544 * fe) for fb, fe in fractions]
        assert bars == [(format(x0, ".6g"), format(max(x1, x0 + 1), ".6g")) for x0, x1 in want]
        labels = re.findall(r'<text x="([^"]*)" y="\d+" font-size="9" [^>]*>inf<', svg)
        assert labels == [format(x1 + 4, ".6g") for (_, _, e), (_, x1) in zip(bc.intervals, want)
                          if e == INF]
        assert re.findall(TICK, svg) == ["48", "184", "320", "456", "592"]
        lines = barcode_text(bc, t_max).splitlines()
        assert lines[-1] == f"axis: 0 .. {format(right, '.6g')}"
        for line, (fb, fe) in zip(lines, fractions):
            c0 = int(round(55 * fb))
            assert line[24:] == " " * c0 + "#" * (max(int(round(55 * fe)), c0 + 1) - c0)

    @pytest.mark.parametrize("t_max, t_dagger", [
        (0.5, 0.25), (0.5, None), (1e-300, 3e-301), (1e300, 1e299), (1.0, 0.0), (0.0, None),
        (1e-321, 5e-322), (1e306, 5e305)])
    def test_lifebar_cut_matches_the_formula(self, t_max, t_dagger):
        # the zero part ends at cut / t_max * span (span 544 in the SVG, 79 in
        # the text), or fills the bar at a zero bound; the ticks sit at their
        # fractions of the axis even where t_max * 0.75 rounds (a subnormal t_max),
        # and no width overflows where span * cut would (cut 5e305)
        lb = Lifebar(t_max, t_dagger, 0.02)
        cut = t_max if t_dagger is None else t_dagger
        svg = lifebar_svg(lb)
        x = 48 + (cut / t_max * 544 if t_max > 0 else 544)
        assert re.findall(r'<rect x="48" y="16" width="([^"]*)" height="16" fill="url', svg) == [
            format(x - 48, ".6g")]
        solid = re.findall(r'<rect x="([^"]*)" y="16" width="([^"]*)" height="16" fill="#', svg)
        assert solid == ([] if t_dagger is None else [(format(x, ".6g"), format(592 - x, ".6g"))])
        assert re.findall(TICK, svg) == (["48", "184", "320", "456", "592"] if t_max > 0
                                         else ["48"] * 5)
        bar = lifebar_text(lb).splitlines()[0]
        c = int(round(cut / t_max * 79)) if t_max > 0 else 79
        assert len(bar) == 79 and bar.count("/") == c and bar == "/" * c + "#" * (79 - c)

    def test_lifebar_renderings(self):
        lb = Lifebar(0.5, 0.25, 0.02)
        text = lifebar_text(lb)
        assert text.count("/") == 40 and text.count("#") > 0
        svg = lifebar_svg(lb)
        assert svg.startswith("<svg") and "hatch" in svg
        empty = Lifebar(0.5, None, 0.02)
        assert "empty" in lifebar_text(empty)

    def test_deterministic_svg(self):
        lb = Lifebar(0.5, 0.1, 0.02)
        assert lifebar_svg(lb) == lifebar_svg(lb)

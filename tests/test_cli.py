import json

import pytest

from swbundle.bundle import Lifebar
from swbundle.cli import main
from swbundle.render import barcode_text, lifebar_svg, lifebar_text
from swbundle.z2 import INF, Barcode


def run(*args):
    return main(list(args))


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
        assert run("barcode", "--input", str(cloud), "--max-edge", max_edge,
                   "--output", str(out)) == 2
        assert "max" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "bc.svg").exists()

    def test_missing_input_exits_2(self, tmp_path):
        assert run("barcode", "--input", str(tmp_path / "nope.json"),
                   "--output", str(tmp_path / "x.json")) == 2

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

    def test_subdivision_limit_exits_3(self, tmp_path):
        cloud = tmp_path / "c.json"
        run("generate", "--dataset", "circle-normal", "--count", "8",
            "--output", str(cloud))
        rc = run("lifebar", "--input", str(cloud), "--subdiv-limit", "0",
                 "--resolution", "0.02", "--output", str(tmp_path / "lb.json"))
        assert rc == 3

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
    else:
        obj["gamma"] = float("nan")


@pytest.mark.parametrize("command", ["lifebar", "barcode"])
@pytest.mark.parametrize("where, message", [
    ("x", "non-finite base coordinate"),
    ("A", "non-finite matrix entry"),
    ("gamma", "gamma must be positive and finite"),
])
def test_non_finite_cloud_exits_2(tmp_path, capsys, command, where, message):
    cloud = tmp_path / "c.json"
    run("generate", "--dataset", "mobius", "--count", "20", "--output", str(cloud))
    obj = json.loads(cloud.read_text())
    _corrupt(obj, where)
    cloud.write_text(json.dumps(obj))  # NaN / Infinity literals, as json reads them
    out = tmp_path / "out.json"
    assert run(command, "--input", str(cloud), "--output", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


class TestRenderers:
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

    def test_lifebar_renderings(self):
        lb = Lifebar(0.5, 0.25, 0.02, ())
        text = lifebar_text(lb)
        assert text.count("/") == 40 and text.count("#") > 0
        svg = lifebar_svg(lb)
        assert svg.startswith("<svg") and "hatch" in svg
        empty = Lifebar(0.5, None, 0.02, ())
        assert "empty" in lifebar_text(empty)

    def test_deterministic_svg(self):
        lb = Lifebar(0.5, 0.1, 0.02, ())
        assert lifebar_svg(lb) == lifebar_svg(lb)

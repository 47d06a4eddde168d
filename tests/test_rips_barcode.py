"""rips_barcode against the reference column reduction over stored triangles."""

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from swbundle import bundle, cli
from swbundle.datasets import add_noise, circle_normal, circle_tautological, klein_normal
from swbundle.simplicial import rips_barcode, rips_filtration
from swbundle.z2 import INF, Barcode, barcode

BENCH = Path(__file__).resolve().parents[1] / "bench"


def reference(D, max_value, max_dim):
    return barcode(rips_filtration(D, max_value, 2), max_dim)


def distances(pts):
    return np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)


def assert_matches_reference(D, max_value):
    for max_dim in (0, 1):
        got = rips_barcode(D, max_value, max_dim).intervals
        assert got == reference(D, max_value, max_dim).intervals, (max_value, max_dim)


def random_cloud(rng, kind):
    n = int(rng.integers(2, 22))
    pts = rng.normal(size=(n, int(rng.integers(1, 4))))
    if kind == "rounded":  # many tied distances
        pts = np.round(pts)
    elif kind == "duplicates":  # zero-length edges
        pts[rng.integers(0, n, size=n // 3)] = pts[0]
    return pts


@pytest.mark.parametrize("kind", ["plain", "rounded", "duplicates"])
def test_random_clouds(rng, kind):
    for _ in range(30):
        D = distances(random_cloud(rng, kind))
        assert_matches_reference(D, float(rng.uniform(0.2, 2.5)))


def test_single_point():
    D = np.zeros((1, 1))
    assert_matches_reference(D, 1.0)
    assert rips_barcode(D, 1.0).intervals == ((0, 0.0, INF),)


def test_max_value_below_every_edge(rng):
    D = distances(rng.normal(size=(9, 2))) + 1.0
    np.fill_diagonal(D, 0.0)
    assert_matches_reference(D, 0.4)
    assert rips_barcode(D, 0.4).intervals == ((0, 0.0, INF),) * 9


@pytest.mark.parametrize("cloud", [circle_tautological(40, 1.0), circle_normal(60, 1.0)],
                         ids=["mobius-40", "circle-normal-60"])
def test_canonical_clouds(cloud):
    D = cloud.distance_matrix()
    assert_matches_reference(D, 1.3)
    assert rips_barcode(D, 1.3).in_dim(1)  # these clouds have degree-1 classes at 1.3


def test_keys_past_int32(rng):
    # a noisy circle with all 1,770 edges: its cycle dies late, and reducing
    # it reaches apparent pivots rank * E ** 2 + ... far beyond 2 ** 31
    theta = rng.uniform(0.0, 2 * np.pi, 60)
    pts = np.c_[np.cos(theta), np.sin(theta)] + 0.1 * rng.normal(size=(60, 2))
    D = distances(pts)
    assert_matches_reference(D, float(D.max()))


def test_threshold_above_enclosing_radius(rng):
    for _ in range(10):
        D = distances(random_cloud(rng, "plain"))
        radius = D.max(axis=1).min() / 2.0
        for max_value in (radius, 1.5 * radius, float(D.max())):
            assert_matches_reference(D, max_value)
        assert rips_barcode(D, float(D.max())).intervals == rips_barcode(D, radius).intervals


def test_enclosing_radius_of_an_asymmetric_matrix():
    # three points on a line, centre 1; the edge values are read off the
    # upper triangle, which here exceeds the lower one by 1e-12 or 2e-12.
    # A cap read off the rows of D would drop the edge (0, 1) of the cone.
    D = np.array([[0.0, 1.0 + 2e-12, 2.0], [1.0, 0.0, 1.0 + 1e-12], [2.0, 1.0, 0.0]])
    assert_matches_reference(D, 2.0)
    assert rips_barcode(D, 2.0).intervals == ((0, 0.0, 0.5 + 5e-13), (0, 0.0, 0.5 + 1e-12), (0, 0.0, INF))


@pytest.mark.parametrize("window", [1, 2, 8])
def test_small_windows(rng, monkeypatch, window):
    # a narrow window sends short columns through the runs and the inbox
    monkeypatch.setattr(bundle, "WINDOW", window)
    for kind in ("plain", "rounded", "duplicates"):
        for _ in range(10):
            D = distances(random_cloud(rng, kind))
            assert_matches_reference(D, float(rng.uniform(0.5, 1.0)) * float(D.max()))


def test_long_column_read_by_an_earlier_one(monkeypatch):
    # noisy Klein 8x8 with all edges: a column outgrows its window, and an
    # earlier edge's column later reaches its pivot and reads it in full
    tails = []
    materialise = bundle._materialise

    def counted(win, runs, inbox):
        tails.append(bool(runs or inbox))
        return materialise(win, runs, inbox)

    monkeypatch.setattr(bundle, "_materialise", counted)
    assert_matches_reference(*klein_8x8())
    assert any(tails)


@pytest.mark.parametrize("n", [7, 12, 20, 33, 40])
def test_uniform_circles_with_ties(n):
    # equally spaced points: every edge length occurs n times
    D = circle_tautological(n).distance_matrix()
    assert_matches_reference(D, float(D.max()))
    assert_matches_reference(D, 0.6 * float(D.max()))


def klein_8x8():
    D = add_noise(klein_normal(8, 8), 0.05, seed=4).distance_matrix()
    return D, float(D.max())


@pytest.fixture(scope="module")
def fixed_cases():
    """The tied uniform circles and the Klein 8x8 long column, with their
    reference intervals in degrees 0 and 1."""
    cases = []
    for n in (7, 12, 20, 33, 40):
        D = circle_tautological(n).distance_matrix()
        cases += [(D, float(D.max())), (D, 0.6 * float(D.max()))]
    cases.append(klein_8x8())
    return [(D, t, [reference(D, t, d).intervals for d in (0, 1)]) for D, t in cases]


def count_batches(monkeypatch) -> list:
    """Patch _reduce_column to count the batches of apparent columns it adds."""
    batches = []
    reduce_column = bundle._reduce_column

    def counted(col, lookup, batch):
        def counted_batch(win, count):
            keys = batch(win, count)
            batches.append(keys is not None)
            return keys

        return reduce_column(col, lookup, counted_batch)

    monkeypatch.setattr(bundle, "_reduce_column", counted)
    return batches


@pytest.mark.parametrize("window", [1, 2, 8, 512])
@pytest.mark.parametrize("single_adds", [0, 1])
def test_batch_mode(rng, monkeypatch, fixed_cases, single_adds, window):
    # clouds this small never reach SINGLE_ADDS single additions; with it at
    # 0 or 1 every apparent pivot starts or soon joins a batch
    monkeypatch.setattr(bundle, "SINGLE_ADDS", single_adds)
    monkeypatch.setattr(bundle, "WINDOW", window)
    batches = count_batches(monkeypatch)
    for kind in ("plain", "rounded", "duplicates"):
        for _ in range(10):
            D = distances(random_cloud(rng, kind))
            assert_matches_reference(D, float(rng.uniform(0.5, 1.0)) * float(D.max()))
    for D, max_value, want in fixed_cases:
        for max_dim in (0, 1):
            got = rips_barcode(D, max_value, max_dim).intervals
            assert got == want[max_dim], (max_value, max_dim)
    assert any(batches)


@pytest.mark.parametrize("cloud", ["klein-8x8", "mobius-40"])
def test_no_stored_pivot_is_apparent(monkeypatch, cloud):
    # the batch adds an apparent key's coboundary without asking whether a
    # reduced column is stored under that key: none ever is
    if cloud == "klein-8x8":
        D, max_value = klein_8x8()
    else:
        D, max_value = circle_tautological(40).distance_matrix(), 1.3
    edges, pivots = [], []
    h1_bars, reduce_column = bundle._h1_bars, bundle._reduce_column

    def recorded_h1_bars(n, iu, ju, values, tree):
        edges.append((n, iu, ju, len(values)))
        return h1_bars(n, iu, ju, values, tree)

    def recorded_reduce_column(col, lookup, batch):
        pivot, held = reduce_column(col, lookup, batch)
        if pivot is not None:
            pivots.append(pivot)
        return pivot, held

    monkeypatch.setattr(bundle, "_h1_bars", recorded_h1_bars)
    monkeypatch.setattr(bundle, "_reduce_column", recorded_reduce_column)
    rips_barcode(D, max_value, 1)
    (n, iu, ju, E), = edges
    R = np.full((n, n), E)
    R[iu, ju] = R[ju, iu] = np.arange(E)
    mid = np.maximum(R[iu], R[ju]).min(axis=1)  # the middle rank of each edge's earliest coface
    E2 = E * E
    assert pivots
    assert all(mid[p // E2] != p // E % E for p in pivots)


def trace_h1(monkeypatch, D, max_value):
    """rips_barcode(D, max_value, 1), recording how its H1 columns were built.

    Returns (barcode, scan, first, single, stacked, read): the edges whose
    first key paired at once, found by replaying the reduction order with
    each column's first key taken from its cofaces; those first keys, by
    edge, each with whether it is apparent; the edges of the coboundary
    rows built one at a time and as stacked rows (a Counter each); and the
    pivots that lookups read.
    """
    graphs, ends, read = [], [], set()
    single, stacked = Counter(), Counter()
    h1_bars, reduce_column = bundle._h1_bars, bundle._reduce_column
    coface_keys = bundle._coface_keys

    def recorded_h1_bars(n, iu, ju, values, tree):
        graphs.append((n, iu, ju, len(values), tree))
        return h1_bars(n, iu, ju, values, tree)

    def recorded_coface_keys(ra, rb, e, E):
        (single if ra.ndim == 1 else stacked).update(np.ravel(e).tolist())
        return coface_keys(ra, rb, e, E)

    def recorded_reduce_column(col, lookup, batch):
        def recorded_lookup(pivot):
            read.add(pivot)
            return lookup(pivot)

        pivot, held = reduce_column(col, recorded_lookup, batch)
        ends.append(pivot)
        return pivot, held

    monkeypatch.setattr(bundle, "_h1_bars", recorded_h1_bars)
    monkeypatch.setattr(bundle, "_coface_keys", recorded_coface_keys)
    monkeypatch.setattr(bundle, "_reduce_column", recorded_reduce_column)
    bc = rips_barcode(D, max_value, 1)
    if not graphs:
        return bc, [], {}, single, stacked, read
    (n, iu, ju, E, tree), = graphs
    R = np.full((n, n), E)
    R[iu, ju] = R[ju, iu] = np.arange(E)
    mid = np.where(tree, E, np.maximum(R[iu], R[ju]).min(axis=1))
    E2 = E * E
    scan, first, stored, reductions = [], {}, set(), iter(ends)
    for e in range(E - 1, -1, -1):
        a, b = iu[e], ju[e]
        cofaces = sorted(sorted((e, R[a, k], R[b, k]), reverse=True)
                         for k in np.flatnonzero((R[a] < E) & (R[b] < E)))
        if tree[e] or mid[e] < e or not cofaces:  # cleared, apparent or empty
            continue
        t, m, low = cofaces[0]
        key = t * E2 + m * E + low
        first[e] = key, mid[t] == m
        if mid[t] != m and key not in stored:
            scan.append(e)
            stored.add(key)
        else:
            stored.add(next(reductions))
    assert next(reductions, "none left") == "none left"
    return bc, scan, first, single, stacked, read


def test_scan_pairs_build_only_what_a_lookup_reads(monkeypatch):
    D = add_noise(klein_normal(16, 16), 0.05, seed=0).distance_matrix()
    bc, scan, first, single, stacked, read = trace_h1(monkeypatch, D, 1.3)
    assert_matches_stored(bc.intervals, "barcode klein-16-n0.05 max-edge 1.3")
    assert len(first) == 308 and len(scan) == 148
    for e in scan:  # built once if a later lookup reads it, else never
        assert single[e] + stacked[e] == (first[e][0] in read)
    assert 0 < sum(first[e][0] in read for e in scan) < len(scan)
    # the other columns are built once each: stacked when their first key is
    # apparent, alone when it is a stored pivot
    for e in first.keys() - set(scan):
        assert (single[e], stacked[e]) == ((0, 1) if first[e][1] else (1, 0))
    assert sum(apparent for _, apparent in first.values()) > 100


@pytest.mark.parametrize("window", [1, 8, 512])
def test_scan_pairs_read_later_are_built(rng, monkeypatch, fixed_cases, window):
    monkeypatch.setattr(bundle, "WINDOW", window)
    cases = list(fixed_cases)
    for kind in ("plain", "rounded", "duplicates"):
        for _ in range(10):
            D = distances(random_cloud(rng, kind))
            max_value = float(rng.uniform(0.5, 1.0)) * float(D.max())
            cases.append((D, max_value, [reference(D, max_value, d).intervals for d in (0, 1)]))
    read_later = 0
    for D, max_value, want in cases:
        with monkeypatch.context() as patches:
            bc, scan, first, single, stacked, read = trace_h1(patches, D, max_value)
        assert bc.intervals == want[1]
        for e in scan:
            assert single[e] + stacked[e] == (first[e][0] in read)
            read_later += first[e][0] in read
    assert read_later


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


BARCODE_FLAG = _load_bench("workloads").build("barcode-flag", 0)


@pytest.fixture(scope="module")
def barcode_flag_clouds(tmp_path_factory):
    out = tmp_path_factory.mktemp("barcode-flag")
    for name, gen_args in BARCODE_FLAG.clouds.items():
        assert cli.main(["generate", *gen_args, "--output", str(out / f"{name}.json")]) == 0
    return out


@pytest.mark.parametrize("request_", BARCODE_FLAG.requests, ids=lambda r: r.name)
def test_barcode_flag_references(barcode_flag_clouds, tmp_path, request_):
    out = tmp_path / "out.json"
    argv = [request_.command, "--input", str(barcode_flag_clouds / f"{request_.cloud}.json"),
            *request_.args, "--output", str(out), "--render", "json"]
    assert cli.main(argv) == 0
    assert_matches_stored(Barcode.from_json(out.read_text()).intervals, request_.name)


def assert_matches_stored(intervals, name):
    """intervals against the stored reference barcode of barcode-flag request name."""
    got = sorted(intervals)
    want = json.loads((BENCH / "refs" / "barcodes.json").read_text())[name]
    assert len(got) == len(want)
    for (dim, birth, death), (ref_dim, ref_birth, ref_death) in zip(got, sorted(
            (d, b, INF if e is None else e) for d, b, e in want)):
        assert dim == ref_dim
        assert birth == pytest.approx(ref_birth, abs=1e-9)
        assert death == ref_death or death == pytest.approx(ref_death, abs=1e-9)


@pytest.mark.parametrize("max_dim", [-1, 2])
def test_rejects_degrees_outside_0_1(max_dim):
    with pytest.raises(ValueError):
        rips_barcode(np.zeros((2, 2)), 1.0, max_dim)


def test_rejects_bad_distance_matrix():
    with pytest.raises(ValueError):
        rips_barcode(np.array([[0.0, 1.0], [2.0, 0.0]]), 1.0)


@pytest.mark.parametrize("max_value", [float("nan"), -1.0])
def test_rejects_nan_or_negative_max_value(max_value):
    D = distances(np.array([[0.0, 0.0], [1.0, 0.0]]))
    for build in (rips_barcode, rips_filtration):
        with pytest.raises(ValueError, match="max value"):
            build(D, max_value, 1)


def test_reference_rejects_negative_max_dim():
    with pytest.raises(ValueError):
        reference(np.zeros((2, 2)), 1.0, -1)


def test_property_matches_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    coords = st.integers(-4, 4).map(lambda k: k / 2.0)  # half-integers: ties and duplicates
    clouds = st.integers(1, 12).flatmap(
        lambda n: st.lists(st.tuples(coords, coords), min_size=n, max_size=n))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(clouds, st.floats(0.0, 3.0))
    def check(points, max_value):
        assert_matches_reference(distances(np.array(points)), max_value)

    check()

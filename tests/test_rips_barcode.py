"""rips_barcode against the reference column reduction over stored triangles."""

import importlib.util
import json
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from swbundle import bundle, cli
from swbundle.datasets import add_noise, circle_normal, circle_tautological, klein_normal
from swbundle.simplicial import rips_barcode, rips_filtration
from swbundle.z2 import INF, Barcode, barcode

BENCH = Path(__file__).resolve().parents[1] / "bench"
GOLDEN = Path(__file__).resolve().parent / "golden"
# the barcode of a cloud with more than 2 ** 15 edges, written by the CLI
# while _h1_bars widened its rank matrix to int64, rounded to 10 decimals
GOLDEN_TORUS = GOLDEN / "barcode-torus-18.json"
# clean Mobius-200 at 1.3, written by the CLI while every window stayed
# WINDOW keys wide, rounded to 10 decimals: its long column's window
# reaches the BLOCK_KEYS cap
GOLDEN_MOBIUS = GOLDEN / "barcode-mobius-200.json"


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


def test_no_points():
    D = np.zeros((0, 0))
    assert_matches_reference(D, 1.0)
    assert rips_barcode(D, 1.0).intervals == ()


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


ORDER_CLOUDS = {
    "mobius-100": lambda: circle_tautological(100, 1.0),  # many tied values
    "klein-16-noisy": lambda: add_noise(klein_normal(16, 16), 0.05, 0),
    "mobius-200-noisy": lambda: add_noise(circle_tautological(200, 1.0), 0.02, 0),
}


@pytest.mark.parametrize("name, max_value", [
    ("mobius-100", 1.2), ("mobius-100", 1.3), ("mobius-100", None),
    ("klein-16-noisy", 1.2), ("klein-16-noisy", 1.3), ("klein-16-noisy", None),
    ("mobius-200-noisy", 1.3),
])  # None: the index bound
def test_flag_barcode_takes_the_edges_in_any_order(name, max_value):
    # _flag_barcode sorts the edges itself: a shuffled listing, its ties in
    # another order, gives the intervals of _flag_graph's row-major one
    cloud = ORDER_CLOUDS[name]()
    if max_value is None:
        max_value = bundle.checked_index_bound(cloud)
    listing = bundle._flag_graph(cloud, max_value)
    shuffle = np.random.default_rng(0).permutation(len(listing[0]))
    for max_dim in (0, 1):  # each call reorders its arrays in place: pass copies
        want = bundle._flag_barcode(len(cloud), *(a.copy() for a in listing), max_dim)
        got = bundle._flag_barcode(len(cloud), *(a[shuffle] for a in listing), max_dim)
        assert got.intervals == want.intervals, max_dim


def test_int64_refusal_comes_before_any_sort():
    # (E + 1) ** 3 passes 2 ** 63 from E = 2 ** 21 edges on; an argsort of
    # that many values alone traces 16 MB, so the check must come first
    E = 2 ** 21
    iu, ju, values = np.zeros(E, dtype=np.intp), np.ones(E, dtype=np.intp), np.zeros(E)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{E} edges: triangle keys would overflow int64$"):
            bundle._flag_barcode(2, iu, ju, values, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    # H0 forms no triangle key: the same edges at max_dim 0 are not refused
    assert bundle._flag_barcode(2, iu, ju, values, 0).intervals == ((0, 0.0, INF),)


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
    """Patch _reduce_column to record each batch of apparent columns it adds,
    as the size of the window the batch is merged with."""
    batches = []
    reduce_column = bundle._reduce_column

    def counted(col, lookup, batch):
        def counted_batch(win, count):
            keys = batch(win, count)
            if keys is not None:
                batches.append(win.size)
            return keys

        return reduce_column(col, lookup, counted_batch)

    monkeypatch.setattr(bundle, "_reduce_column", counted)
    return batches


@pytest.mark.parametrize("window, block_keys", [
    *(pytest.param(w, None, id=str(w)) for w in (1, 2, 8, 512)),
    pytest.param(1, 64, id="1-block64"), pytest.param(8, 64, id="8-block64"),
])
@pytest.mark.parametrize("single_adds", [0, 1])
def test_batch_mode(rng, monkeypatch, fixed_cases, single_adds, window, block_keys):
    # the random clouds make at most 4 single additions in a column, short of
    # SINGLE_ADDS; with it at 0 or 1 every apparent pivot starts or soon joins a batch
    monkeypatch.setattr(bundle, "SINGLE_ADDS", single_adds)
    monkeypatch.setattr(bundle, "WINDOW", window)
    if block_keys is not None:  # fewer rows per batch, and a window cap the fixed cases reach
        monkeypatch.setattr(bundle, "BLOCK_KEYS", block_keys)
    batches = count_batches(monkeypatch)
    for kind in ("plain", "rounded", "duplicates"):
        for _ in range(10):
            D = distances(random_cloud(rng, kind))
            assert_matches_reference(D, float(rng.uniform(0.5, 1.0)) * float(D.max()))
    for D, max_value, want in fixed_cases:
        for max_dim in (0, 1):
            got = rips_barcode(D, max_value, max_dim).intervals
            assert got == want[max_dim], (max_value, max_dim)
    assert batches
    # a window doubles each time a batch clears it, but never past BLOCK_KEYS,
    # and holds at most twice its width when a batch merges with it
    assert max(batches) <= 2 * bundle.BLOCK_KEYS


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
    # every column is built once, as a stacked row, whether or not it is reduced
    for e in first:
        assert (single[e], stacked[e]) == (0, 1)
    # a scan pair is stored as built: a later lookup that reads it builds nothing
    read_later = [e for e in scan if first[e][0] in read]
    assert 0 < len(read_later) < len(scan)
    for e in read_later:
        assert single[e] == 0
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
        for e in first:
            assert (single[e], stacked[e]) == (0, 1)
        for e in scan:
            if first[e][0] in read:
                assert single[e] == 0
                read_later += 1
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


@pytest.mark.parametrize("request_name, most", [
    ("barcode mobius-100 max-edge 1.3", 12), ("barcode mobius-100 max-edge 1.2", 12),
    (GOLDEN_MOBIUS.name, 20),
])
def test_long_columns_widen(barcode_flag_clouds, tmp_path, monkeypatch, request_name, most):
    # a batch that clears the whole window doubles it: with every window
    # WINDOW keys wide these take 23, 24 and 161 batches
    if request_name == GOLDEN_MOBIUS.name:
        fixture = json.loads(GOLDEN_MOBIUS.read_text())
        cloud, args, want = tmp_path / "mobius.json", fixture["barcode"], fixture["intervals"]
        assert cli.main(["generate", *fixture["generate"], "--output", str(cloud)]) == 0
    else:
        request_, = (r for r in BARCODE_FLAG.requests if r.name == request_name)
        cloud, args = barcode_flag_clouds / f"{request_.cloud}.json", request_.args
        want = json.loads((BENCH / "refs" / "barcodes.json").read_text())[request_name]
    batches = count_batches(monkeypatch)
    out = tmp_path / "out.json"
    assert cli.main(["barcode", "--input", str(cloud), *args, "--output", str(out),
                     "--render", "json"]) == 0
    assert_matches(Barcode.from_json(out.read_text()).intervals, want)
    assert 0 < len(batches) <= most


def assert_matches_stored(intervals, name):
    """intervals against the stored reference barcode of barcode-flag request name."""
    assert_matches(intervals, json.loads((BENCH / "refs" / "barcodes.json").read_text())[name])


def assert_matches(intervals, want):
    """intervals against stored [dim, birth, death] rows, death None for inf."""
    got = sorted(intervals)
    assert len(got) == len(want)
    for (dim, birth, death), (ref_dim, ref_birth, ref_death) in zip(got, sorted(
            (d, b, INF if e is None else e) for d, b, e in want)):
        assert dim == ref_dim
        assert birth == pytest.approx(ref_birth, abs=1e-9)
        assert death == ref_death or death == pytest.approx(ref_death, abs=1e-9)


def _int64_coface_keys(ra, rb, e, E):
    """The key formula of _coface_keys with every operand int64."""
    ra, rb, e = (np.asarray(x, dtype=np.int64) for x in (ra, rb, e))
    hi, lo = np.maximum(ra, rb), np.minimum(ra, rb)
    return np.maximum(hi, e) * (E * E) + np.maximum(lo, np.minimum(hi, e)) * E + np.minimum(lo, e)


@pytest.mark.parametrize("E, dtype", [
    (2 ** 15 - 1, np.int16), (2 ** 15 - 1, np.int32), (2 ** 15, np.int32), (2_097_151, np.int32),
])
def test_coface_keys_at_the_dtype_edges(E, dtype):
    # rank rows in R's narrow dtype: every pair of the ranks 0, 1, E // 2, E - 1
    # and E (no triangle), with an edge rank as a Python int (one row) and an
    # int64 column (stacked rows), as _h1_bars passes them.  The keys must
    # be the all-int64 formula's: under NEP 50 a narrow array times an
    # out-of-range Python int raises, under value-based casting it wraps.
    ranks = [0, 1, E // 2, E - 1, E]
    ra = np.repeat(np.array(ranks, dtype=dtype), len(ranks))
    rb = np.tile(np.array(ranks, dtype=dtype), len(ranks))
    edges = [0, 1, E // 2, E - 2, E - 1]
    for e in edges:
        keys = bundle._coface_keys(ra.copy(), rb.copy(), e, E)
        assert keys.dtype == np.int64
        assert np.array_equal(keys, _int64_coface_keys(ra, rb, e, E))
    column = np.array(edges)[:, None]
    rows_a, rows_b = np.tile(ra, (len(edges), 1)), np.tile(rb, (len(edges), 1))
    keys = bundle._coface_keys(rows_a, rows_b, column, E)
    want = _int64_coface_keys(rows_a, rows_b, column, E)
    assert keys.dtype == np.int64 and np.array_equal(keys, want)
    assert np.array_equal(keys < E ** 3, (rows_a < E) & (rows_b < E))
    assert want.max() < (E + 1) ** 3 <= 2 ** 63


def test_int32_ranks_match_the_recorded_barcode(tmp_path, monkeypatch):
    # noisy torus 18x18 keeps 39,495 edges up to the enclosing radius, past
    # int16's 32,767: R and every coboundary row are int32.  The intervals
    # must equal the recorded ones (GOLDEN_TORUS)
    fixture = json.loads(GOLDEN_TORUS.read_text())
    dtypes = set()
    coface_keys = bundle._coface_keys

    def recorded_coface_keys(ra, rb, e, E):
        dtypes.add((ra.dtype, rb.dtype))
        return coface_keys(ra, rb, e, E)

    monkeypatch.setattr(bundle, "_coface_keys", recorded_coface_keys)
    cloud, out = tmp_path / "torus.json", tmp_path / "bars.json"
    assert cli.main(["generate", *fixture["generate"], "--output", str(cloud)]) == 0
    assert cli.main(["barcode", "--input", str(cloud), *fixture["barcode"],
                     "--output", str(out)]) == 0
    assert dtypes == {(np.dtype(np.int32), np.dtype(np.int32))}
    assert_matches(Barcode.from_json(out.read_text()).intervals, fixture["intervals"])


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


def test_barcode_stores_its_intervals_sorted():
    # the one bar order: in_dim, to_json and the renderers read it as stored
    bc = Barcode(((1, 0.5, INF), (0, 0.0, 0.3), (1, 0.25, 0.75), (0, 0.0, INF), (0, 0.0, 0.1)))
    want = ((0, 0.0, 0.1), (0, 0.0, 0.3), (0, 0.0, INF), (1, 0.25, 0.75), (1, 0.5, INF))
    assert bc.intervals == want
    assert bc.in_dim(0) == [(0.0, 0.1), (0.0, 0.3), (0.0, INF)]
    assert bc.in_dim(1) == [(0.25, 0.75), (0.5, INF)]
    rows = json.loads(bc.to_json())
    assert [(r["dim"], r["birth"], INF if r["death"] is None else r["death"])
            for r in rows] == list(want)
    assert Barcode.from_json(json.dumps(rows[::-1])).intervals == want

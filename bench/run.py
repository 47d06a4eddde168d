"""swbundle benchmark: seeded workloads through the CLI, checked against an oracle.

    python3 bench/run.py --workload lifebar-mix --seed 1 --seconds 30 --trace 0

One client calls ``swbundle.cli.main`` in-process in a closed loop: each
request starts when the previous one returns.  A pass runs every request of
the workload once; passes repeat while the next one fits in ``--seconds``.
Times are scaled by the machine speed measured alongside them (see
calibrate.py).  Every output is checked (lifebars against the exact parity
oracle, barcodes against stored references).  The last line of standard output is one JSON
object; with ``--trace 0`` it carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  See README.md.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# one BLAS thread, pinned before numpy is imported, here and in the set-up
# processes: a second thread would race other tenants for the other vCPU
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["SWBUNDLE_LOG"] = "warning"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import numpy  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
REFERENCES = BENCH / "refs" / "barcodes.json"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


class SetupError(RuntimeError):
    pass


def environment(args) -> dict:
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reference_kernel_s": calibrate.REFERENCE_S,
    }


def set_up(args, out: Path) -> tuple:
    """Raw and calibrated wall time of one fresh process that imports swbundle
    and writes the clouds; the speed is sampled right before and after it."""
    cmd = [sys.executable, str(BENCH / "generate.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out)]
    before = calibrate.speed_factor()
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    after = calibrate.speed_factor()
    if proc.returncode != 0:
        raise SetupError(f"set-up exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return elapsed, elapsed * (before + after) / 2


def call_cli(main, argv: list, err: io.StringIO):
    """Exit code of one CLI call, or None if it raised."""
    try:
        with contextlib.redirect_stderr(err):
            return main(argv)
    except Exception:  # a crash is a failed request, not the end of the run
        err.write(traceback.format_exc())
        return None


def run_request(main, request, work: Path, index: int, sampler):
    """Call the CLI once; returns (exit code or None, raw seconds, calibrated
    seconds or None, stderr, output path).  Untimed by the sampler when it is
    None (traced passes)."""
    out = work / f"out-{index}.json"
    argv = [request.command, "--input", str(work / f"{request.cloud}.json"),
            *request.args, "--output", str(out)]
    err = io.StringIO()
    if sampler is None:
        start = time.perf_counter()
        code = call_cli(main, argv, err)
        raw, calibrated = time.perf_counter() - start, None
    else:
        code, raw, calibrated = sampler.measure(call_cli, main, argv, err)
    return code, raw, calibrated, err.getvalue(), out


def check(request, code, stderr: str, out: Path, clouds: dict, references: dict) -> list:
    """Problems with one request's outcome; empty when it is right."""
    if code == 3 and request.may_refuse:
        problems = []
        if out.exists():
            problems.append("refused request wrote an output")
        if not stderr.strip():
            problems.append("exit 3 without an error message")
        return problems
    if code != 0:
        return [f"exit {code}: {stderr.strip()[-500:]}"]
    try:
        data = json.loads(out.read_text())
        if request.command == "lifebar":
            return oracle.check_lifebar(clouds[request.cloud], data)
        return oracle.check_barcode(data, references[request.name])
    except (OSError, ValueError, KeyError, TypeError) as err:
        return [f"malformed output: {err!r}"]


def percentile_line(latencies: list) -> str:
    """The median and the highest percentile with ten samples beyond it."""
    n, ordered = len(latencies), sorted(latencies)
    text = f"request_p50_s {statistics.median(latencies):.6f} s over {n} requests; "
    if n >= 21:
        return text + f"p{100 * (n - 10) // n} {ordered[n - 11]:.6f} s (10 samples beyond)"
    return text + "no percentile above the median has ten samples beyond it"


def layer_metrics(tracer, traced_passes: int, traced_walls, untraced_walls,
                  subdiv_levels: int) -> dict:
    own = spans.self_times(tracer.spans)
    dur, calls, self_by_name, self_by_layer = (defaultdict(float), defaultdict(int),
                                               defaultdict(float), defaultdict(float))
    for (name, start, end, _, _), self_s in zip(tracer.spans, own):
        dur[name] += end - start
        calls[name] += 1
        self_by_name[name] += self_s
        self_by_layer[name.split(".", 1)[0]] += self_s
    counts = tracer.counts
    n = traced_passes

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "simplicial.barycentric_subdivision.s": dur["simplicial.barycentric_subdivision"] / n,
        "simplicial.barycentric_subdivision.calls": calls["simplicial.barycentric_subdivision"] / n,
        "simplicial.subdivision.simplices": ratio(
            counts["simplicial.subdivision.simplices"], calls["simplicial.barycentric_subdivision"]),
        "simplicial.max_complex_simplices": counts["simplicial.max_complex_simplices"],
        "simplicial.is_simplicial_map.s": dur["simplicial.is_simplicial_map"] / n,
        "simplicial.pullback_cochain.s": dur["simplicial.pullback_cochain"] / n,
        "simplicial.rips_filtration.s": dur["simplicial.rips_filtration"] / n,
        "simplicial.rips_filtration.calls": calls["simplicial.rips_filtration"] / n,
        "simplicial.flag.simplices": ratio(
            counts["simplicial.flag.simplices"], calls["simplicial.rips_filtration"]),
        "z2.is_cocycle.s": dur["z2.is_cocycle"] / n,
        "z2.is_coboundary.s": dur["z2.is_coboundary"] / n,
        "z2.barcode.s": dur["z2.barcode"] / n,
        "z2.barcode.simplices": counts["z2.barcode.simplices"] / n,
        "projective.face_simplices.s": dur["projective.face_simplices"] / n,
        "projective.face_simplices.queries": counts["projective.face_simplices.queries"] / n,
        "projective.triangulate_rp.s": dur["projective.triangulate_rp"] / n,
        "grassmann.jacobi_eigh_batch.s": dur["grassmann.jacobi_eigh_batch"] / n,
        "grassmann.jacobi_eigh_batch.matrices": counts["grassmann.jacobi_eigh_batch.matrices"] / n,
        "grassmann.tmax.s": dur["grassmann.tmax"] / n,
        "grassmann.tmax.calls": calls["grassmann.tmax"] / n,
        "bundle.lifebar.calls": calls["bundle.lifebar"] / n,
        "bundle.sw_class_at.calls": ratio(calls["bundle.sw_class_at"], calls["bundle.lifebar"]),
        "bundle.sw_class_at.self_s": self_by_name["bundle.sw_class_at"] / n,
        "bundle.distance_matrix.s": dur["bundle.distance_matrix"] / n,
        "bundle.subdiv_levels": subdiv_levels / n,
        "bundle.weak_star_check.s": dur["bundle.weak_star_check"] / n,
        "bundle.weak_star_check.calls": calls["bundle.weak_star_check"] / n,
        "bundle.weak_star.pass_ratio": ratio(
            counts["bundle.weak_star.passes"], calls["bundle.weak_star_check"]),
        "datasets.load_cloud.s": dur["datasets.load_cloud"] / n,
        "render.s": sum(v for k, v in dur.items() if k.startswith("render.")) / n,
    }
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer] / n
    traced, untraced = statistics.median(traced_walls), statistics.median(untraced_walls)
    m.update({
        "trace.wall_s": traced,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.self_sum_s": sum(self_by_layer.values()) / n,
        "trace.spans": len(tracer.spans) / n,
    })
    return m


def benchmark(args, work: Path) -> tuple:
    """Set up, run the closed loop, check every output; returns (result, report lines)."""
    from swbundle import cli

    workload = workloads.build(args.workload, args.seed)
    setups = [set_up(args, work) for _ in range(SETUP_REPEATS)]

    clouds = {r.cloud: oracle.Cloud(work / f"{r.cloud}.json")
              for r in workload.requests if r.command == "lifebar"}
    references = {}
    if any(r.command == "barcode" for r in workload.requests):
        with open(REFERENCES) as fh:
            references = json.load(fh)

    # a traced run times raw (its metrics have no bound); an untraced one
    # samples the machine's speed throughout
    tracer = spans.Tracer() if args.trace else None
    sampler = None if tracer else calibrate.Sampler()
    main = tracer.wrap(cli.main) if tracer else cli.main
    latencies, traced_walls, untraced_walls, passes, problems = [], [], [], [], []
    attempted = answered = failed = subdiv_levels = 0
    first_pass_rss_kb = None
    with sampler or contextlib.nullcontext():
        begin = time.perf_counter()
        while True:
            traced = bool(tracer) and len(traced_walls) < len(untraced_walls)
            if traced:
                tracer.install()
            outcomes = []
            try:
                pass_start = time.perf_counter()
                for i, request in enumerate(workload.requests):
                    if tracer:
                        tracer.request = attempted + i
                    outcomes.append(run_request(main if traced else cli.main, request,
                                                work, i, sampler))
            finally:
                if traced:
                    tracer.remove()
            wall = sum(raw for _, raw, _, _, _ in outcomes)
            if first_pass_rss_kb is None:
                # later passes grow the heap by fragmentation, so the peak
                # after one pass, not after the last, is what a run repeats
                first_pass_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            (traced_walls if traced else untraced_walls).append(wall)
            if sampler:
                passes.append(sum(cal for _, _, cal, _, _ in outcomes))
            for request, (code, raw, cal, stderr, out) in zip(workload.requests, outcomes):
                attempted += 1
                latencies.append(raw if cal is None else cal)
                found = check(request, code, stderr, out, clouds, references)
                if found:
                    failed += 1
                    problems.append(f"{request.name}: {'; '.join(found)}")
                elif code == 0:
                    answered += 1
                    if traced and request.command == "lifebar":
                        evals = json.loads(out.read_text())["evaluations"]
                        subdiv_levels += sum(e["subdivisions"] for e in evals)
                out.unlink(missing_ok=True)
                out.with_suffix(".svg").unlink(missing_ok=True)
            # stop when another pass like this one would end past --seconds
            now = time.perf_counter()
            if now - begin + (now - pass_start) > args.seconds and (
                    not tracer or traced_walls):
                break

    report = [
        f"passes {len(traced_walls) + len(untraced_walls)} "
        f"({len(workload.requests)} requests each, {len(traced_walls)} traced)",
        f"set-up wall s (raw/calibrated) over {SETUP_REPEATS} set-ups: "
        + " ".join(f"{raw:.4f}/{cal:.4f}" for raw, cal in setups),
        f"pass wall s ({'raw/calibrated' if sampler else 'raw'}) per untraced pass: "
        + " ".join(
            f"{raw:.4f}/{cal:.4f}" if sampler else f"{raw:.4f}"
            for raw, cal in zip(untraced_walls, passes or untraced_walls)),
        percentile_line(latencies),
        f"fail_frac {attempted - answered}/{attempted} (refused or wrong); "
        f"wrong outputs {failed}",
        *problems,
    ]
    if tracer:
        metrics = layer_metrics(tracer, len(traced_walls), traced_walls, untraced_walls,
                                subdiv_levels)
        units = {k: layer_unit(k) for k in metrics}
        WORK.mkdir(exist_ok=True)
        spans_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "env": environment(args),
            "span_fields": ["name", "start", "end", "parent", "request"],
            "spans": tracer.spans,
            "metrics": metrics,
        }) + "\n")
        report.append(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        report.append(f"calibration samples {len(sampler.samples)}, median kernel "
                      f"{statistics.median(e - s for s, e in sampler.samples):.6f} s "
                      f"(reference {calibrate.REFERENCE_S} s)")
        metrics = {
            "setup_s": statistics.median(cal for _, cal in setups),
            "pass_s": statistics.median(passes),
            "peak_rss_mb": first_pass_rss_kb / 1024.0,
            "answered_frac": answered / attempted,
        }
        units = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB", "answered_frac": "ratio"}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "swbundle" / "__init__.py").is_file():
        print(f"error: no swbundle package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import swbundle

    if Path(swbundle.__file__).resolve().parent != SRC / "swbundle":
        print(f"error: imported swbundle from {swbundle.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result, report = benchmark(args, work)
    except (SetupError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in report:
        print(f"# {line}")
    for name, metric in result["metrics"].items():
        print(f"{name:42s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"env": environment(args)}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

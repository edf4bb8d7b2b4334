"""graphcorr benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; ``attempted``/``failed`` count output checks.  With ``--trace 0``
the metrics are the end-to-end ones of the named workload.  With
``--trace 1`` every workload is replayed with and without span tracing and
the metrics are the per-layer ones.  See perfbench/README.md.
"""

import time

T_START = time.perf_counter()  # setup time counts from here: imports, config parsing, warm-up

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work" / str(os.getpid())  # sweep config files of this process
WORKLOAD_NAMES = ("sweep-exact", "sweep-ls", "sweep-sparse", "theory")
SETUP_SAMPLES = 5  # this process plus fresh processes; setup_s is their median
# Rounds per workload in a traced run, per 20 s of --seconds: a fixed amount of work, so that
# per-layer call counts repeat exactly under a seed.  Sized to fill the run on a 2-core machine.
TRACE_ROUNDS = {"sweep-exact": 3, "sweep-ls": 1, "sweep-sparse": 6, "theory": 30}
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load(workload: str):
    """Import the package from this checkout and warm ``workload`` up."""
    if not (SRC / "graphcorr" / "__init__.py").is_file():
        sys.exit(f"perfbench: no graphcorr sources under {SRC}")
    os.environ["GRAPHCORR_WORKERS"] = "1"  # serial sweeps, whatever the caller set
    sys.path.insert(0, str(SRC))
    import graphcorr
    import workloads

    if Path(graphcorr.__file__).resolve().parent != (SRC / "graphcorr").resolve():
        sys.exit(f"perfbench: imported graphcorr from {graphcorr.__file__}, not from {SRC}")
    WORKDIR.mkdir(parents=True, exist_ok=True)
    found = workloads.make_workloads(str(WORKDIR))
    found[workload].warmup()
    return workloads, found, time.perf_counter() - T_START


def setup_probe(args) -> float:
    """Setup time of a fresh process doing the same imports, parsing and warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def context(caller_workers) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "caller_GRAPHCORR_WORKERS": caller_workers,
        "src_lines": src_lines,
    }


def run_round(w, rnd, checks, label):
    """Run one round; returns (output, seconds) or (None, seconds) if it raised."""
    t0 = time.perf_counter()
    try:
        out = w.run(rnd)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        checks.expect(False, f"{label} raised")
        return None, time.perf_counter() - t0
    return out, time.perf_counter() - t0


def timed_run(args, w, checks, setup_first: float) -> dict:
    setups = [setup_first] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    rates, ops_done, busy = [], 0, 0.0
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < args.seconds:
        rnd = w.plan(args.seed, index)
        out, dt = run_round(w, rnd, checks, f"{w.name} round {index}")
        if out is not None:
            w.check(rnd, out, checks)
            rates.append(rnd.ops / dt)
            ops_done += rnd.ops
            busy += dt
        index += 1
    if not rates:
        sys.exit(f"perfbench: no {w.name} round completed")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    extra = w.post(args.seed, checks)
    if extra is not None:
        extra()
    print(f"# {w.name}: {len(rates)} rounds, {ops_done} ops in {busy:.3f} s busy; "
          f"round rate min/median/max {min(rates):.4g}/{statistics.median(rates):.4g}/{max(rates):.4g} ops/s; "
          f"setup samples {[round(s, 4) for s in setups]}")
    if w.post_is_work:
        print(f"# {w.name} quality pass: {quality_summary(w.quality)}")
    return {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def quality_summary(quality) -> dict:
    out = {
        "reach_rate": sum(r for _, _, r in quality) / len(quality),
        "value_ratio": statistics.fmean(v for _, v, _ in quality),
    }
    for n in sorted({n for n, _, _ in quality}):
        out[f"value_ratio.n{n}"] = statistics.fmean(v for m, v, _ in quality if m == n)
    return out


def traced_run(args, found, checks) -> dict:
    """Run every workload's rounds untraced and traced in turn; per-layer metrics from the traced runs.

    Each round runs untraced and then traced right after it, so that machine speed drift
    cancels out of the tracing overhead.
    """
    import tracer as tr

    tracer = tr.Tracer()
    segments = {}
    for name in WORKLOAD_NAMES:
        w = found[name]
        if name != args.workload:
            w.warmup()
        rounds = [w.plan(args.seed, i) for i in range(max(1, round(TRACE_ROUNDS[name] * args.seconds / 20)))]
        extra = w.post(args.seed, checks)
        first = tracer.mark()
        untraced = traced = 0.0
        for i, rnd in enumerate(rounds):
            plain, dt = run_round(w, rnd, checks, f"{name} round {i}")
            untraced += dt
            tracer.install()
            out, dt = run_round(w, rnd, checks, f"{name} traced round {i}")
            tracer.uninstall()
            traced += dt
            if plain is not None and out is not None:
                w.check(rnd, out, checks)
                checks.expect(plain == out, f"{name}: outputs differ with tracing on")
        wall = traced
        if extra is not None and w.post_is_work:
            tracer.install()
            t0 = time.perf_counter()
            extra()
            wall += time.perf_counter() - t0
            tracer.uninstall()
        elif extra is not None:
            extra()
        last = tracer.mark()
        segments[name] = {
            "span_share": tracer.top_level_time(first, last) / wall,
            "sampling_share": tracer.inclusive_time("sampling.", first, last) / wall,
            "overhead": traced / untraced - 1,
            "rounds": len(rounds),
        }
        print(f"# traced {name}: {segments[name]}")
    for name in tracer.missing:
        print(f"# missing traced name: {name}")
    return layer_metrics(tracer, segments, found["sweep-ls"].quality)


def layer_metrics(tracer, segments, quality) -> dict:
    import tracer as tr

    stats = tracer.per_name()
    out = {}

    def mean_ms(name, n=None):
        row = stats[name]
        calls, secs = (row["calls"], row["incl_s"]) if n is None else row["by_n"].get(n, (0, 0.0))
        if calls:
            out[f"{name}.mean_ms" + ("" if n is None else f".n{n}")] = (1000 * secs / calls, "ms")

    for name in tr.NAMES:
        if name not in stats:
            if name not in tracer.missing:
                print(f"# traced name never called: {name}")
            continue
        out[f"{name}.calls"] = (stats[name]["calls"], "count")
        out[f"{name}.self_s"] = (stats[name]["self_s"], "s")
        mean_ms(name)
    for name, n in (("detect.qap_exact", 9), ("detect.qap_local_search", 30), ("detect.qap_local_search", 50),
                    ("sampling.sample_planted_er", 2000)):
        if name in stats:
            mean_ms(name, n)
    c = tracer.counters
    if "detect.all_statistic_values" in stats:
        out["detect.all_statistic_values.perms_per_s"] = (
            c["detect.all_statistic_values.perms"] / stats["detect.all_statistic_values"]["incl_s"], "1/s")
    er_s = sum(stats[n]["incl_s"] for n in tr.EDGE_SAMPLERS if n in stats)
    if er_s:
        out["sampling.edges_per_s"] = (c["sampling.edges"] / er_s, "1/s")
    stream = "enumeration.algorithm2_pseudoforests"
    if stream in stats:
        out[stream + ".items"] = (c[stream + ".items"], "count")
        out[stream + ".valid_ratio"] = (c[stream + ".valid"] / c[stream + ".items"], "ratio")
    if quality:
        q = quality_summary(quality)
        out["ls_reach_rate"] = (q["reach_rate"], "ratio")
        out["ls_value_ratio"] = (q["value_ratio"], "ratio")
    for name, seg in segments.items():
        out[f"span_share.{name}"] = (seg["span_share"], "ratio")
        out[f"trace_overhead.{name}"] = (seg["overhead"], "ratio")
        if name.startswith("sweep-"):
            out[f"sampling.share.{name}"] = (seg["sampling_share"], "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    caller_workers = os.environ.get("GRAPHCORR_WORKERS")
    try:
        return measure(args, caller_workers)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        try:
            WORKDIR.parent.rmdir()  # only succeeds once no other run is using it
        except OSError:
            pass


def measure(args, caller_workers) -> int:
    workloads, found, setup_first = load(args.workload)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_first}))
        return 0
    print("# context " + json.dumps(context(caller_workers)))
    checks = workloads.Checks()
    if args.trace:
        metrics = traced_run(args, found, checks)
    else:
        metrics = timed_run(args, found[args.workload], checks, setup_first)
    for msg in checks.messages:
        print(f"# check failed: {msg}")
    print(f"# check_fail_rate = {checks.failed / max(1, checks.attempted):.6g} ratio "
          f"({checks.failed} of {checks.attempted} checks)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

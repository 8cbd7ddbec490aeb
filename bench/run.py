"""ginlab benchmark: run one workload in this process and print its metrics.

    python3 bench/run.py --workload spins-n100 --seed 7 --seconds 27 --trace 0
    python3 bench/run.py --workload all --seed 7      # every workload, both modes
    python3 bench/run.py --workload all --smoke --seconds 1

Run it from the repository root (or any checkout of it); it imports ginlab
from ``src/`` next to this directory and exits non-zero without a result if
the sources are not there.

``--trace 0`` measures the end-to-end metrics: set-up time (median over fresh
processes), mean wall time per checked campaign round, Monte Carlo draws
per second over the run, and peak resident memory.  ``--trace 1`` rebinds the ginlab call
sites listed in ``layers.py`` to span recorders and reports per-layer calls
and self times, the un-spanned remainder, the tracing overhead, and a
bit-identity guard between an untraced and a traced round on the same seed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See NOTE.md.
"""

import os
import sys

# One BLAS/OpenMP thread, pinned before numpy loads in this process or in the
# set-up probes it starts: with two threads the n=100 Schur was slower on a
# two-core machine, so the thread count travels with every number.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# campaign flags come from the command lines built here, never from the caller
for _var in [v for v in os.environ if v.startswith("GINLAB_")]:
    del os.environ[_var]

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from layers import LAYERS, PROBE_SPANS, ROUND_SPAN, span_table  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, warm_up  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_REPEATS = 7
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "draws_per_s": "1/s", "peak_rss_mb": "MB"}
TRACE_UNITS = {"trace.wall_s": "s", "trace.unspanned_s": "s", "trace.overhead_s": "s"}

# Runs in a fresh interpreter; times what every campaign pays before its
# first draw: importing ginlab with all its modules (as the command line
# does), numpy and scipy, and the first LAPACK call.
SETUP_PROBE = """
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
import numpy
import ginlab.cli
from ginlab import linalg
linalg.real_schur(numpy.array([[2.0, 1.0], [-1.0, 3.0]]))
print(time.perf_counter() - t0)
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="ginlab benchmark")
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=27.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, one set-up probe")
    return p.parse_args(argv)


def load_ginlab():
    """The ginlab modules from this checkout's src/, by name, or exit non-zero.

    A namespace, not the package: ``ginlab.pfaffian`` is the re-exported
    function, not the module.
    """
    if not (SRC / "ginlab" / "__init__.py").is_file():
        raise SystemExit(f"error: ginlab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"ginlab.{m}") for m in LAYERS}
    origin = Path(mods["cli"].__file__).resolve().parent
    if origin != SRC / "ginlab":
        raise SystemExit(f"error: imported ginlab from {origin}, not {SRC / 'ginlab'}")
    return SimpleNamespace(**mods)


def environment() -> dict:
    def blas(mod):
        b = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{b.get('name')} {b.get('version')}"

    return {
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def measure_setup(repeats: int) -> list:
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def round_seed(seed: int, j: int) -> int:
    # rounds 1000 apart, so the lemma1 per-config offsets never collide
    return seed * 1_000_000 + 1000 * j


@dataclass
class Timed:
    wall: float
    cpu: float
    mc: float
    rnd: object


def run_rounds(g, size, seed, work_dir, tracer, round_fn, deadline) -> list:
    """Rounds 0, 1, ... while another round of the mean length so far ends by the deadline.

    At least one round runs; the run measures for at most about ``deadline``
    less its start, never a long last round past it.
    """
    out = []
    j = 0
    while True:
        before = tracer.snapshot()
        t0, c0 = time.perf_counter(), time.process_time()
        rnd = round_fn(g, round_seed(seed, j), size, work_dir)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        after = tracer.snapshot()
        mc = sum(after[n][2] - before.get(n, [0, 0.0, 0.0, 0])[2] for n in PROBE_SPANS if n in after)
        out.append(Timed(wall, cpu, mc, rnd))
        j += 1
        if time.perf_counter() + statistics.fmean(t.wall for t in out) > deadline:
            return out


def probe_targets(g):
    return [(name, sites) for name, sites in span_table(g) if name in PROBE_SPANS]


def untraced(g, workload, size, args, work_dir):
    setup = measure_setup(1 if args.smoke else SETUP_REPEATS)
    tracer = Tracer()
    tracer.install(probe_targets(g))
    try:
        start = time.perf_counter()
        rounds = run_rounds(g, size, args.seed, work_dir, tracer, workload.run_round, start + args.seconds)
    finally:
        tracer.uninstall()
    rates = [t.rnd.draws / t.mc for t in rounds if t.mc > 0 and t.rnd.draws]
    # Whole-run aggregates, not medians over rounds: a shared host runs this
    # process fast and slow in turns of a few seconds, so round times are
    # bimodal and their median jumps between the modes from run to run,
    # while the mean moves smoothly with the share of slow time.
    mc_time = sum(t.mc for t in rounds)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.fmean(t.wall for t in rounds),
        "draws_per_s": sum(t.rnd.draws for t in rounds) / mc_time if mc_time > 0 else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "setup_samples_s": setup,
        "round_walls_s": [t.wall for t in rounds],
        "round_cpu_s": [t.cpu for t in rounds],
        "draw_rates": rates,
    }
    return rounds, metrics, E2E_UNITS, [], extra


def fingerprint_bits(values) -> list:
    return [v.hex() if isinstance(v, float) else v for v in values]


def traced(g, workload, size, args, work_dir):
    start = time.perf_counter()
    deadline = start + args.seconds
    # round 0 as the untraced runs make it, then again with every span installed
    probe = Tracer()
    probe.install(probe_targets(g))
    try:
        reference = run_rounds(g, size, args.seed, work_dir, probe, workload.run_round, 0.0)
    finally:
        probe.uninstall()
    tracer = Tracer()
    table = span_table(g)
    tracer.install(table)
    try:
        root = tracer.wrap(ROUND_SPAN, workload.run_round)
        rounds = run_rounds(g, size, args.seed, work_dir, tracer, root, deadline)
    finally:
        tracer.uninstall()
    guard = []
    if fingerprint_bits(reference[0].rnd.fingerprint) != fingerprint_bits(rounds[0].rnd.fingerprint):
        guard.append("traced round 0 differs from the untraced round 0 on the same seed")
        print(f"FAILED bit-identity guard: {guard[0]}", file=sys.stderr)

    count = len(rounds)
    totals = tracer.totals
    metrics, units = {}, {}
    for name, _ in table:
        calls, self_s, _incl, _failures = totals.get(name, [0, 0.0, 0.0, 0])
        metrics[f"{name}.calls"], units[f"{name}.calls"] = calls / count, "count"
        metrics[f"{name}.s"], units[f"{name}.s"] = self_s / count, "s"
    for layer in LAYERS:
        failures = sum(v[3] for n, v in totals.items() if n.split(".")[0] == layer)
        metrics[f"{layer}.failures"], units[f"{layer}.failures"] = failures, "count"
    metrics["trace.wall_s"] = statistics.fmean(t.wall for t in rounds)
    metrics["trace.unspanned_s"] = totals[ROUND_SPAN][1] / count
    metrics["trace.overhead_s"] = rounds[0].wall - reference[0].wall
    units.update(TRACE_UNITS)
    tracer.dump(str(RESULTS / f"{workload.name}.spans.json"), start)
    extra = {
        "traced_rounds": count,
        "untraced_round0_wall_s": reference[0].wall,
        "traced_round_walls_s": [t.wall for t in rounds],
        "traced_round_cpu_s": [t.cpu for t in rounds],
        "spans": len(tracer.spans),
    }
    return reference + rounds, metrics, units, guard, extra


def run_one(args) -> dict:
    g = load_ginlab()

    workload = WORKLOADS[args.workload]
    size = workload.smoke if args.smoke else workload.full
    env = environment()
    RESULTS.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=RESULTS)
    try:
        warm_up(g)
        mode = traced if args.trace else untraced
        rounds, metrics, units, guard, extra = mode(g, workload, size, args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted = sum(t.rnd.ops for t in rounds)
    failed = min(attempted, sum(t.rnd.failed for t in rounds) + len(guard))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"args": vars(args), "env": env, "size": size, "rounds": len(rounds), **extra, "result": result}
    with open(RESULTS / f"{workload.name}.trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} rounds {len(rounds)}"
          f" ops {attempted} failed {failed}")
    for k, v in metrics.items():
        print(f"  {k:44s} {v:.6g} {units[k]}")
    return result


def run_all(args) -> dict:
    """Every workload in both modes, each in its own process; one summary line."""
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}")
            summary[f"{name}.trace{trace}"] = json.loads(proc.stdout.splitlines()[-1])
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    out = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

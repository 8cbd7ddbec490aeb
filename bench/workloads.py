"""The four benchmark workloads: one campaign-shaped round each, with its checks.

A round makes one or more top-level calls ("ops") into ginlab through the
module attributes (``g.sampler.estimate_spin_moments`` and so on), so the
spans of :mod:`layers` see them.  An op fails when it raises or when its
result misses the round's correctness check; failures are counted, printed
to stderr and never raised past the benchmark.

Checks are set at ``Z_MAX`` standard errors, so a correct program passes
them on essentially any seed (a two-sided 5-sigma miss has probability
about 6e-7 per comparison) while a wrong closed form or a broken estimator
still fails them.  The round's ``fingerprint`` holds the estimates bit for
bit, for the traced-against-untraced identity guard.
"""

import contextlib
import io
import itertools
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

Z_MAX = 5.0

SPIN_CONFIGS = ((0.0, 0.25), (0.0, 0.5), (0.0, 1.0))
LEMMA1_CONFIGS = ((-0.4, 0.4), (-0.2, 0.6), (0.1, 0.8))
LEMMA1_SEED_STRIDE = 97
HAAR_BASE = (-0.9, -0.3, 0.3, 0.9)
HAAR_SCALES = (1.0, 0.75, 1.25)
HAAR_TIMES = (0.9, 1.3, 2.0)
# ten points: 945 matchings, enough that their enumeration is a visible share
STATIONARY_POINTS = "0.3,0.9,1.6,2.4,3.1,3.7,4.2,4.8,5.5,6.1"


@dataclass
class Round:
    ops: int = 0
    failed: int = 0
    draws: int = 0
    fingerprint: list = field(default_factory=list)


def _op(rnd: Round, label: str, call, check) -> None:
    """One top-level call and its check; ``check(result)`` returns a list of problems."""
    rnd.ops += 1
    try:
        problems = check(call())
    except Exception:  # every op failure is counted, whatever ginlab raised
        problems = [f"raised:\n{traceback.format_exc()}"]
    _miss(rnd, label, problems)


def _miss(rnd: Round, label: str, problems) -> None:
    if problems:
        rnd.failed += 1
        for p in problems:
            print(f"FAILED {label}: {p}", file=sys.stderr)


def spins_round(g, seed: int, size: dict, work_dir: str) -> Round:
    """estimate_spin_moments on the criterion-3 configs, shared draws, checked against the kernel."""
    n, samples = size["n"], size["samples"]
    rnd = Round()

    def check(ests):
        rnd.draws += samples
        problems = []
        for cfg, est in zip(SPIN_CONFIGS, ests):
            closed = g.kernel.spin_correlation(cfg)
            z = abs(est.mean - closed) / est.stderr if est.stderr > 0 else math.inf
            if not z < Z_MAX:
                problems.append(f"{cfg}: {est.mean!r} +- {est.stderr!r} vs {closed!r}")
            rnd.fingerprint += [est.mean, est.stderr]
        # the estimator's draw 0 again: spin(check=True) raises unless the
        # Schur classification agrees with the determinant sign
        sample = g.sampler.sample_ginoe(n, g.sampler.stream(seed, 0))
        for x in sorted({x for cfg in SPIN_CONFIGS for x in cfg}):
            rnd.fingerprint.append(g.sampler.spin(sample, x, check=True))
        return problems

    _op(
        rnd,
        f"estimate_spin_moments(n={n}, seed={seed})",
        lambda: g.sampler.estimate_spin_moments(n, SPIN_CONFIGS, samples, seed),
        check,
    )
    return rnd


def duality_round(g, seed: int, size: dict, work_dir: str) -> Round:
    """duality_check on the lemma1 configs with the quadrature moment; the ratios must agree."""
    n, samples = size["n"], size["samples"]
    rnd = Round()
    reports = []

    def check(rep):
        rnd.draws += samples
        reports.append(rep)
        rnd.fingerprint += [rep.lhs, rep.lhs_stderr, rep.rhs, rep.ratio, rep.ratio_stderr]
        return []

    for i, cfg in enumerate(LEMMA1_CONFIGS[: size["configs"]]):
        cfg_seed = seed + LEMMA1_SEED_STRIDE * i
        _op(
            rnd,
            f"duality_check(n={n}, {cfg}, seed={cfg_seed})",
            lambda: g.sampler.duality_check(n, cfg, samples, cfg_seed, moment="quadrature"),
            check,
        )
    problems = []
    for a, b in itertools.combinations(reports, 2):
        z = abs(a.ratio - b.ratio) / math.hypot(a.ratio_stderr, b.ratio_stderr)
        if not z < Z_MAX:
            problems.append(f"{a.ratio!r} at {a.points} vs {b.ratio!r} at {b.points}: z={z:.2f}")
    _miss(rnd, f"duality ratios (seed={seed})", problems)
    return rnd


def haar_round(g, seed: int, size: dict, work_dir: str) -> Round:
    """integral_mc_grid on the matrix-integral k=4 grid, then the fitted-constant spread."""
    samples = size["samples"]
    configs = [tuple(np.asarray(HAAR_BASE) * s) for s in HAAR_SCALES]
    rnd = Round()

    def check(values):
        rnd.draws += samples
        rows, spread = g.group_integrals.fit_shape_constant(values, configs, HAAR_TIMES)
        rnd.fingerprint += [v for r in rows for v in (r.value, r.stderr)] + [spread]
        # every fitted constant against the reference, each with its own stderr
        tol = Z_MAX * math.sqrt(2.0) * max(r.stderr / abs(r.value) for r in rows)
        return [] if spread < tol else [f"fitted-constant spread {spread!r} >= {tol!r}"]

    _op(
        rnd,
        f"integral_mc_grid(k=4, seed={seed})",
        lambda: g.group_integrals.integral_mc_grid(configs, HAAR_TIMES, samples, seed),
        check,
    )
    return rnd


def closed_forms_round(g, seed: int, size: dict, work_dir: str) -> Round:
    """The deterministic campaigns through cli.main: exit 0 and every manifest check passed."""
    rnd = Round()
    campaigns = [
        ("pfaffian-selftest", []),
        ("kernel-table", []),
        ("stationary-phase", [f"--points={size['stationary_points']}"]),
        ("heat-check", []),
    ]
    for name, extra in campaigns:
        out = os.path.join(work_dir, f"{name}.csv")
        argv = [name, "--seed", str(seed), "--out", out, "--format", "csv", *extra]

        def check(rc):
            rnd.draws += 1
            if rc != 0:
                return [f"exit code {rc}"]
            with open(out, "rb") as fh:
                rnd.fingerprint.append(fh.read())
            with open(out + ".manifest.json") as fh:
                checks = json.load(fh)["checks"]
            return [f"check {c['name']} failed" for c in checks if not c["passed"]]

        with contextlib.redirect_stdout(io.StringIO()):
            _op(rnd, "ginlab " + " ".join(argv), lambda: g.cli.main(argv), check)
    return rnd


@dataclass(frozen=True)
class Workload:
    name: str
    run_round: object
    full: dict
    smoke: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload("spins-n100", spins_round, {"n": 100, "samples": 200}, {"n": 30, "samples": 100}),
        Workload(
            "duality-n10",
            duality_round,
            {"n": 10, "samples": 8000, "configs": 3},
            {"n": 4, "samples": 3000, "configs": 2},
        ),
        Workload("haar-k4", haar_round, {"samples": 100_000}, {"samples": 8192}),
        Workload(
            "closed-forms",
            closed_forms_round,
            {"stationary_points": STATIONARY_POINTS},
            {"stationary_points": "0.3,0.9,1.6,2.4"},
        ),
    )
}


def warm_up(g) -> None:
    """One small call into each LAPACK and special-function path, so first-call costs are not timed."""
    g.sampler.estimate_spin_moments(8, [(0.0, 0.5)], 100, 0)
    g.group_integrals.integral_mc_grid([(-0.5, -0.1, 0.1, 0.5)], [1.0], 64, 0)
    g.kernel.spin_correlation((0.0, 0.5))
    g.pfaffian.pfaffian(np.array([[0.0, 1j], [-1j, 0.0]]))

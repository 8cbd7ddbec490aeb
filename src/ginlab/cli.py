"""Reproducible experiment campaigns.

One subcommand per verification campaign; every run is seeded (defaults are
fixed constants, never the clock), writes a machine-readable result table
(csv or json) plus a manifest with per-check pass/fail, and exits 0 on
pass, 1 on a numerical failure, 2 on a usage error.

Each campaign takes --seed, --out and --format plus only the flags its
runner reads (CAMPAIGNS); any other flag is a usage error.  Flag values
resolve as: command line > environment (GINLAB_<FLAG>) > built-in default.
"""

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import __version__, heat, kernel, stationary_phase
from ._rng import stream
from .errors import UsageError
from .group_integrals import (
    fit_shape_constant,
    integral_mc_grid,
    integral_quadrature_k2,
    vandermonde,
)
from .pfaffian import pfaffian, pfaffian_matchings
from .sampler import (
    DUALITY_HALFWIDTH,
    ENTRY_VARIANCE,
    duality_check,
    estimate_signed_density,
    estimate_spin_moments,
)

DEFAULT_SEED = 20240901
#: The flags each campaign's runner reads, beyond --seed, --out and
#: --format, with their defaults; None leaves the default to the runner.
CAMPAIGNS = {
    "pfaffian-selftest": {},
    "kernel-table": {"points": None},
    "mc-spins": {"n": 100, "samples": 1000, "points": None},
    "mc-density": {"n": 10, "samples": 4000, "bins": None},
    "lemma1": {"n": 10, "samples": 20000, "points": None},
    "matrix-integral": {"k": None, "samples": 200000, "points": None, "t_grid": None},
    "stationary-phase": {"points": None, "t_grid": None},
    "heat-check": {"points": None, "t_grid": None},
}


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    tolerance: float
    passed: bool


def _max_check(name: str, measured, tolerance: float) -> Check:
    """A check that the largest measurement is below ``tolerance``.

    An empty list measures 0.0; a NaN measurement propagates and fails.
    """
    worst = float(np.max(measured, initial=0.0))
    return Check(name, worst, tolerance, worst < tolerance)


def _zscore(estimate: float, closed: float, stderr: float) -> float:
    """|estimate - closed| / stderr; draws that never varied (stderr 0)
    pass only on an exact match, with z = 0, and otherwise get z = inf."""
    if stderr > 0:
        return abs(estimate - closed) / stderr
    return 0.0 if estimate == closed else float("inf")


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_results(path: str, fmt: str, campaign: str, columns, rows) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(f"# ginlab {campaign} results v1\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        data = buf.getvalue()
    elif fmt == "json":
        data = json.dumps(
            {
                "campaign": campaign,
                "version": 1,
                "columns": list(columns),
                "rows": [dict(zip(columns, [_fmt(v) for v in row])) for row in rows],
            },
            indent=1,
            sort_keys=True,
        ) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(data)


def write_manifest(path: str, config: dict, checks, wall_time: float) -> None:
    manifest = {
        "artifact_version": __version__,
        "config": config,
        "wall_time_s": wall_time,
        "conventions": {
            "entry_variance": ENTRY_VARIANCE,
            "bulk_dilation": 1.0,
        },
        "checks": [
            {
                "name": c.name,
                "measured": c.measured,
                "tolerance": c.tolerance,
                "passed": bool(c.passed),
            }
            for c in checks
        ],
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _parse_floats(text: str):
    try:
        values = tuple(float(p) for p in text.split(",") if p != "")
    except ValueError as exc:
        raise UsageError(f"could not parse float list {text!r}") from exc
    if not values:
        raise UsageError(f"empty float list {text!r}")
    return values


def _parse_bins(text: str) -> np.ndarray:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"bin spec must be lo:hi:count, got {text!r}")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise UsageError(f"could not parse bin spec {text!r}") from exc
        if count < 1 or hi <= lo:
            raise UsageError(f"degenerate bin spec {text!r}")
        return np.linspace(lo, hi, count + 1)
    edges = np.asarray(_parse_floats(text))
    if len(edges) < 2:
        raise UsageError(f"need at least two bin edges, got {text!r}")
    return edges


def _resolve(value, env_name: str, default, cast):
    if value is not None:
        return value
    env = os.environ.get(env_name)
    if env is not None:
        try:
            return cast(env)
        except ValueError as exc:
            raise UsageError(f"bad {env_name}={env!r}: {exc}") from exc
    return default


# ---------------------------------------------------------------- campaigns


def run_pfaffian_selftest(cfg):
    rng = stream(cfg["seed"], 0)
    columns = ("dim", "trial", "pf_sq_vs_det_rel", "matchings_rel")
    rows = []
    for dim in range(2, 13, 2):
        for trial in range(4):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            a = a - a.T
            pf = pfaffian(a)
            det = np.linalg.det(a)
            rel_det = abs(pf * pf - det) / max(abs(det), 1e-300)
            rel_match = abs(pf - pfaffian_matchings(a)) / max(abs(pf), 1e-300)
            rows.append((dim, trial, rel_det, rel_match))
    checks = [
        _max_check("pfaffian_square_equals_det", [r[2] for r in rows], 1e-10),
        _max_check("tridiagonal_equals_matchings", [r[3] for r in rows], 1e-10),
    ]
    return columns, rows, checks


def run_kernel_table(cfg):
    zs = tuple(np.linspace(0.0, 3.0, 13)) if cfg["points"] is None else cfg["points"]
    columns = (
        "z",
        "gauss_tail",
        "gauss_tail_d1",
        "gauss_tail_d2",
        "pair_correlation",
        "pair_signed_density",
        "pair_spin_moment",
    )
    rows = []
    for z in zs:
        pair = (0.0, float(z)) if z != 0 else None
        rows.append(
            (
                float(z),
                kernel.gauss_tail(float(z)),
                kernel.gauss_tail_d1(float(z)),
                kernel.gauss_tail_d2(float(z)),
                kernel.correlation(pair) if pair else kernel.correlation((0.0,)),
                kernel.signed_density(pair) if pair else 0.0,
                kernel.spin_correlation((0.0, float(z))),
            )
        )
    rho0 = kernel.correlation((0.0,))
    checks = [
        Check("gauss_tail_at_zero", kernel.gauss_tail(0.0), 0.0, kernel.gauss_tail(0.0) == 0.5),
        Check("one_point_correlation", rho0, 0.0, rho0 == 1.0 / np.sqrt(np.pi)),
        Check(
            "coincident_spin_moment",
            kernel.spin_correlation((0.3, 0.3)),
            0.0,
            kernel.spin_correlation((0.3, 0.3)) == 1.0,
        ),
    ]
    return columns, rows, checks


def run_mc_spins(cfg):
    pts = (0.0, 0.5) if cfg["points"] is None else cfg["points"]
    ests = estimate_spin_moments(cfg["n"], [pts], cfg["samples"], cfg["seed"])
    est = ests[0]
    closed = kernel.spin_correlation(pts)
    z = _zscore(est.mean, closed, est.stderr)
    columns = ("points", "mean", "stderr", "closed_form", "zscore")
    rows = [(";".join(_fmt(p) for p in pts), est.mean, est.stderr, closed, z)]
    checks = [Check("spin_moment_within_3_stderr", z, 3.0, z < 3.0)]
    return columns, rows, checks


def run_mc_density(cfg):
    if cfg["n"] < 2:  # one eigenvalue has no pairs: every cell would read 0 +- 0
        raise UsageError(f"mc-density needs n >= 2, got {cfg['n']}")
    edges = np.linspace(-0.75, 0.75, 5) if cfg["bins"] is None else cfg["bins"]
    dens = estimate_signed_density(cfg["n"], edges, 2, cfg["samples"], cfg["seed"])
    columns = ("lo1", "hi1", "lo2", "hi2", "estimate", "stderr", "closed_form", "zscore")
    rows, zs_n = [], []
    m = len(dens.intervals)
    # the raw cell measure is swap-symmetric; the closed form is its value
    # on ordered products, so compare cells with interval_i left of interval_j
    for i in range(m):
        for j in range(i + 1, m):
            cell = (*dens.intervals[i], *dens.intervals[j])
            closed = kernel.cell_average(kernel.pair_density, *cell)
            est = dens.values[i, j]
            se = dens.stderr[i, j]
            z = _zscore(est, closed, se)
            rows.append((*cell, est, se, closed, z))
            zs_n.append(_zscore(est, kernel.pair_density_n_average(cfg["n"], *cell), se))
    checks = [
        _max_check("signed_density_within_3_stderr", [r[-1] for r in rows], 3.0),
        _max_check("finite_n_density_within_3_stderr", zs_n, 3.0),
    ]
    return columns, rows, checks


def _duality_constant_z(reports) -> float:
    """The pooled z of lemma1's ratios against -4/pi, sum_i z_i / sqrt(R) over R rows.

    Row i's RHS is averaged over its two bins, the cell whose density its LHS
    estimates: z_i = (LHS_i / RHS_i + 4/pi) |RHS_i| / (LHS_i's standard error).
    """
    zs = []
    for r in reports:
        (x1, x2), h = r.points, DUALITY_HALFWIDTH
        rhs = kernel.lemma1_rhs_average(r.n, x1 - h, x1 + h, x2 - h, x2 + h)
        zs.append((r.lhs / rhs + 4.0 / np.pi) * abs(rhs) / r.lhs_stderr)
    return float(sum(zs) / np.sqrt(len(zs)))


def run_lemma1(cfg):
    if cfg["points"] is None:
        configs = [(-0.4, 0.4), (-0.2, 0.6), (0.1, 0.8)]
    else:
        configs = [cfg["points"]]
    reports = [
        duality_check(cfg["n"], c, cfg["samples"], cfg["seed"] + 97 * i)
        for i, c in enumerate(configs)
    ]
    columns = ("x1", "x2", "lhs", "lhs_stderr", "rhs", "ratio", "ratio_stderr")
    rows = [
        (r.points[0], r.points[1], r.lhs, r.lhs_stderr, r.rhs, r.ratio, r.ratio_stderr)
        for r in reports
    ]
    zs = [
        abs(a.ratio - b.ratio) / np.hypot(a.ratio_stderr, b.ratio_stderr)
        for a, b in combinations(reports, 2)
    ]
    pooled = _duality_constant_z(reports)
    checks = [
        _max_check("duality_ratio_constant", zs, 3.0),
        Check("duality_ratio_is_minus_4_over_pi", pooled, 3.0, abs(pooled) < 3.0),
    ]
    return columns, rows, checks


def run_matrix_integral(cfg):
    k = 2 if cfg["k"] is None else cfg["k"]
    defaults = {2: (-0.5, 0.7), 4: (-0.9, -0.3, 0.3, 0.9)}
    if k not in defaults:
        raise UsageError(f"matrix-integral supports k=2 or k=4, got {k}")
    ts = (0.5, 0.8, 1.0, 1.5, 2.5) if cfg["t_grid"] is None else cfg["t_grid"]
    base = defaults[k] if cfg["points"] is None else cfg["points"]
    if len(base) != k:
        raise UsageError(f"matrix-integral --k {k} needs {k} points, got {len(base)}")
    columns = ("k", "points", "t", "value", "stderr", "exact_shape", "fitted_constant")
    if k == 2:
        configs = [tuple(np.asarray(base) * s) for s in (1.0, 0.8, 1.2, 0.6, 1.5)]
        values = [[integral_quadrature_k2(*c, t) for t in ts] for c in configs]
        tol = 1e-6
    else:
        configs = [tuple(np.asarray(base) * s) for s in (1.0, 0.75, 1.25)]
        values = integral_mc_grid(configs, ts, cfg["samples"], cfg["seed"])
        tol = 0.02
    rows_fit, spread = fit_shape_constant(values, configs, ts)
    rows = [
        (
            k,
            ";".join(_fmt(p) for p in r.points),
            r.t,
            r.value,
            r.stderr,
            r.shape,
            r.fitted_constant,
        )
        for r in rows_fit
    ]
    checks = [Check("fitted_constant_spread", spread, tol, spread < tol)]
    return columns, rows, checks


def run_stationary_phase(cfg):
    pts = (0.3, 0.9, 1.6, 2.4) if cfg["points"] is None else cfg["points"]
    ts = (1.0,) if cfg["t_grid"] is None else cfg["t_grid"]
    columns = (
        "matching",
        "critical_value",
        "inversions",
        "signature",
        "sqrt_abs_hessian_det",
        "measured_log2_prefactor",
    )
    table = stationary_phase.critical_data(pts)
    rows = list(
        zip(
            table.names(),
            table.critical_values.tolist(),
            table.inversions.tolist(),
            table.signatures.tolist(),
            table.sqrt_abs_hessian_dets.tolist(),
            table.log2_prefactors.tolist(),
        )
    )
    kk = len(pts) // 2
    sig_ok = bool((table.signatures == 4 * table.inversions - 2 * kk * (kk - 1)).all())
    rel_errs = []
    for t in ts:
        lhs = stationary_phase.matchings_phase_sum(pts, t)
        rhs = stationary_phase.phase_pfaffian_ratio(pts, t)
        rel_errs.append(abs(lhs - rhs) / max(abs(rhs), 1e-300))
    maxm = stationary_phase.find_max_matching(pts)
    is_consecutive = maxm.pairs == tuple((2 * i + 1, 2 * i + 2) for i in range(kk))
    checks = [
        Check("signature_identity", 0.0 if sig_ok else 1.0, 0.0, sig_ok),
        _max_check("phase_sum_equals_pfaffian", rel_errs, 1e-12),
        Check("max_matching_consecutive", 0.0 if is_consecutive else 1.0, 0.0, is_consecutive),
    ]
    return columns, rows, checks


def run_heat_check(cfg):
    pts = (-0.35, 0.55) if cfg["points"] is None else cfg["points"]
    if len(pts) != 2:  # integral_form is the two-point integral
        raise UsageError(f"heat-check needs 2 points, got {len(pts)}")
    if len(set(pts)) < len(pts):
        raise UsageError("points must be distinct")
    ts = (0.1, 0.05, 0.025) if cfg["t_grid"] is None else cfg["t_grid"]
    order_pf = heat.residual_order(heat.signed_density_t, pts, 1.0, 1e-3)

    def integral_form(x, t):
        return t ** (-1.5) * vandermonde(x) * integral_quadrature_k2(x[0], x[1], t)

    order_int = heat.residual_order(integral_form, pts, 1.0, 1e-3)

    def odd_fn(x1, x2):
        return (x2 - x1) * np.exp(-x1 * x1 - x2 * x2)

    def even_fn(x1, x2):
        return (x2 - x1) ** 2 * np.exp(-x1 * x1 - x2 * x2)

    rep_odd, rep_even = heat.initial_condition_check((odd_fn, even_fn), ts)
    columns = ("test_fn", "t", "pairing", "extrapolated_limit")
    rows = [("odd", r.t, r.pairing, rep_odd.extrapolated) for r in rep_odd.rows] + [
        ("even", r.t, r.pairing, rep_even.extrapolated) for r in rep_even.rows
    ]
    rel_err = rep_odd.error / abs(rep_odd.target)
    checks = [
        Check("residual_order_density", order_pf, 1.9, order_pf >= 1.9),
        Check("residual_order_integral", order_int, 1.9, order_int >= 1.9),
        Check("odd_pairing_matches_target", rel_err, 0.02, rel_err < 0.02),
        Check("even_pairing_vanishes", abs(rep_even.extrapolated), 1e-6, abs(rep_even.extrapolated) < 1e-6),
    ]
    return columns, rows, checks


RUNNERS = {
    "pfaffian-selftest": run_pfaffian_selftest,
    "kernel-table": run_kernel_table,
    "mc-spins": run_mc_spins,
    "mc-density": run_mc_density,
    "lemma1": run_lemma1,
    "matrix-integral": run_matrix_integral,
    "stationary-phase": run_stationary_phase,
    "heat-check": run_heat_check,
}

#: Each flag a campaign may read: the type of its command-line or
#: environment value, the parse of a list's text, and its help.
FLAGS = {
    "samples": (int, None, "Monte Carlo sample count"),
    "n": (int, None, "matrix size"),
    "k": (int, None, "integral size, 2 or 4"),
    "points": (str, _parse_floats, "comma-separated positions"),
    "t_grid": (str, _parse_floats, "comma-separated times"),
    "bins": (str, _parse_bins, "bin edges e1,e2,... or lo:hi:count"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ginlab",
        description="Seeded verification campaigns for real-eigenvalue statistics.",
        epilog=(
            "Flags resolve as: command line > GINLAB_<FLAG> environment "
            "variable > default.  Exit codes: 0 pass, 1 numerical failure, "
            "2 usage error."
        ),
    )
    sub = parser.add_subparsers(dest="campaign", required=True)
    for name, flags in CAMPAIGNS.items():
        p = sub.add_parser(name, help=f"run the {name} campaign")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (fixed default)")
        for flag in flags:
            cast, _, text = FLAGS[flag]
            p.add_argument("--" + flag.replace("_", "-"), type=cast, default=None, help=text)
        p.add_argument("--out", type=str, default=None, help="result file path")
        p.add_argument("--format", type=str, default=None, choices=("csv", "json"))
    return parser


def resolve_config(args) -> dict:
    fmt = _resolve(args.format, "GINLAB_FORMAT", "csv", str)
    if fmt not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, got {fmt!r}")
    cfg = {
        "campaign": args.campaign,
        "seed": _resolve(args.seed, "GINLAB_SEED", DEFAULT_SEED, int),
        "out": _resolve(args.out, "GINLAB_OUT", f"{args.campaign}.{fmt}", str),
        "format": fmt,
    }
    for flag, default in CAMPAIGNS[args.campaign].items():
        cast, parse, _ = FLAGS[flag]
        value = _resolve(getattr(args, flag), "GINLAB_" + flag.upper(), default, cast)
        cfg[flag] = parse(value) if parse and value is not None else value
    if "samples" in cfg and cfg["samples"] < 1:
        raise UsageError("samples must be >= 1")
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        start = time.monotonic()
        columns, rows, checks = RUNNERS[args.campaign](cfg)
        wall = time.monotonic() - start
        write_results(cfg["out"], cfg["format"], args.campaign, columns, rows)
        echo = {
            k: (list(v) if isinstance(v, (tuple, np.ndarray)) else v)
            for k, v in cfg.items()
        }
        write_manifest(cfg["out"] + ".manifest.json", echo, checks, wall)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    failed = [c for c in checks if not c.passed]
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name}: measured {c.measured:.6g} (tolerance {c.tolerance:.6g})")
    if failed:
        print(f"{len(failed)} check(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

import csv
import hashlib
import json
import math
import os
from functools import partial
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import dblquad

from ginlab import cli, group_integrals, heat, kernel, sampler, stationary_phase
from ginlab.cli import (
    CAMPAIGNS,
    _duality_constant_z,
    _max_check,
    _parse_bins,
    build_parser,
    main,
)
from ginlab.kernel import cell_average, lemma1_rhs, lemma1_rhs_average, pair_density, pair_density_n_average
from ginlab.pfaffian import Matching
from ginlab.sampler import DUALITY_HALFWIDTH


#: twelve points: within find_max_matching's cap, beyond the phase sum's
TWELVE_POINTS = "-3,-1.5,-0.4,0.3,0.31,2.2,2.9,4.0,5.5,7.25,8.0,9.5"


def run_cli(args):
    return main(list(args))


def read_manifest(path):
    with open(path) as fh:
        return json.load(fh)


def test_pfaffian_selftest_passes(tmp_path, capsys):
    out = tmp_path / "pf.csv"
    assert run_cli(["pfaffian-selftest", "--seed", "7", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "PASS pfaffian_square_equals_det" in text
    manifest = read_manifest(str(out) + ".manifest.json")
    assert manifest["artifact_version"]
    assert manifest["config"]["seed"] == 7
    assert all(c["passed"] for c in manifest["checks"])
    names = [c["name"] for c in manifest["checks"]]
    assert len(names) == len(set(names))
    assert "wall_time_s" in manifest
    assert manifest["conventions"]["entry_variance"] == 0.5


def test_results_are_byte_identical_across_runs(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"kernel-{tag}.csv"
        assert run_cli(["kernel-table", "--seed", "3", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_json_mirrors_csv(tmp_path):
    out_csv = tmp_path / "kt.csv"
    out_json = tmp_path / "kt.json"
    assert run_cli(["kernel-table", "--out", str(out_csv), "--format", "csv"]) == 0
    assert run_cli(["kernel-table", "--out", str(out_json), "--format", "json"]) == 0
    with open(out_csv) as fh:
        lines = [l for l in fh if not l.startswith("#")]
    rows_csv = list(csv.DictReader(lines))
    data = json.loads(out_json.read_text())
    assert data["columns"] == list(rows_csv[0].keys())
    assert len(data["rows"]) == len(rows_csv)
    for a, b in zip(data["rows"], rows_csv):
        assert a == b


def test_mc_spins_campaign(tmp_path, capsys):
    out = tmp_path / "spins.csv"
    code = run_cli(
        [
            "mc-spins",
            "--n",
            "40",
            "--samples",
            "300",
            "--points",
            "0,0.5",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert "PASS spin_moment_within_3_stderr" in capsys.readouterr().out


def test_stationary_phase_campaign(tmp_path):
    out = tmp_path / "sp.csv"
    assert run_cli(["stationary-phase", "--points", "0.3,0.9,1.6,2.4", "--out", str(out)]) == 0
    with open(out) as fh:
        lines = [l for l in fh if not l.startswith("#")]
    rows = list(csv.DictReader(lines))
    assert len(rows) == 3  # matchings of four points
    sigs = sorted(int(r["signature"]) for r in rows)
    assert sigs == [-4, 0, 4]


def test_stationary_phase_checks_points_once_per_public_call(tmp_path, monkeypatch):
    calls = []
    check = stationary_phase._ordered_points

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(stationary_phase, "_ordered_points", counted)
    points = "0.3,0.9,1.6,2.4,3.1,3.7,4.2,4.8,5.5,6.1"
    assert run_cli(["stationary-phase", "--points", points, "--out", str(tmp_path / "sp.csv")]) == 0
    # critical_data, matchings_phase_sum and phase_pfaffian_ratio at the one t,
    # find_max_matching: one check per public call, none per matching
    assert len(calls) == 4


#: sha256 of the stationary-phase result files (default points, and the ten
#: points of the benchmark), recorded from the per-matching scalar loop
STATIONARY_PHASE_SHA256 = {
    None: "12c9aa66f8094eb0f89be0ca370b769804062076e8083530c3262d0b85bf924a",
    "0.3,0.9,1.6,2.4,3.1,3.7,4.2,4.8,5.5,6.1": "b22e3c17462dc2147695770eb548ef440e04a1b3fef3104aa33535ceee854072",
}


@pytest.mark.parametrize("points", list(STATIONARY_PHASE_SHA256))
def test_stationary_phase_result_bytes_are_pinned(tmp_path, points):
    out = tmp_path / "sp.csv"
    argv = ["stationary-phase", "--out", str(out)] + (["--points", points] if points else [])
    assert run_cli(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == STATIONARY_PHASE_SHA256[points]


def test_stationary_phase_refuses_twelve_points_before_any_table(tmp_path, monkeypatch):
    built = []

    def no_table(*args):
        built.append(args)
        raise AssertionError("a matching table was built")

    monkeypatch.setattr(stationary_phase, "_matching_table", no_table)
    argv = ["stationary-phase", f"--points={TWELVE_POINTS}", "--out", str(tmp_path / "sp.csv")]
    assert run_cli(argv) == 2
    assert built == []


def test_stationary_phase_degenerate_hessian_exits_1(tmp_path, capsys):
    argv = ["stationary-phase", "--points", "0,1e-170,2e-170,3e-170", "--out", str(tmp_path / "sp.csv")]
    assert run_cli(argv) == 1
    assert "zero Hessian eigenvalue for (1,2)(3,4)" in capsys.readouterr().err


def test_signature_off_its_inversion_count_fails_its_check(tmp_path, capsys, monkeypatch):
    # inversion counts off by two: the signatures, counted from the Hessian,
    # no longer match 4 * inversions - 2K(K-1), while every other check, which
    # reads only the inversions' parity, still passes
    matching_table = stationary_phase._matching_table

    def off_by_two(two_k):
        words, inv = matching_table(two_k)
        return words, inv + 2

    monkeypatch.setattr(stationary_phase, "_matching_table", off_by_two)
    out = tmp_path / "sp.csv"
    assert run_cli(["stationary-phase", "--out", str(out)]) == 1
    assert "FAIL signature_identity" in capsys.readouterr().out
    checks = read_manifest(str(out) + ".manifest.json")["checks"]
    assert [(c["name"], c["passed"]) for c in checks] == [
        ("signature_identity", False),
        ("phase_sum_equals_pfaffian", True),
        ("max_matching_consecutive", True),
    ]


def test_matrix_integral_k2(tmp_path, capsys):
    out = tmp_path / "mi.csv"
    assert run_cli(["matrix-integral", "--k", "2", "--out", str(out)]) == 0
    assert "PASS fitted_constant_spread" in capsys.readouterr().out


def test_heat_check_campaign(tmp_path, capsys):
    out = tmp_path / "heat.csv"
    assert run_cli(["heat-check", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "PASS residual_order_density" in text
    assert "PASS odd_pairing_matches_target" in text


#: sha256 of the default heat-check result files, recorded from the
#: whole-grid pairing with one call per test function
HEAT_CHECK_SHA256 = {
    "csv": "d6e106aaac7883d025c41100050a365dc7c7452ec4b66193688431cba626d7e4",
    "json": "88eefa512a0da8ddaf600094fae44a2e127a3006d41a9c377685b7a4de9a6cae",
}


@pytest.mark.parametrize("fmt", list(HEAT_CHECK_SHA256))
def test_heat_check_result_bytes_are_pinned(tmp_path, fmt):
    out = tmp_path / f"heat.{fmt}"
    assert run_cli(["heat-check", "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == HEAT_CHECK_SHA256[fmt]


#: sha256 of the default kernel-table result files, recorded with
#: scipy.special imported at module level
KERNEL_TABLE_SHA256 = {
    "csv": "9fdbfd03d938715c83c5b6dca7cde1f8b4a524e1517755b54d097ed7fde29b03",
    "json": "e263c5a96897d1980db34cef2c65ed706795830cf50447c9ba071cb265b6f056",
}


@pytest.mark.parametrize("fmt", list(KERNEL_TABLE_SHA256))
def test_kernel_table_result_bytes_are_pinned(tmp_path, fmt):
    out = tmp_path / f"kernel.{fmt}"
    assert run_cli(["kernel-table", "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == KERNEL_TABLE_SHA256[fmt]


def test_heat_check_pairs_both_functions_in_one_call(tmp_path, monkeypatch):
    calls = []
    check = heat.initial_condition_check

    def counted(test_fns, *args, **kwargs):
        calls.append(len(test_fns))
        return check(test_fns, *args, **kwargs)

    monkeypatch.setattr(heat, "initial_condition_check", counted)
    assert run_cli(["heat-check", "--out", str(tmp_path / "heat.csv")]) == 0
    assert calls == [2]


def test_heat_check_repeated_larger_time_passes(tmp_path):
    # only the two smallest times must differ
    assert run_cli(["heat-check", "--t-grid", "0.05,0.1,0.1", "--out", str(tmp_path / "heat.csv")]) == 0


def test_mc_density_campaign(tmp_path, capsys):
    out = tmp_path / "dens.csv"
    code = run_cli(
        [
            "mc-density",
            "--n",
            "60",
            "--samples",
            "1500",
            "--bins=-0.6:0.6:3",
            "--seed",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS signed_density_within_3_stderr" in text
    assert "PASS finite_n_density_within_3_stderr" in text


@pytest.mark.parametrize("n", [3, 4])
def test_mc_density_asserts_the_finite_n_pair_density(tmp_path, n):
    # at small n and wide bins the bulk form is off by tens of standard
    # errors in some cell; rho_2^n at the run's n fits every cell
    out = tmp_path / "dens.csv"
    argv = ["mc-density", "--n", str(n), "--samples", "20000", "--bins=-1.5,-0.75,0,0.75,1.5"]
    assert run_cli([*argv, "--seed", "20240901", "--out", str(out)]) == 1
    checks = {c["name"]: c for c in read_manifest(str(out) + ".manifest.json")["checks"]}
    assert checks["finite_n_density_within_3_stderr"]["passed"]
    assert not checks["signed_density_within_3_stderr"]["passed"]
    assert checks["signed_density_within_3_stderr"]["measured"] > 30.0


def _rho2_n(n, x1, x2):
    """pi**-0.5 (x1 - x2) exp(-x1**2 - x2**2) e_{n-2}(2 x1 x2), term by term."""
    e = sum((2.0 * x1 * x2) ** j / math.factorial(j) for j in range(n - 1))
    return (x1 - x2) * math.exp(-x1 * x1 - x2 * x2) * e / math.sqrt(math.pi)


@pytest.mark.parametrize("n", [2, 3, 4, 10, 40])
def test_finite_n_pair_density_is_the_bin_average_of_rho_2_n(n):
    # scipy's adaptive quadrature of the formula, independent of the
    # Gauss-Legendre nodes and of the exact integer sum
    for cell in [(-1.5, -0.75, 0.0, 0.75), (-0.3, 0.2, 0.9, 1.6), (0.75, 1.5, -0.75, 0.0), (-2.0, -1.2, 1.2, 2.0)]:
        integral, _ = dblquad(lambda b, a: _rho2_n(n, a, b), *cell, epsabs=0, epsrel=1e-12)
        want = integral / ((cell[1] - cell[0]) * (cell[3] - cell[2]))
        # the 5-node rule's own error on cells this wide is below 1e-7, far
        # under any Monte Carlo standard error it is compared with
        assert pair_density_n_average(n, *cell) == pytest.approx(want, rel=1e-6, abs=0)


def test_finite_n_pair_density_tends_to_the_bulk_form():
    # at fixed points, as n grows
    cell = (-0.75, -0.375, 0.0, 0.375)
    assert pair_density_n_average(400, *cell) == pytest.approx(cell_average(pair_density, *cell), rel=1e-14)


def _signed_density_loop(lo1, hi1, lo2, hi2):
    """The cell average as 25 kernel.signed_density calls added one by one,
    times 0.5 = 2**(-k/2) at k = 2: how mc-density computed it before."""
    u, w = np.polynomial.legendre.leggauss(5)
    x1 = 0.5 * (hi1 - lo1) * u + 0.5 * (hi1 + lo1)
    x2 = 0.5 * (hi2 - lo2) * u + 0.5 * (hi2 + lo2)
    total = 0.0
    for a, wa in zip(x1, w):
        for b, wb in zip(x2, w):
            total += wa * wb * kernel.signed_density((a, b))
    return 0.5 * (total * 0.25)


#: cell families, each as (lo1, width1, lo2 - hi1, width2) ranges to draw from
CELL_FAMILIES = {
    "same-bin": None,
    "adjacent": ((-3.0, 3.0), (0.01, 1.0), (0.0, 0.0), (0.01, 1.0)),
    "apart": ((-3.0, 3.0), (0.01, 1.0), (0.0, 2.0), (0.01, 1.0)),
    "reversed": ((-3.0, 3.0), (0.01, 1.0), (-4.0, -1.0), (0.01, 1.0)),
    "tail": ((-3.0, 3.0), (0.01, 0.5), (4.0, 8.0), (0.01, 0.5)),
}


@pytest.mark.parametrize("family", list(CELL_FAMILIES))
def test_bin_average_of_the_pair_density_is_the_old_loop_bit_for_bit(family):
    rng = np.random.default_rng(list(CELL_FAMILIES).index(family))
    for _ in range(400):
        if CELL_FAMILIES[family] is None:
            lo1 = rng.uniform(-3.0, 3.0)
            hi1 = lo1 + rng.uniform(0.01, 1.0)
            cell = (lo1, hi1, lo1, hi1)
        else:
            lo1, w1, gap, w2 = (rng.uniform(*r) for r in CELL_FAMILIES[family])
            cell = (lo1, lo1 + w1, lo1 + w1 + gap, lo1 + w1 + gap + w2)
        got = cell_average(pair_density, *cell)
        assert got.hex() == _signed_density_loop(*cell).hex(), cell


#: lemma1's default configurations, with the RHS averaged over each row's cell
#: by scipy's adaptive quadrature, independent of the Gauss-Legendre nodes
LEMMA1_POINTS = [(-0.4, 0.4), (-0.2, 0.6), (0.1, 0.8)]


@pytest.mark.parametrize(
    "shifts, pooled",
    [((0.0, 0.0, 0.0), 0.0), ((1.0, 1.0, 1.0), 3.0**0.5), ((-2.0, 0.0, 2.0), 0.0),
     ((3.0, 0.0, 0.0), 3.0**0.5)],
    ids=["exact", "one-stderr-high", "cancelling", "one-row-off"],
)
def test_duality_constant_z_pools_row_offsets_from_minus_4_over_pi(shifts, pooled):
    # a row whose LHS is -4/pi times its cell's RHS plus s standard errors has
    # z_i = s (the RHS is positive), and R rows pool to sum(s) / sqrt(R)
    h, n = DUALITY_HALFWIDTH, 10
    reports = []
    for (x1, x2), s in zip(LEMMA1_POINTS, shifts):
        integral, _ = dblquad(
            lambda b, a: lemma1_rhs(n, a, b), x1 - h, x1 + h, x2 - h, x2 + h, epsabs=0, epsrel=1e-13
        )
        rhs_bar = integral / (2 * h) ** 2
        assert rhs_bar > 0
        se = 1e-3 * rhs_bar
        reports.append(SimpleNamespace(points=(x1, x2), n=n, lhs=-4 / np.pi * rhs_bar + s * se, lhs_stderr=se))
    assert _duality_constant_z(reports) == pytest.approx(pooled, rel=0, abs=1e-8)


def test_lemma1_campaign(tmp_path, capsys):
    out = tmp_path / "duality.csv"
    code = run_cli(
        ["lemma1", "--n", "10", "--samples", "12000", "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS duality_ratio_constant" in text
    assert "PASS duality_ratio_is_minus_4_over_pi" in text


#: sha256 of the default mc-density and lemma1 result files, recorded with the
#: bin average of 25 kernel.signed_density calls times the constant 0.5, and
#: with the absolute duality constant reported, not asserted
MC_DENSITY_SHA256 = "3225492a67b52595366af6e4de18900dfaec658497862336857211eba967c9d1"
LEMMA1_SHA256 = "d7872cb39a4454f1d8a980da3e8f3c0c65fdd747e2cd4e4f804c7a5e24ecb47c"
#: sha256 of the default matrix-integral --k 4 result file, recorded when each
#: Haar block went through QR and the trace in one pass
MATRIX_INTEGRAL_K4_SHA256 = "148d0bc739049327ef5dea02debfc1c012cac0df4ec17a744769ee6efb7e3324"
#: float.hex of each manifest check's measured value in the same runs: the
#: finite-n z and the pooled z are computed beside the table, so the result
#: bytes do not pin them
MC_DENSITY_MEASURED = {
    "signed_density_within_3_stderr": "0x1.601f5cb5ef45cp-1",
    "finite_n_density_within_3_stderr": "0x1.601f5cb5e434ep-1",
}
LEMMA1_MEASURED = {
    "duality_ratio_constant": "0x1.ae0998da5e85dp+0",
    "duality_ratio_is_minus_4_over_pi": "-0x1.4148b14883ac1p-1",
}
MATRIX_INTEGRAL_K4_MEASURED = {"fitted_constant_spread": "0x1.37686ffbb4200p-9"}


@pytest.mark.parametrize(
    "argv, digest, measured",
    [
        (["mc-density"], MC_DENSITY_SHA256, MC_DENSITY_MEASURED),
        (["lemma1"], LEMMA1_SHA256, LEMMA1_MEASURED),
        (["matrix-integral", "--k", "4"], MATRIX_INTEGRAL_K4_SHA256, MATRIX_INTEGRAL_K4_MEASURED),
    ],
    ids=["mc-density", "lemma1", "matrix-integral-k4"],
)
def test_monte_carlo_result_bytes_are_pinned(tmp_path, argv, digest, measured):
    out = tmp_path / f"{argv[0]}.csv"
    assert run_cli([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    checks = read_manifest(str(out) + ".manifest.json")["checks"]
    assert {c["name"]: float(c["measured"]).hex() for c in checks} == measured


def _flipped(law):
    """``law`` with its sign flipped."""
    return lambda *args: -law(*args)


def _tilted(law):
    """``law`` times exp(x1 + x2), a factor that differs between lemma1's rows."""
    return lambda n, x1, x2: law(n, x1, x2) * math.exp(x1 + x2)


def _scaled(factor):
    """A break that multiplies a law by ``factor``."""
    return lambda law: lambda *args: law(*args) * factor


def _nudged(toward):
    """A break that moves a law one ulp toward ``toward``."""
    return lambda law: lambda *args: np.nextafter(law(*args), toward)


def _with_even_kernel(check):
    """``check`` run while heat._kernel_d1 writes itself plus 1e-3 times its
    magnitude: a part even in the separation.  Outside the check the kernel
    is untouched, so signed_density_t keeps its skewness."""
    kernel_d1 = heat._kernel_d1

    def even(lin, quad, t, out, work):
        kernel_d1(lin, quad, t, out, work)
        out += 1e-3 * np.abs(out)
        return out

    def run(*args):
        with mock.patch.object(heat, "_kernel_d1", even):
            return check(*args)

    return run


@pytest.mark.parametrize(
    "argv, module, names, broken, check",
    [
        # rho_2^n with its sign flipped: every cell's finite-n z grows, while
        # the bulk law the other check reads is untouched
        (["mc-density"], kernel, "pair_density_n_average", _flipped, "finite_n_density_within_3_stderr"),
        # the bin-averaged RHS with its sign flipped: the pooled ratio reads
        # +4/pi, and the per-row ratios stay equal to each other
        (["lemma1"], kernel, "lemma1_rhs", _flipped, "duality_ratio_is_minus_4_over_pi"),
        # the per-row RHS that duality_check reads, scaled by a factor that
        # depends on the points: the rows' ratios no longer agree
        (["lemma1"], sampler, "lemma1_rhs", _tilted, "duality_ratio_constant"),
        # both Pfaffians off by the same factor: they still agree, but the
        # square is off the determinant
        (["pfaffian-selftest"], cli, "pfaffian pfaffian_matchings", _scaled(1 + 1e-6), "pfaffian_square_equals_det"),
        (["pfaffian-selftest"], cli, "pfaffian_matchings", _flipped, "tridiagonal_equals_matchings"),
        # one ulp on the closed forms that are pinned to the last bit; the
        # coincident kernel block multiplies gauss_tail by sgn(0) = 0
        (["kernel-table"], kernel, "gauss_tail", _nudged(np.inf), "gauss_tail_at_zero"),
        (["kernel-table"], kernel, "gauss_tail_d1", _nudged(-np.inf), "one_point_correlation"),
        (["kernel-table"], kernel, "spin_correlation", _nudged(0.0), "coincident_spin_moment"),
        (["stationary-phase"], stationary_phase, "phase_pfaffian_ratio", _scaled(1 + 1e-9), "phase_sum_equals_pfaffian"),
        (["stationary-phase"], stationary_phase, "find_max_matching",
         lambda law: lambda points: Matching(((1, 3), (2, 4))), "max_matching_consecutive"),
        # a term the heat equation does not cancel: the residual loses its order h**2
        (["heat-check"], heat, "signed_density_t", lambda law: lambda x, t: law(x, t) + t, "residual_order_density"),
        (["heat-check"], cli, "integral_quadrature_k2", lambda law: lambda *args: law(*args) + 1e-3,
         "residual_order_integral"),
        (["heat-check"], heat, "delta_prime_target", _scaled(1.1), "odd_pairing_matches_target"),
        (["heat-check"], heat, "initial_condition_check", _with_even_kernel, "even_pairing_vanishes"),
        # a shape that drifts with t: the fitted constants spread by about 2%
        (["matrix-integral"], group_integrals, "exact_shape", lambda law: lambda x, t: law(x, t) * (1.0 + 0.01 * t),
         "fitted_constant_spread"),
    ],
    ids=[
        "finite-n-density",
        "minus-4-over-pi",
        "ratio-constant",
        "pfaffian-square",
        "tridiagonal",
        "gauss-tail-at-zero",
        "one-point-correlation",
        "coincident-spin-moment",
        "phase-sum",
        "max-matching",
        "residual-order-density",
        "residual-order-integral",
        "odd-pairing",
        "even-pairing",
        "fitted-constant-spread",
    ],
)
def test_a_broken_law_fails_only_its_check(tmp_path, capsys, monkeypatch, argv, module, names, broken, check):
    # ``names`` lists the patched functions of ``module``, each broken the same way
    for name in names.split():
        monkeypatch.setattr(module, name, broken(getattr(module, name)))
    out = tmp_path / f"{argv[0]}.csv"
    assert run_cli([*argv, "--out", str(out)]) == 1
    assert f"FAIL {check}" in capsys.readouterr().out
    failed = [c["name"] for c in read_manifest(str(out) + ".manifest.json")["checks"] if not c["passed"]]
    assert failed == [check]


@pytest.mark.parametrize("n", [3, 10, 40])
def test_rhs_average_is_the_vectorized_rhs_bit_for_bit(n):
    # how the campaign averaged the RHS before the law moved to kernel:
    # np.vectorize over the nodes, one pair of Python floats per call
    rhs_at = np.vectorize(partial(lemma1_rhs, n), otypes=[float])
    rng = np.random.default_rng(n)
    for _ in range(40):
        lo1, lo2 = rng.uniform(-2.0, 2.0, 2)
        cell = (lo1, lo1 + rng.uniform(0.01, 1.0), lo2, lo2 + rng.uniform(0.01, 1.0))
        assert lemma1_rhs_average(n, *cell).hex() == cell_average(rhs_at, *cell).hex(), cell


@pytest.mark.parametrize(
    "argv, why",
    [
        # no eigenvalue pair lands in bins this far out: 0 +- 0
        (["--samples", "200", "--points=8,9"], "no draw put signed weight in the bins"),
        # one +1 and one -1 cell weight: 0 with a positive stderr
        (["--samples", "30", "--seed", "6", "--points=-0.4,0.4"], "the signed weights cancel to 0"),
    ],
)
def test_lemma1_refuses_a_zero_signed_density(tmp_path, capsys, argv, why):
    # these exited 1 with "float division by zero" and an overflow errno
    out = tmp_path / "duality.csv"
    assert run_cli(["lemma1", "--n", "10", *argv, "--out", str(out)]) == 1
    assert f"numerical failure: signed-density estimate too noisy: {why}" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "duality.csv"
    code = run_cli(
        ["lemma1", "--n", "10", "--samples", "150", "--seed", "2", "--out", str(out)]
    )
    assert code == 1
    assert "numerical failure" in capsys.readouterr().err
    # the exact shape underflows to 0 at t = 0.5: a numerical failure that
    # names the node, not a traceback or a bare division by zero
    argv = ["matrix-integral", "--k", "2", "--points=-30,40", "--t-grid", "2000,0.5"]
    assert run_cli([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "numerical failure: exact_shape underflowed to 0" in err
    assert "points (-30.0, 40.0), t = 0.5" in err
    # in the form exp(-(x1^2 + x2^2)/t) * exp(2 x1 x2/t) this node is
    # exp(-2500) * exp(2400), 0 * inf; the closed form gives exp(-100)
    argv = ["matrix-integral", "--k", "2", "--points=3,4", "--t-grid", "0.01,0.5"]
    assert run_cli([*argv, "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(l for l in fh if not l.startswith("#")))
    assert [float(r["value"]) for r in rows[:2]] == [np.exp(-100.0), np.exp(-2.0)]


def test_failed_check_exits_1_and_still_writes(tmp_path, capsys, monkeypatch):
    # a closed form the estimate cannot match: the run completes, and the
    # failed check alone makes the exit code 1
    monkeypatch.setattr(kernel, "spin_correlation", lambda points: -1.0)
    out = tmp_path / "spins.csv"
    argv = ["mc-spins", "--n", "10", "--samples", "200", "--seed", "1", "--out", str(out)]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert "FAIL spin_moment_within_3_stderr" in captured.out
    assert "1 check(s) failed" in captured.err
    assert out.exists()
    checks = read_manifest(str(out) + ".manifest.json")["checks"]
    assert [(c["name"], c["passed"]) for c in checks] == [("spin_moment_within_3_stderr", False)]


@pytest.mark.parametrize(
    "argv, check",
    [
        # both points lie above every eigenvalue: the spin product is 1 on each draw, vs 0.157
        (["mc-spins", "--n", "10", "--samples", "200", "--points=8,9"], "spin_moment_within_3_stderr"),
        # no eigenvalue in either bin: the estimate is 0 on each draw, vs -0.173
        (["mc-density", "--n", "4", "--samples", "200", "--bins=5,6,7"], "signed_density_within_3_stderr"),
    ],
)
def test_zero_stderr_passes_only_an_exact_match(tmp_path, capsys, argv, check):
    assert run_cli([*argv, "--out", str(tmp_path / "x.csv")]) == 1
    assert f"FAIL {check}: measured inf" in capsys.readouterr().out


def test_usage_error_exit_codes(tmp_path, capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        run_cli(["no-such-campaign"])
    assert exc.value.code == 2
    code = run_cli(["mc-spins", "--points", "zebra", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "usage error" in capsys.readouterr().err
    # parameter checks inside the library, all raised before anything is drawn
    for argv in (
        ["mc-spins", "--n", "0"],
        ["mc-spins", "--samples", "50"],
        ["mc-spins", "--points", "0.1"],
        ["lemma1", "--n", "2"],
        ["mc-density", "--bins=0:1:1"],
        ["kernel-table", "--points", "nan"],
        ["stationary-phase", "--points", "0.3,0.9,1.6"],
        ["stationary-phase", f"--points={TWELVE_POINTS}"],
        ["heat-check", "--t-grid", "0.1"],
        ["heat-check", "--t-grid", "0.1,0.1"],
        ["heat-check", "--points", "0.1,0.1"],
        ["heat-check", "--points=0.1,0.5,0.9,1.3"],
        # non-finite points and times
        ["lemma1", "--points", "nan,0.5"],
        ["mc-density", "--bins=nan,0,0.5,1"],
        # runs that could never pass: a half-line cell's closed form is NaN,
        # and at n = 1 every cell reads 0 +- 0 against a nonzero bulk form
        ["mc-density", "--bins=-inf,0,1,inf"],
        ["mc-density", "--n", "1"],
        ["stationary-phase", "--points", "0.3,nan"],
        ["stationary-phase", "--t-grid", "1.0,nan"],
        ["matrix-integral", "--k", "2", "--t-grid", "0.5,nan"],
        ["heat-check", "--points", "nan,0.5"],
        ["heat-check", "--t-grid", "0.1,nan,0.025"],
        # explicit values are used, never replaced by a default
        ["matrix-integral", "--k", "0"],
        ["stationary-phase", "--points="],
        ["heat-check", "--t-grid="],
        ["kernel-table", "--points="],
        ["matrix-integral", "--points="],
        # the number of points must be k
        ["matrix-integral", "--k", "2", "--points=0.1,0.5,0.9"],
        ["matrix-integral", "--k", "4", "--points=0.1,0.5", "--samples", "100"],
        # sample counts and bin specs the command line refuses
        ["mc-spins", "--samples", "0"],
        ["matrix-integral", "--k", "2", "--samples", "0"],  # refused though k = 2 draws none
        ["mc-density", "--bins=0:1"],
        ["mc-density", "--bins", "0.5"],
        # these exited 1 with float()'s and int()'s conversion messages
        ["mc-density", "--bins=a:1:3"],
        ["mc-density", "--bins=0:1:2.5"],
        ["mc-density", "--bins=0:1:x"],
    ):
        assert run_cli([*argv, "--out", str(tmp_path / "x.csv")]) == 2, argv
        assert "usage error" in capsys.readouterr().err
    # bad environment values for settings the campaign reads
    for name, value, campaign, message in (
        ("GINLAB_N", "abc", "mc-spins", "bad GINLAB_N='abc'"),
        ("GINLAB_FORMAT", "xml", "kernel-table", "format must be csv or json, got 'xml'"),
        ("GINLAB_BINS", "0:1:x", "mc-density", "could not parse bin spec '0:1:x'"),
        ("GINLAB_BINS", "-inf,0,1,inf", "mc-density", "bin edges must be finite"),
    ):
        with monkeypatch.context() as env:
            env.setenv(name, value)
            assert run_cli([campaign, "--out", str(tmp_path / "x.csv")]) == 2, name
        assert f"usage error: {message}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


#: The flags each campaign's runner reads, beyond --seed, --out and --format
READS = {
    "pfaffian-selftest": set(),
    "kernel-table": {"points"},
    "mc-spins": {"n", "samples", "points"},
    "mc-density": {"n", "samples", "bins"},
    "lemma1": {"n", "samples", "points"},
    "matrix-integral": {"k", "samples", "points", "t_grid"},
    "stationary-phase": {"points", "t_grid"},
    "heat-check": {"points", "t_grid"},
}
#: A value each flag accepts
FLAG_VALUES = {"samples": "300", "n": "6", "k": "2", "points": "0,0.5", "t_grid": "1,2", "bins": "0:1:2"}
#: Small sizes for the campaigns that draw
SMALL = {
    "mc-spins": ["--n", "10", "--samples", "200"],
    "lemma1": ["--n", "6", "--samples", "5000"],
}


def _option(flag):
    return "--" + flag.replace("_", "-")


def test_campaigns_take_only_the_flags_they_read(tmp_path, capsys):
    assert {name: set(flags) for name, flags in CAMPAIGNS.items()} == READS
    parser = build_parser()
    for campaign, reads in READS.items():
        argv = [campaign, "--seed", "3", "--out", "x.json", "--format", "json"]
        args = parser.parse_args(argv + [a for f in reads for a in (_option(f), FLAG_VALUES[f])])
        assert (args.seed, args.out, args.format) == (3, "x.json", "json")
        for flag in FLAG_VALUES.keys() - reads:
            with pytest.raises(SystemExit) as exc:
                run_cli([campaign, _option(flag), FLAG_VALUES[flag], "--out", str(tmp_path / "x.csv")])
            assert exc.value.code == 2, (campaign, flag)
            assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("campaign", list(READS))
def test_manifest_records_only_the_flags_a_campaign_reads(tmp_path, monkeypatch, campaign):
    # a flag the campaign does not read is never resolved, so a value no
    # campaign could parse in its environment variable goes unseen
    for flag in FLAG_VALUES.keys() - READS[campaign]:
        monkeypatch.setenv("GINLAB_" + flag.upper(), "not-a-value")
    out = tmp_path / "x.csv"
    assert run_cli([campaign, *SMALL.get(campaign, []), "--out", str(out)]) == 0
    config = read_manifest(str(out) + ".manifest.json")["config"]
    assert config.keys() == {"campaign", "seed", "out", "format", *READS[campaign]}


def test_env_override_precedence(tmp_path, monkeypatch):
    out = tmp_path / "pf.csv"
    monkeypatch.setenv("GINLAB_SEED", "101")
    assert run_cli(["pfaffian-selftest", "--out", str(out)]) == 0
    assert read_manifest(str(out) + ".manifest.json")["config"]["seed"] == 101
    # explicit flag beats the environment
    assert run_cli(["pfaffian-selftest", "--seed", "55", "--out", str(out)]) == 0
    assert read_manifest(str(out) + ".manifest.json")["config"]["seed"] == 55


def test_bins_parsing():
    assert np.allclose(_parse_bins("0:1:4"), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(_parse_bins("-1,0,2"), [-1.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        _parse_bins("0:1:0")


def test_max_check_fails_on_nan():
    # Python's max(0.5, nan) is 0.5; a NaN measurement must fail the check
    check = _max_check("c", [0.5, float("nan"), 0.25], 1.0)
    assert np.isnan(check.measured) and not check.passed
    check = _max_check("c", [0.5, 0.25], 1.0)
    assert check.measured == 0.5 and check.passed
    # no measurements (lemma1 with one configuration has no pair to compare)
    assert _max_check("c", [], 3.0) == _max_check("c", [0.0], 3.0)


def test_default_out_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["kernel-table"]) == 0
    assert os.path.exists("kernel-table.csv")
    assert os.path.exists("kernel-table.csv.manifest.json")

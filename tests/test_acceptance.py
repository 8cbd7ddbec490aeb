"""Acceptance suite: one test per project acceptance criterion.

Each test prints a PASS line with its measured values and enforces the
stated tolerance.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import erfc

from ginlab._rng import stream
from ginlab.group_integrals import (
    fit_shape_constant,
    integral_mc_grid,
    integral_quadrature_k2,
    vandermonde,
)
from ginlab.heat import initial_condition_check, residual_order, signed_density_t
from ginlab.kernel import correlation, gauss_tail, spin_correlation
from ginlab.pfaffian import enumerate_matchings, identity_matching, inversions, pfaffian, pfaffian_matchings
from ginlab.sampler import duality_check, estimate_real_count, estimate_spin_moments, expected_real_count
from ginlab.stationary_phase import (
    find_max_matching,
    matchings_phase_sum,
    phase_pfaffian_ratio,
    signature,
)


class Timer:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False


def report(num, detail, elapsed):
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.1f}s) {detail}")


def test_criterion_1_pfaffian_algebra():
    rng = stream(1001, 0)
    with Timer() as t:
        worst_sq = 0.0
        worst_match = 0.0
        for dim in range(2, 13, 2):
            for _ in range(8):
                a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                a = a - a.T
                pf = pfaffian(a)
                det = np.linalg.det(a)
                worst_sq = max(worst_sq, abs(pf * pf - det) / abs(det))
                worst_match = max(worst_match, abs(pf - pfaffian_matchings(a)) / abs(pf))
    assert worst_sq < 1e-10
    assert worst_match < 1e-10
    assert t.elapsed < 5.0
    report(1, f"Pf^2=det rel {worst_sq:.2e}, matchings rel {worst_match:.2e}", t.elapsed)


def test_criterion_2_kernel_sanity():
    with Timer() as t:
        f0 = gauss_tail(0.0)
        coincident = spin_correlation((0.7, 0.7))
        rho0 = correlation((0.0,))
    assert f0 == 0.5
    assert coincident == 1.0
    assert rho0 == 1.0 / math.sqrt(math.pi)
    assert t.elapsed < 1.0
    report(2, f"tail(0)={f0}, coincident moment={coincident}, rho(0)={rho0:.6f}", t.elapsed)


def test_criterion_3_spin_moment_universality():
    deltas = (0.25, 0.5, 1.0)
    with Timer() as t:
        configs = [(0.0, d) for d in deltas]
        ests = estimate_spin_moments(100, configs, 4000, seed=1003)
    zs = []
    for d, est in zip(deltas, ests):
        z = abs(est.mean - erfc(d)) / est.stderr
        zs.append(z)
        assert z < 3.0, f"delta={d}: {est.mean:.4f} vs {erfc(d):.4f} (z={z:.2f})"
    assert t.elapsed < 600.0
    report(3, "z-scores " + ", ".join(f"{z:.2f}" for z in zs), t.elapsed)


def test_criterion_4_duality_at_desk_scale():
    # the third configuration is the first translated by +0.5, exercising
    # the Gaussian damping factors of the formula side
    configs = [(-0.4, 0.4), (-0.2, 0.6), (0.1, 0.9)]
    with Timer() as t:
        reports = [
            duality_check(10, cfg, 30000, seed=1004 + 13 * i)
            for i, cfg in enumerate(configs)
        ]
    worst = 0.0
    for i in range(len(reports)):
        for j in range(i + 1, len(reports)):
            a, b = reports[i], reports[j]
            z = abs(a.ratio - b.ratio) / math.hypot(a.ratio_stderr, b.ratio_stderr)
            worst = max(worst, z)
    assert worst < 3.0
    assert t.elapsed < 600.0
    ratios = ", ".join(f"{r.ratio:.3f}+-{r.ratio_stderr:.3f}" for r in reports)
    report(4, f"ratios {ratios}; worst pairwise z {worst:.2f}", t.elapsed)


def test_criterion_5_matrix_integral_exactness():
    with Timer() as t:
        configs2 = [(-0.6, 0.6), (-0.4, 0.8), (0.1, 0.9), (-1.0, -0.2), (0.3, 1.5)]
        ts2 = (0.5, 0.8, 1.0, 1.5, 2.5)
        vals2 = [[integral_quadrature_k2(*c, tt) for tt in ts2] for c in configs2]
        _, spread2 = fit_shape_constant(vals2, configs2, ts2)

        base = np.array([-0.9, -0.3, 0.3, 0.9])
        configs4 = [tuple(base * s) for s in (1.0, 0.75, 1.3)]
        ts4 = (0.9, 1.3, 2.0)
        vals4 = integral_mc_grid(configs4, ts4, 10**6, seed=1005)
        _, spread4 = fit_shape_constant(vals4, configs4, ts4)
    assert spread2 < 1e-6
    assert spread4 < 0.02
    assert t.elapsed < 1800.0
    report(5, f"two-point spread {spread2:.2e}; four-point spread {spread4:.2e}", t.elapsed)


def test_criterion_6_critical_point_combinatorics():
    rng = np.random.default_rng(1006)
    with Timer() as t:
        for two_k in (4, 6, 8):
            kk = two_k // 2
            for _ in range(5):
                x = np.sort(rng.normal(size=two_k) * 1.4)
                if np.any(np.diff(x) < 1e-6):
                    continue
                for m in enumerate_matchings(two_k):
                    assert signature(m, x) == 4 * inversions(m) - 2 * kk * (kk - 1)

        worst_sum = 0.0
        for two_k in (4, 6):
            for tt in (0.7, 1.3):
                x = np.sort(np.linspace(-1.5, 1.5, two_k) + rng.uniform(-0.1, 0.1, two_k))
                lhs = matchings_phase_sum(x, tt)
                rhs = phase_pfaffian_ratio(x, tt)
                worst_sum = max(worst_sum, abs(lhs - rhs) / abs(rhs))
        assert worst_sum < 1e-12

        checked = 0
        for two_k in (4, 6, 8):
            for _ in range(334):
                x = np.sort(rng.normal(size=two_k) * 1.5)
                if np.any(np.diff(x) < 1e-9):
                    continue
                assert find_max_matching(x) == identity_matching(two_k)
                checked += 1
        assert checked >= 1000
    assert t.elapsed < 60.0
    report(6, f"phase-sum rel {worst_sum:.2e}; {checked} max-matching configs", t.elapsed)


def test_criterion_7_heat_characterization():
    with Timer() as t:
        orders = [
            residual_order(signed_density_t, (-0.35, 0.55), 1.0, 1e-3),
            residual_order(signed_density_t, (-0.8, -0.1, 0.4, 1.1), 1.0, 1e-3),
        ]

        def integral_form(x, tt):
            return tt ** (-1.5) * vandermonde(x) * integral_quadrature_k2(x[0], x[1], tt)

        orders.append(residual_order(integral_form, (-0.35, 0.55), 1.0, 1e-3))

        def odd_fn(x1, x2):
            return (x2 - x1) * np.exp(-x1 * x1 - x2 * x2)

        def even_fn(x1, x2):
            return (x2 - x1) ** 2 * np.exp(-x1 * x1 - x2 * x2)

        rep_odd, rep_even = initial_condition_check((odd_fn, even_fn), (0.1, 0.05, 0.025))
    assert all(o >= 1.9 for o in orders)
    assert rep_odd.error < 0.02 * abs(rep_odd.target)
    assert abs(rep_even.extrapolated) < 1e-6
    assert t.elapsed < 300.0
    report(
        7,
        "orders "
        + ", ".join(f"{o:.2f}" for o in orders)
        + f"; odd pairing {rep_odd.extrapolated:.5f} vs {rep_odd.target:.5f}"
        + f"; even {rep_even.extrapolated:.2e}",
        t.elapsed,
    )


def test_criterion_8_finite_size_trend_only():
    # the infinite-size limit itself is out of reach at desk scale; the
    # checked trend is the square-root growth of the real-eigenvalue count,
    # and the oscillatory integral at small times is certified through the
    # exact matchings/Pfaffian identity of criterion 6, never by direct
    # Monte Carlo.
    # each count is also z-tested against the exact Edelman-Kostlan-Shub mean
    with Timer() as t:
        small = estimate_real_count(25, 1500, seed=1008)
        large = estimate_real_count(100, 800, seed=1009)
        ratio = large.mean / small.mean
    assert 1.8 < ratio < 2.2
    zs = [(est.mean - expected_real_count(n)) / est.stderr for n, est in ((25, small), (100, large))]
    assert all(abs(z) < 3.0 for z in zs), f"z-scores at n = 25, 100: {zs}"
    assert t.elapsed < 600.0
    report(
        8,
        f"count({100})/count({25}) = {ratio:.3f} (sqrt growth ~ 2); z-scores "
        + ", ".join(f"{z:+.2f}" for z in zs),
        t.elapsed,
    )

import math
import tracemalloc
from fractions import Fraction
from math import comb, factorial

import mpmath
import numpy as np
import pytest

from ginlab import group_integrals
from ginlab._rng import stream
from ginlab.group_integrals import (
    charpoly_moment_quadrature,
    exact_shape,
    fit_shape_constant,
    haar_unitaries,
    integral_mc_grid,
    integral_quadrature_k2,
    integrand_pair,
    symplectic_dual,
    to_skew_unitary,
    vandermonde,
)
from ginlab.errors import UsageError
from ginlab.sampler import _estimate
from ginlab.pfaffian import canonical_symplectic, pfaffian


def test_haar_unitarity():
    u = haar_unitaries(5, 200, stream(1, 0))
    defect = np.max(np.abs(np.einsum("mij,mik->mjk", u.conj(), u) - np.eye(5)))
    assert defect < 1e-12


def test_haar_first_and_second_moments():
    k, m = 3, 100000
    u = haar_unitaries(k, m, stream(2, 0))
    u11 = u[:, 0, 0]
    se2 = (np.abs(u11) ** 2).std(ddof=1) / np.sqrt(m)
    assert abs((np.abs(u11) ** 2).mean() - 1.0 / k) < 3 * se2
    # first moment vanishes only with the phase correction
    se1 = u11.std(ddof=1) / np.sqrt(m)
    assert abs(u11.mean()) < 3 * se1


def test_haar_phase_correction_regression():
    # the uncorrected QR factor is strongly biased; the corrected one is not
    rng = stream(3, 0)
    m, k = 20000, 3
    a = (rng.normal(size=(m, k, k)) + 1j * rng.normal(size=(m, k, k))) / np.sqrt(2.0)
    q_naive, _ = np.linalg.qr(a)
    corrected = haar_unitaries(k, m, stream(3, 0))
    assert abs(q_naive[:, 0, 0].mean()) > 0.3
    assert abs(corrected[:, 0, 0].mean()) < 0.02


def test_haar_left_invariance_of_means():
    k = 4
    x = (-0.9, -0.3, 0.3, 0.9)
    u = haar_unitaries(k, 2000, stream(4, 0))
    v = haar_unitaries(k, 1, stream(5, 0))[0]
    a = np.array([integrand_pair(ui, x)[0] for ui in u])
    b = np.array([integrand_pair(v @ ui, x)[0] for ui in u])
    diff_se = np.hypot(a.std(ddof=1), b.std(ddof=1)) / np.sqrt(len(a))
    assert abs(a.mean() - b.mean()) < 3 * diff_se


def test_integrand_invariant_under_diagonal_right_action():
    u = haar_unitaries(4, 1, stream(6, 0))[0]
    x = (-0.9, -0.3, 0.3, 0.9)
    rng = stream(7, 0)
    d = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=4)))
    a0, _ = integrand_pair(u, x)
    a1, _ = integrand_pair(u @ d, x)
    assert abs(a0 - a1) < 1e-12


def test_to_skew_unitary():
    j = canonical_symplectic(4)
    assert np.array_equal(to_skew_unitary(np.eye(4, dtype=complex)), j)
    u = haar_unitaries(4, 1, stream(8, 0))[0]
    w = to_skew_unitary(u)
    assert np.max(np.abs(w + w.T)) < 1e-12
    assert np.max(np.abs(w @ w.conj().T - np.eye(4))) < 1e-12
    assert abs(abs(pfaffian(w)) - 1.0) < 1e-10
    with pytest.raises(ValueError):
        to_skew_unitary(np.eye(3, dtype=complex))


def test_symplectic_dual_identities():
    u = haar_unitaries(4, 1, stream(9, 0))[0]
    h = u @ np.diag([0.3, 0.9, 1.6, 2.4]).astype(complex) @ u.conj().T
    hr = symplectic_dual(h)
    assert np.max(np.abs(hr - hr.conj().T)) < 1e-12  # dual of Hermitian is Hermitian
    assert abs(np.trace(hr @ hr) - np.trace(h @ h)) < 1e-12
    assert np.max(np.abs(symplectic_dual(hr) - h)) < 1e-12  # involution


def test_integral_mc_trivial_cases():
    est = integral_mc_grid([(0.0, 0.0)], [1.0], 500, seed=10)[0][0]
    assert est.mean == 1.0 and est.stderr == 0.0
    # two-point integrands are constant over the group: 1 - I <= (dx)^2 / t
    est = integral_mc_grid([(-0.5, 0.7)], [1000.0], 2000, seed=11)[0][0]
    assert 0.0 < 1.0 - est.mean < (0.7 + 0.5) ** 2 / 1000.0
    est4 = integral_mc_grid([(-0.6, -0.2, 0.2, 0.6)], [1000.0], 2000, seed=11)[0][0]
    assert abs(est4.mean - 1.0) < 3 * est4.stderr + 5e-3


def test_integral_mc_matches_quadrature_k2():
    x, t = (-0.5, 0.7), 1.0
    est = integral_mc_grid([x], [t], 4000, seed=12)[0][0]
    q = integral_quadrature_k2(*x, t)
    # the two-point integrand is constant over the group, so the MC is exact
    assert est.stderr < 1e-12
    assert abs(est.mean - q) < 1e-10


def test_quadrature_k2_closed_form():
    for (x1, x2, t) in [(-0.5, 0.7, 1.0), (0.1, 0.9, 0.5), (-1.0, 0.3, 2.0)]:
        q = integral_quadrature_k2(x1, x2, t)
        assert abs(q - np.exp(-((x1 - x2) ** 2) / t)) < 1e-12
    # coincident points: the integrand is constant in the phase
    assert abs(integral_quadrature_k2(0.4, 0.4, 0.7) - 1.0) < 1e-12


#: float.hex of integral_quadrature_k2 on the default ``matrix-integral --k 2``
#: grid: configs (-0.5, 0.7) * s for s in (1, 0.8, 1.2, 0.6, 1.5), by row
K2_DEFAULT_GRID_HEX = [
    ("0x1.cbdb2151527fap-5", "0x1.52883937d0a34p-3", "0x1.e53a61786f313p-3", "0x1.8815129c89621p-2", "0x1.1fd12273a0adap-1"),
    ("0x1.44380b8e526d2p-3", "0x1.4396961887b4ap-2", "0x1.976e5bb007c7bp-2", "0x1.14f969f68633dp-1", "0x1.6223248f96067p-1"),
    ("0x1.030227155f65cp-6", "0x1.32ab0ad762552p-4", "0x1.017ff39d4380fp-3", "0x1.00ffb7eccf37ap-2", "0x1.bec3bbfea93f6p-2"),
    ("0x1.6b18ff928d2e9p-2", "0x1.0bd2927938547p-1", "0x1.30e1c6ed2ad33p-1", "0x1.6a642d9bed3d0p-1", "0x1.a01dc16113d27p-1"),
    ("0x1.92144ad2e5a35p-10", "0x1.1d72bc52e5f0fp-6", "0x1.40d4a4144abf0p-5", "0x1.d85f27744063ep-4", "0x1.1830eabd7e2f0p-2"),
]


def test_quadrature_k2_default_grid_is_bit_identical():
    configs = [tuple(np.asarray((-0.5, 0.7)) * s) for s in (1.0, 0.8, 1.2, 0.6, 1.5)]
    ts = (0.5, 0.8, 1.0, 1.5, 2.5)
    got = [[integral_quadrature_k2(*c, t).hex() for t in ts] for c in configs]
    assert got == [list(row) for row in K2_DEFAULT_GRID_HEX]
    # every pinned cell is within 1.5 ulp of exp(-(x1 - x2)^2/t) at 200 bits
    with mpmath.workprec(200):
        for (x1, x2), row in zip(configs, K2_DEFAULT_GRID_HEX):
            for t, cell in zip(ts, row):
                value = float.fromhex(cell)
                exact = mpmath.exp(-((mpmath.mpf(x1) - mpmath.mpf(x2)) ** 2) / mpmath.mpf(t))
                assert abs(mpmath.mpf(value) - exact) <= 1.5 * math.ulp(value), (x1, x2, t)


def quadrature_k2_per_node(x1, x2, t, nodes=512):
    """An independent reference: a trapezoid rule over the skew-unitary circle,
    with one 2x2 trace per node."""
    x = np.array([x1, x2])
    xd = np.diag(x).astype(complex)
    j = canonical_symplectic(2)
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    vals = np.empty(nodes)
    for i, th in enumerate(theta):
        w = np.exp(1j * th) * j
        vals[i] = np.trace(w.conj().T @ xd @ w @ xd).real
    return float(np.exp(-np.sum(x * x) / t) * np.mean(np.exp(vals / t)))


def test_quadrature_k2_matches_per_node_integral():
    # the reference rounds exp(-(x1^2 + x2^2)/t) and exp(2 x1 x2/t)
    # separately, so its relative error grows with their exponents
    eps = np.finfo(float).eps
    rng = np.random.default_rng(2929)
    for _ in range(100):
        x1, x2 = rng.uniform(-3.0, 3.0, size=2)
        t = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        want = quadrature_k2_per_node(x1, x2, t)
        bound = 4.0 * eps * (1.0 + (x1 * x1 + x2 * x2 + 2.0 * abs(x1 * x2)) / t)
        assert abs(integral_quadrature_k2(x1, x2, t) - want) <= bound * want, (x1, x2, t)


def test_skew_unitary_trace_is_constant_on_the_circle():
    # every 2x2 skew-symmetric unitary is e^{i theta} J, and
    # Tr(W^dagger X W X) = 2 x1 x2 on all of them: the two-point integrand
    # does not depend on the group variable
    eps = np.finfo(float).eps
    j = canonical_symplectic(2)
    rng = np.random.default_rng(31)
    for _ in range(1000):
        x1, x2 = rng.uniform(-3.0, 3.0, size=2)
        w = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * j
        xd = np.diag([x1, x2]).astype(complex)
        tr = np.trace(w.conj().T @ xd @ w @ xd)
        assert abs(tr - 2.0 * x1 * x2) <= 4.0 * eps * abs(2.0 * x1 * x2), (x1, x2)


def test_exact_shape_properties():
    x = (-0.8, -0.1, 0.5, 1.2)
    assert exact_shape(x, 1.0) > 0
    # scale covariance: only x / sqrt(t) enters
    lam = 1.7
    assert exact_shape(tuple(lam * np.array(x)), lam * lam * 1.3) == pytest.approx(
        exact_shape(x, 1.3), rel=1e-12
    )
    # permutation invariance: Pfaffian and Vandermonde signs cancel
    perm = (x[2], x[0], x[3], x[1])
    assert exact_shape(perm, 0.9) == pytest.approx(exact_shape(x, 0.9), rel=1e-12)
    with pytest.raises(ValueError):
        exact_shape((0.3, 0.3), 1.0)


def test_integrand_pair_forms():
    u = haar_unitaries(4, 1, stream(13, 0))[0]
    a, b = integrand_pair(u, (0.0, 0.0, 0.0, 0.0))
    assert a == 1.0 and b == 1.0
    # the two forms agree as integrals (k = 2: both are exactly constant)
    u2 = haar_unitaries(2, 1, stream(13, 1))[0]
    a2, b2 = integrand_pair(u2, (-0.5, 0.7), t=1.0)
    assert abs(a2 - b2) < 1e-12


def test_integrand_forms_agree_in_mean_k4():
    x = (-0.9, -0.3, 0.3, 0.9)
    u = haar_unitaries(4, 10000, stream(14, 0))
    pairs = np.array([integrand_pair(ui, x) for ui in u])
    a, b = pairs[:, 0], pairs[:, 1]
    se = np.hypot(a.std(ddof=1), b.std(ddof=1)) / np.sqrt(len(a))
    assert abs(a.mean() - b.mean()) < 3 * se


def test_shape_constant_k2_grid():
    configs = [(-0.6, 0.6), (-0.4, 0.8), (0.1, 0.9), (-1.0, -0.2), (0.3, 1.5)]
    ts = (0.5, 0.8, 1.0, 1.5, 2.5)
    values = [[integral_quadrature_k2(*c, t) for t in ts] for c in configs]
    rows, spread = fit_shape_constant(values, configs, ts)
    assert spread < 1e-6
    assert rows[0].fitted_constant == pytest.approx(1.0, abs=1e-9)


def test_shape_constant_spread_propagates_nan():
    configs = [(-0.6, 0.6), (-0.4, 0.8)]
    ts = (0.5, 1.0)
    values = [[integral_quadrature_k2(*c, t) for t in ts] for c in configs]
    values[1][0] = float("nan")  # not the reference node, which is [0][0]
    rows, spread = fit_shape_constant(values, configs, ts)
    assert np.isnan(rows[2].fitted_constant)
    assert np.isnan(spread)


def test_shape_constant_k4_mc_small_budget():
    configs = [(-0.9, -0.3, 0.3, 0.9), (-0.675, -0.225, 0.225, 0.675)]
    ts = (0.9, 1.4)
    values = integral_mc_grid(configs, ts, 60000, seed=15)
    rows, spread = fit_shape_constant(values, configs, ts)
    assert spread < 0.05
    assert rows[0].fitted_constant == pytest.approx(0.5, abs=0.02)


def test_integral_mc_grid_reproducible(monkeypatch):
    a = integral_mc_grid([(-0.5, 0.7)], [1.0], 3000, seed=16)
    b = integral_mc_grid([(-0.5, 0.7)], [1.0], 3000, seed=16)
    assert a[0][0] == b[0][0]
    # another block size re-keys the streams (one per block), so the draws
    # differ and the estimates agree only statistically
    monkeypatch.setattr(group_integrals, "HAAR_BLOCK", 1000)
    c = integral_mc_grid([(-0.5, 0.7)], [1.0], 3000, seed=16)
    assert np.isclose(c[0][0].mean, a[0][0].mean, rtol=0, atol=5e-3)


def _einsum_grid(configs, ts, samples, seed, block):
    """integral_mc_grid's estimates from the einsum and symplectic_dual trace it replaced."""
    k = len(configs[0])
    tr = np.empty((len(configs), samples))
    done = b = 0
    while done < samples:
        take = min(block, samples - done)
        u = haar_unitaries(k, take, stream(seed, b))
        for ci, x in enumerate(configs):
            xd = np.diag(x).astype(complex)
            h = np.einsum("mij,jk,mlk->mil", u, xd, u.conj())
            d = h - symplectic_dual(h)
            tr[ci, done:done + take] = np.sum(np.abs(d) ** 2, axis=(1, 2))
        done += take
        b += 1
    return [[_estimate(np.exp(-row / (2.0 * t)), seed) for t in ts] for row in tr]


@pytest.mark.parametrize("seed", [0, 2**63])
@pytest.mark.parametrize("k", [2, 4, 6])
def test_integral_mc_grid_matches_einsum_trace_bitwise(monkeypatch, k, seed):
    rng = np.random.default_rng(k)
    configs = [
        np.sort(rng.uniform(-40.0, 40.0, k)),
        np.linspace(-40.0, 40.0, k),
        np.sort(rng.uniform(-1.0, 1.0, k)),
    ]
    ts = (0.7, 60.0, 3000.0)
    # 777 does not divide 2000: the last block is short
    monkeypatch.setattr(group_integrals, "HAAR_BLOCK", 777)
    got = integral_mc_grid(configs, ts, 2000, seed)
    want = _einsum_grid(configs, ts, 2000, seed, 777)
    hexes = [[(e.mean.hex(), e.stderr.hex()) for e in row] for row in got]
    assert hexes == [[(e.mean.hex(), e.stderr.hex()) for e in row] for row in want]


def test_haar_unitaries_keep_the_bits_of_two_normal_calls():
    for k, m in ((2, 5), (4, 777), (6, 33)):
        # the form drawn before the Gaussians went into one buffer
        rng = stream(21, k)
        a = (rng.normal(size=(m, k, k)) + 1j * rng.normal(size=(m, k, k))) / np.sqrt(2.0)
        q, r = np.linalg.qr(a)
        d = np.einsum("mii->mi", r)
        want = q * (d / np.abs(d))[:, None, :]
        assert haar_unitaries(k, m, stream(21, k)).tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [2, 4, 6])
def test_integral_mc_grid_bits_do_not_depend_on_the_chunk_width(monkeypatch, k):
    rng = np.random.default_rng(10 + k)
    configs = [np.sort(rng.uniform(-2.0, 2.0, k)), np.linspace(-1.0, 1.0, k)]
    ts = (0.7, 3.0)
    # 2000 = 777 + 777 + 446: the last block is short, and so is the last
    # chunk of a block at widths 7 and 512
    monkeypatch.setattr(group_integrals, "HAAR_BLOCK", 777)
    hexes = []
    for chunk in (1, 7, group_integrals._HAAR_CHUNK, 777, 5000):
        monkeypatch.setattr(group_integrals, "_HAAR_CHUNK", chunk)
        got = integral_mc_grid(configs, ts, 2000, 5)
        hexes.append([[(e.mean.hex(), e.stderr.hex()) for e in row] for row in got])
    assert all(h == hexes[0] for h in hexes[1:])


def _grid_peak():
    """tracemalloc peak of a 3 x 3 grid of 100000 k = 4 draws, in bytes."""
    configs = [tuple(np.asarray((-0.9, -0.3, 0.3, 0.9)) * s) for s in (1.0, 0.75, 1.25)]
    ts = (0.9, 1.3, 2.0)
    integral_mc_grid(configs, ts, 64, 0)  # one-time allocations are not the grid's
    tracemalloc.start()
    try:
        integral_mc_grid(configs, ts, 100_000, 7)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_integral_mc_grid_holds_one_chunk_of_temporaries():
    # the draw loop holds 2.4 MB of traces, one block's 0.5 MB of real
    # Gaussian parts and one chunk's imaginary parts and QR; a whole
    # 4096-draw block through QR at once peaked at 10.9 MB
    assert _grid_peak() < 7e6


def test_integral_mc_grid_frees_its_draw_buffers_before_the_estimates():
    # 4.05 MB: the traces with either the draw loop's buffers or the
    # estimates' two 0.8 MB arrays, never both.  Holding both parts of a
    # block (1 MB) and the loop's buffers through the estimates read 5.55 MB.
    assert _grid_peak() < 4.5e6


def test_charpoly_quadrature_small_n_closed_forms():
    for (x1, x2) in [(0.4, -0.7), (0.0, 0.0), (1.2, 0.3)]:
        p = x1 * x2
        assert charpoly_moment_quadrature(1, x1, x2) == pytest.approx(p + 0.5, abs=1e-10)
        assert charpoly_moment_quadrature(2, x1, x2) == pytest.approx(
            (p + 0.5) ** 2 + 0.25, abs=1e-10
        )


@pytest.mark.parametrize("n", [4, 8, 16, 40])
def test_charpoly_quadrature_vs_laguerre_oracle(n):
    # the radial profile is exactly int_0^inf e^-s (s/2 + x1 x2)^n ds
    x1, x2 = -0.4, 0.9
    s, w = np.polynomial.laguerre.laggauss(80)
    oracle = float(np.sum(w * (s / 2.0 + x1 * x2) ** n))
    val = charpoly_moment_quadrature(n, x1, x2)
    assert val == pytest.approx(oracle, rel=1e-10)


def test_charpoly_quadrature_even_moment_positive():
    assert charpoly_moment_quadrature(6, 0.0, 0.0) > 0


def test_charpoly_quadrature_rejects_empty_size():
    with pytest.raises(UsageError):
        charpoly_moment_quadrature(0, 0.0, 0.0)


@pytest.mark.parametrize("n, x1, x2", [(8, -0.4, 0.4), (32, -1.5, 2.369), (60, 1.1, 0.7)])
def test_charpoly_quadrature_is_correctly_rounded(n, x1, x2):
    # the finite sum in exact rationals at the double x1*x2; (32, -1.5, 2.369)
    # sits near a root, where adding rounded terms loses ten digits
    p = Fraction(x1 * x2)
    exact = sum(comb(n, k) * p ** (n - k) * Fraction(factorial(k), 2**k) for k in range(n + 1))
    assert charpoly_moment_quadrature(n, x1, x2) == float(exact)


def test_vandermonde():
    assert vandermonde((1.0, 2.0, 3.0, 4.0)) == 12.0
    assert vandermonde((2.0, 1.0)) == -1.0

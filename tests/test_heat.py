import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import ginlab.heat as heat
from ginlab._rng import stream
from ginlab.errors import UsageError
from ginlab.group_integrals import (
    haar_unitaries,
    integral_quadrature_k2,
    to_skew_unitary,
    vandermonde,
)
from ginlab.heat import (
    delta_prime_target,
    flat_heat_residual,
    heat_kernel,
    heat_kernel_d1,
    hermitian_basis,
    hermitian_projector,
    initial_condition_check,
    pair_density_t,
    projector_solution,
    residual_order,
    signed_density_t,
)
from ginlab.kernel import moment_constant, signed_density

SQRT_PI = math.sqrt(math.pi)


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_heat_kernel_mass_and_variance(t):
    mass, _ = quad(lambda x: heat_kernel(t, x), -np.inf, np.inf)
    assert abs(mass - 1.0) < 1e-12
    var, _ = quad(lambda x: x * x * heat_kernel(t, x), -np.inf, np.inf)
    assert abs(var - t / 4.0) < 1e-12


def test_heat_kernel_solves_heat_equation():
    def fn(x, t):
        return heat_kernel(t, float(x[0]))

    errs = [abs(flat_heat_residual(fn, [0.4], 0.9, h)) for h in (1e-3, 5e-4)]
    assert errs[1] < 1e-6
    assert math.log2(errs[0] / errs[1]) > 1.9


def test_heat_kernel_rejects_bad_t():
    with pytest.raises(ValueError):
        heat_kernel(0.0, 1.0)
    with pytest.raises(ValueError):
        heat_kernel_d1(-1.0, 1.0)


def test_signed_density_t_reduces_to_closed_form_at_t1():
    # at t = 1 the entries are proportional to (x_i - x_j) exp(-(x_i-x_j)^2);
    # the collected constant is (1/k!) (-2/sqrt(pi))**(k/2)
    for pts in [(-0.35, 0.55), (0.1, 1.4)]:
        ratio = signed_density_t(pts, 1.0) / signed_density(pts)
        assert ratio == pytest.approx(-1.0 / SQRT_PI, rel=1e-12)
    pts4 = (-0.8, -0.1, 0.4, 1.1)
    ratio4 = signed_density_t(pts4, 1.0) / signed_density(pts4)
    assert ratio4 == pytest.approx((1 / 24.0) * (4.0 / np.pi), rel=1e-9)


def test_signed_density_t_antisymmetry():
    assert signed_density_t((0.55, -0.35), 0.7) == -signed_density_t((-0.35, 0.55), 0.7)


def test_signed_density_t_diffusive_covariance():
    lam = 2.3
    for pts, k in [((-0.35, 0.55), 2), ((-0.8, -0.1, 0.4, 1.1), 4)]:
        scaled = tuple(np.sqrt(lam) * np.asarray(pts))
        assert signed_density_t(scaled, lam * 0.8) == pytest.approx(
            lam ** (-k / 2.0) * signed_density_t(pts, 0.8), rel=1e-12
        )


def test_pair_density_matches_general_form():
    assert pair_density_t(-0.9, 0.7) == pytest.approx(
        signed_density_t((-0.35, 0.55), 0.7), rel=1e-12
    )


def test_heat_residual_small_and_second_order():
    pts = (-0.35, 0.55)
    assert abs(flat_heat_residual(signed_density_t, pts, 1.0, 1e-3)) < 1e-6
    assert residual_order(signed_density_t, pts, 1.0, 1e-3) > 1.9
    pts4 = (-0.8, -0.1, 0.4, 1.1)
    assert residual_order(signed_density_t, pts4, 1.0, 1e-3) > 1.9


def test_integral_form_solves_heat_equation():
    # t^{-k(k+1)/4} V(x) I_t certified through the quadrature route at k = 2
    def integral_form(x, t):
        return t ** (-1.5) * vandermonde(x) * integral_quadrature_k2(x[0], x[1], t)

    assert residual_order(integral_form, (-0.35, 0.55), 1.0, 1e-3) > 1.9


def test_consistency_chain_density_vs_integral():
    # signed_density_t / (t^{-3/2} V I_t) is one constant on an (x, t) grid
    ratios = []
    for pts in [(-0.6, 0.2), (-0.1, 0.9), (0.4, 1.3)]:
        for t in (0.6, 1.0, 1.7):
            phi = t ** (-1.5) * vandermonde(pts) * integral_quadrature_k2(*pts, t)
            ratios.append(signed_density_t(pts, t) / phi)
    ratios = np.array(ratios)
    assert np.max(np.abs(ratios / ratios[0] - 1.0)) < 1e-6
    assert ratios[0] == pytest.approx(2.0 / np.pi, rel=1e-9)


def test_uniqueness_surrogate_convolution():
    # evolving the initial data through the kernel reproduces the Pfaffian
    # form: signed_density_t = -(C2/2) * int g_t(y1 - v) g_t'(y2 - v) dv
    c = moment_constant(2) / 2.0
    for (y1, y2, t) in [(-0.35, 0.55, 0.8), (0.2, 1.1, 0.4)]:
        conv, _ = quad(
            lambda v: heat_kernel(t, y1 - v) * heat_kernel_d1(t, y2 - v),
            min(y1, y2) - 12.0,
            max(y1, y2) + 12.0,
            epsabs=1e-12,
            limit=300,
        )
        assert abs(signed_density_t((y1, y2), t) - (-c) * conv) < 1e-8


def test_projector_solution_identity_recovers_fundamental():
    x = np.array([0.3, -0.4])
    t = 0.7
    val = projector_solution(np.eye(2), t, x)
    expected = np.exp(-(x @ x) / (2 * t)) / (2 * np.pi * t)
    assert val == pytest.approx(expected, rel=1e-14)


def test_projector_solution_heat_residual_rank_one():
    p = np.array([[1.0, 0.0], [0.0, 0.0]])

    def fn(x, t):
        return projector_solution(p, t, x)

    errs = [abs(flat_heat_residual(fn, [0.3, -0.2], 1.0, h, diffusion=0.5)) for h in (1e-3, 5e-4)]
    assert math.log2(errs[0] / errs[1]) > 1.9


def test_projector_family_random_projectors():
    rng = np.random.default_rng(8)
    for trial in range(20):
        dim = int(rng.integers(2, 7))
        rank = int(rng.integers(1, dim + 1))
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        p = q[:, :rank] @ q[:, :rank].T

        def fn(x, t):
            return projector_solution(p, t, x)

        x0 = rng.normal(size=dim) * 0.4
        errs = [abs(flat_heat_residual(fn, x0, 1.0, h, diffusion=0.5)) for h in (2e-3, 1e-3)]
        if errs[1] > 1e-13:  # below that, roundoff hides the h^2 term
            assert math.log2(errs[0] / errs[1]) > 1.7


def test_projector_solution_rejects_non_projector():
    with pytest.raises(ValueError):
        projector_solution(np.array([[0.5, 0.2], [0.2, 0.7]]), 1.0, [0.0, 0.0])
    with pytest.raises(ValueError):
        projector_solution(np.array([[1.0, 0.1], [0.0, 0.0]]), 1.0, [0.0, 0.0])


def test_hermitian_basis_orthonormal():
    for k in (2, 3):
        basis = hermitian_basis(k)
        assert len(basis) == k * k
        for a, ea in enumerate(basis):
            assert np.max(np.abs(ea - ea.conj().T)) < 1e-15
            for b, eb in enumerate(basis):
                ip = np.trace(ea @ eb).real
                assert ip == pytest.approx(1.0 if a == b else 0.0, abs=1e-14)


@pytest.mark.parametrize("k", [2, 4])
def test_skew_unitary_projector(k):
    w = to_skew_unitary(haar_unitaries(k, 1, stream(40 + k, 0))[0])
    p = hermitian_projector(w)
    assert np.max(np.abs(p - p.T)) < 1e-12
    assert np.max(np.abs(p @ p - p)) < 1e-10
    assert np.trace(p) == pytest.approx((k * k + k) / 2.0, abs=1e-9)
    # doubling identity for the unprojected operator: P(P(H)) = ... with
    # P0 = 2 * p the displayed operator, P0^2 = 2 P0
    p0 = 2.0 * p
    assert np.max(np.abs(p0 @ p0 - 2.0 * p0)) < 1e-9


def test_skew_unitary_projector_heat_flow():
    w = to_skew_unitary(haar_unitaries(2, 1, stream(42, 0))[0])
    p = hermitian_projector(w)

    def fn(x, t):
        return projector_solution(p, t, x)

    rng = np.random.default_rng(1)
    x0 = rng.normal(size=4) * 0.3
    errs = [abs(flat_heat_residual(fn, x0, 1.0, h, diffusion=0.5)) for h in (2e-3, 1e-3)]
    assert math.log2(errs[0] / errs[1]) > 1.8


def _odd_fn(x1, x2):
    return (x2 - x1) * np.exp(-x1 * x1 - x2 * x2)


def _even_fn(x1, x2):
    return (x2 - x1) ** 2 * np.exp(-x1 * x1 - x2 * x2)


def _bump(x1, x2):
    return np.exp(-8.0 * (x1 + 2.0) ** 2 - 8.0 * (x2 - 2.0) ** 2)


def _no_density(*args):
    raise AssertionError("the pair density was evaluated")


@pytest.fixture
def no_density(monkeypatch):
    # the pairing pass reaches the kernel formula through its private helper
    for name in ("pair_density_t", "_kernel_d1"):
        monkeypatch.setattr(heat, name, _no_density)


def test_initial_condition_odd_function():
    (rep,) = initial_condition_check((_odd_fn,), (0.1, 0.05, 0.025))
    # derived closed form of the limiting pairing
    assert rep.target == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-6)
    errors = [abs(r.pairing - rep.target) for r in rep.rows]  # ascending t
    assert errors[2] / errors[1] == pytest.approx(2.0, abs=0.2)
    assert errors[1] / errors[0] == pytest.approx(2.0, abs=0.2)
    assert rep.error < 2e-3


def test_initial_condition_even_function():
    (rep,) = initial_condition_check((_even_fn,), (0.1, 0.05, 0.025))
    assert abs(rep.target) < 1e-12
    assert abs(rep.extrapolated) < 1e-6


def test_initial_condition_off_diagonal_support():
    (rep,) = initial_condition_check((_bump,), (0.1, 0.05))
    assert all(abs(r.pairing) < 1e-12 for r in rep.rows)


def test_initial_condition_rejects_non_decaying():
    with pytest.raises(ValueError):
        initial_condition_check((lambda x1, x2: x2 - x1,), (0.1, 0.05))


def test_non_decaying_second_function_raises_before_any_density(no_density):
    with pytest.raises(ValueError, match="must decay"):
        initial_condition_check((_odd_fn, lambda x1, x2: x2 - x1), (0.1, 0.05))


@pytest.mark.parametrize("t_sequence", [(0.1, 0.1), (0.1, 0.2, 0.1)])
def test_equal_smallest_times_raise_before_any_density(no_density, t_sequence):
    # the Richardson step divides by ts[1] / ts[0] - 1
    with pytest.raises(UsageError, match="distinct"):
        initial_condition_check((_odd_fn,), t_sequence)


def test_two_point_grid_is_accepted(monkeypatch):
    monkeypatch.setattr(heat, "_GRID", 2)
    (rep,) = initial_condition_check((_odd_fn,), (0.1, 0.05))
    assert all(np.isfinite(r.pairing) for r in rep.rows)


def test_residual_order_is_nan_when_both_residuals_vanish():
    # coincident points: the density is 0 at every stencil node
    assert math.isnan(residual_order(signed_density_t, (0.1, 0.1), 1.0, 1e-3))


def _whole_grid_pairing(test_fn, t_sequence, half_range, grid):
    """One function paired on the whole grid at once: the reference for the row blocks."""
    ts = sorted(t_sequence)
    xs = np.linspace(-half_range, half_range, grid)
    step = xs[1] - xs[0]
    x1, x2 = np.meshgrid(xs, xs, indexing="ij")
    delta, weight = x1 - x2, test_fn(x1, x2)
    pairings = []
    for t in ts:
        vals = pair_density_t(delta, t) * weight
        pairings.append(float(np.trapezoid(np.trapezoid(vals, dx=step, axis=1), dx=step)))
    ratio = ts[1] / ts[0]
    extrapolated = (ratio * pairings[0] - pairings[1]) / (ratio - 1.0)
    return ts, pairings, float(extrapolated), delta_prime_target(test_fn)


@pytest.mark.parametrize(
    "half_range, grid",
    # the fixed grid, the fixed grid size at another range, and grids around
    # the earlier 64-row blocks
    [(6.0, 801), (6.0, 65), (6.0, 129), (6.0, 33), (6.0, 97), (4.0, 801)]
    # one row short of a block, one row over, and one row over two blocks
    + [(5.0, heat._ROW_BLOCK - 1), (5.0, heat._ROW_BLOCK + 1), (5.0, 2 * heat._ROW_BLOCK + 1)],
)
def test_row_blocks_match_the_whole_grid_bit_for_bit(monkeypatch, half_range, grid):
    monkeypatch.setattr(heat, "_HALF_RANGE", half_range)
    monkeypatch.setattr(heat, "_GRID", grid)
    fns = (_odd_fn, _even_fn, _bump)
    # the second, unsorted sequence reuses each block's factors across four times
    for t_sequence in ((0.1, 0.025, 0.05), (0.07, 0.013, 0.11, 0.03)):
        reports = initial_condition_check(fns, t_sequence)
        assert len(reports) == len(fns)
        for fn, rep in zip(fns, reports):
            ts, pairings, extrapolated, target = _whole_grid_pairing(fn, t_sequence, half_range, grid)
            assert [r.t for r in rep.rows] == ts
            assert [r.pairing.hex() for r in rep.rows] == [p.hex() for p in pairings]
            assert rep.extrapolated.hex() == extrapolated.hex()
            assert rep.target.hex() == target.hex()


def test_kernel_helper_is_the_one_line_formula_bit_for_bit():
    # separations out to 12 take exp through normal, subnormal and underflowing
    # values, where the helper stores +0.0 instead of calling it
    x = np.linspace(-12.0, 12.0, 4001)
    for t in (0.05, 0.1, 0.2, 1.0):
        formula = (-4.0 * x / t) * np.exp(-2.0 * x * x / t) / np.sqrt(np.pi * t / 2.0)
        assert heat_kernel_d1(t, x).tobytes() == formula.tobytes()
    below = np.exp([heat._EXP_ZERO_BELOW, -800.0, -1e300, -np.inf])
    assert below.tobytes() == np.zeros(4).tobytes()


def test_default_pairing_forms_no_whole_grid_temporary():
    # the pass works in row blocks: its peak allocation stays below one
    # float64 array over the fixed 801 x 801 grid (5.13 MB)
    fns, t_sequence = (_odd_fn, _even_fn), (0.1, 0.05, 0.025)
    initial_condition_check(fns, t_sequence)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        initial_condition_check(fns, t_sequence)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 801 * 801 * 8


def test_delta_prime_target_sign_convention():
    # target = -(C2/2) * int d/du f(v+u, v)|_0 dv; for f = (x2 - x1) * bump
    # the derivative in the first slot is -bump, so the target is positive
    assert delta_prime_target(_odd_fn) > 0

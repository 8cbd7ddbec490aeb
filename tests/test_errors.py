import numpy as np
import pytest

import ginlab.group_integrals as gi
import ginlab.heat as heat
import ginlab.kernel as kernel
import ginlab.sampler as sampler
import ginlab.stationary_phase as sp
from ginlab.errors import UsageError, point_array, positive_time
from ginlab.pfaffian import identity_matching

NAN, INF = float("nan"), float("inf")


def _decaying(x1, x2):
    return (x2 - x1) * np.exp(-x1 * x1 - x2 * x2)


def _residual(x, t):
    return heat.flat_heat_residual(heat.signed_density_t, x, t, 1e-3)


M2 = identity_matching(2)

#: (name, call on a point list, whether the list must have even length; None
#: for two scalar arguments)
POINT_TAKERS = [
    ("kernel.correlation_matrix", kernel.correlation_matrix, False),
    ("kernel.correlation", kernel.correlation, False),
    ("kernel.signed_density", kernel.signed_density, True),
    ("kernel.spin_correlation", kernel.spin_correlation, True),
    ("sampler.estimate_spin_moments", lambda x: sampler.estimate_spin_moments(5, [x], 100, 1), True),
    ("sampler.estimate_charpoly_moment", lambda x: sampler.estimate_charpoly_moment(5, x, 9, 1), False),
    ("sampler.duality_check", lambda x: sampler.duality_check(10, x, 100, 1), False),
    ("group_integrals.integrand_pair", lambda x: gi.integrand_pair(np.eye(2), x), True),
    ("group_integrals.integral_mc_grid", lambda x: gi.integral_mc_grid([x], [1.0], 9, 1), True),
    ("group_integrals.exact_shape", lambda x: gi.exact_shape(x, 1.0), True),
    ("group_integrals.integral_quadrature_k2", lambda x: gi.integral_quadrature_k2(*x, 1.0), None),
    ("group_integrals.charpoly_moment_quadrature", lambda x: gi.charpoly_moment_quadrature(4, *x), None),
    ("stationary_phase.critical_value", lambda x: sp.critical_value(M2, x), True),
    ("stationary_phase.find_max_matching", sp.find_max_matching, True),
    ("stationary_phase.hessian_spectrum", lambda x: sp.hessian_spectrum(M2, x), True),
    ("stationary_phase.signature", lambda x: sp.signature(M2, x), True),
    ("stationary_phase.sqrt_abs_hessian_det", lambda x: sp.sqrt_abs_hessian_det(M2, x), True),
    ("stationary_phase.vandermonde_ratio_report", lambda x: sp.vandermonde_ratio_report(M2, x), True),
    ("stationary_phase.critical_data", sp.critical_data, True),
    ("stationary_phase.critical_table", sp.critical_table, True),
    ("stationary_phase.matchings_phase_sum", lambda x: sp.matchings_phase_sum(x, 1.0), True),
    ("stationary_phase.phase_pfaffian_ratio", lambda x: sp.phase_pfaffian_ratio(x, 1.0), True),
    ("stationary_phase.laplace_leading", lambda x: sp.laplace_leading(x, 1.0), True),
    ("heat.signed_density_t", lambda x: heat.signed_density_t(x, 1.0), True),
    ("heat.flat_heat_residual", lambda x: _residual(x, 1.0), False),
]

#: (name, call on a time)
TIME_TAKERS = [
    ("heat.heat_kernel", lambda t: heat.heat_kernel(t, 0.3)),
    ("heat.heat_kernel_d1", lambda t: heat.heat_kernel_d1(t, 0.3)),
    ("heat.signed_density_t", lambda t: heat.signed_density_t((0.1, 0.5), t)),
    ("heat.pair_density_t", lambda t: heat.pair_density_t(0.4, t)),
    ("heat.projector_solution", lambda t: heat.projector_solution(np.eye(1), t, [0.2])),
    ("heat.flat_heat_residual", lambda t: _residual((0.1, 0.5), t)),
    ("heat.initial_condition_check", lambda t: heat.initial_condition_check((_decaying,), (0.1, 0.05, t))),
    ("group_integrals.integrand_pair", lambda t: gi.integrand_pair(np.eye(2), (0.1, 0.5), t)),
    ("group_integrals.integral_mc_grid", lambda t: gi.integral_mc_grid([(0.1, 0.5)], [1.0, t], 9, 1)),
    ("group_integrals.integral_quadrature_k2", lambda t: gi.integral_quadrature_k2(0.1, 0.5, t)),
    ("group_integrals.exact_shape", lambda t: gi.exact_shape((0.1, 0.5), t)),
    ("stationary_phase.matchings_phase_sum", lambda t: sp.matchings_phase_sum((0.1, 0.5), t)),
    ("stationary_phase.phase_pfaffian_ratio", lambda t: sp.phase_pfaffian_ratio((0.1, 0.5), t)),
    ("stationary_phase.laplace_leading", lambda t: sp.laplace_leading((0.1, 0.5), t)),
]


def _bad_point_lists(even):
    """(label, point list) pairs that every point-taking call must reject."""
    if even is None:  # two scalar arguments, not a list
        return [("nan", (NAN, 0.5)), ("inf", (0.5, INF)), ("-inf", (-INF, 0.5))]
    cases = [("nan", (0.2, NAN)), ("inf", (0.2, INF)), ("-inf", (-INF, 0.2)), ("empty", ())]
    if even:
        cases.append(("odd", (0.1, 0.2, 0.3)))
    return cases


POINT_CASES = [
    pytest.param(fn, pts, id=f"{name}-points-{label}")
    for name, fn, even in POINT_TAKERS
    for label, pts in _bad_point_lists(even)
]
TIME_CASES = [
    pytest.param(fn, t, id=f"{name}-t-{label}")
    for name, fn in TIME_TAKERS
    for label, t in (("nan", NAN), ("inf", INF), ("zero", 0.0), ("negative", -1.0))
]
BIN_CASES = [
    pytest.param([NAN, 0.0, 0.5, 1.0], id="nan-edge"),
    pytest.param([[0.0, 0.5], [NAN, 2.0]], id="nan-interval"),
    pytest.param([], id="empty"),
]


@pytest.fixture
def no_draws(monkeypatch):
    """Make every Monte Carlo draw fail, so a rejection must come before one."""

    def refuse(*args):
        raise AssertionError("drew before checking the parameters")

    monkeypatch.setattr(sampler, "streams", refuse)
    monkeypatch.setattr(gi, "stream", refuse)


@pytest.mark.parametrize("call, bad", POINT_CASES + TIME_CASES)
def test_bad_points_and_times_are_usage_errors(no_draws, call, bad):
    with pytest.raises(UsageError):
        call(bad)


@pytest.mark.parametrize("bins", BIN_CASES)
def test_nan_bin_edges_are_usage_errors(no_draws, bins):
    with pytest.raises(UsageError):
        sampler.estimate_signed_density(6, bins, 2, 50, 3)


@pytest.mark.parametrize("nodes", [0, -3])
def test_quadrature_node_count_is_checked(nodes):
    with pytest.raises(UsageError):
        gi.integral_quadrature_k2(0.1, 0.5, 1.0, nodes=nodes)


@pytest.mark.parametrize(
    "kwargs",
    [{"grid": 0}, {"grid": 1}, {"grid": 2.5}, {"half_range": NAN}, {"half_range": INF},
     {"half_range": 0.0}, {"half_range": -1.0}],
    ids=["grid-0", "grid-1", "grid-float", "half_range-nan", "half_range-inf", "half_range-zero",
         "half_range-negative"],
)
def test_heat_grid_and_range_are_usage_errors(kwargs):
    def untouched(x1, x2):
        raise AssertionError("evaluated a test function before checking the grid")

    with pytest.raises(UsageError):
        heat.initial_condition_check((untouched,), (0.1, 0.05), **kwargs)
    # a negative range gave the target with its sign flipped
    with pytest.raises(UsageError):
        heat.delta_prime_target(untouched, **kwargs)


def _untouched(*args):
    raise AssertionError("evaluated a function before checking the step")


#: (name, call on a finite-difference step h)
STEP_TAKERS = [
    ("heat.delta_prime_target", lambda h: heat.delta_prime_target(_untouched, h=h)),
    ("heat.flat_heat_residual", lambda h: heat.flat_heat_residual(_untouched, (0.1, 0.5), 1.0, h)),
    ("heat.residual_order", lambda h: heat.residual_order(_untouched, (0.1, 0.5), 1.0, h)),
]


@pytest.mark.parametrize(
    "call, h",
    [
        pytest.param(fn, h, id=f"{name}-h-{label}")
        for name, fn in STEP_TAKERS
        for label, h in (("nan", NAN), ("inf", INF), ("-inf", -INF), ("zero", 0.0), ("negative", -1e-3))
    ],
)
def test_bad_finite_difference_steps_are_usage_errors(call, h):
    # h = 0 gave NaN with a RuntimeWarning or a ZeroDivisionError, NaN read
    # "need t > h", and a negative step was taken as given
    with pytest.raises(UsageError, match="step h"):
        call(h)


def test_infinite_bin_edges_are_half_lines():
    # only NaN is refused: a bin edge at +-inf makes a half-line bin
    dens = sampler.estimate_signed_density(6, [-INF, 0.0, INF], 2, 50, 3)
    assert np.isfinite(dens.weighted_counts[0, 1])


def test_helpers_pass_good_values_through():
    x = point_array([[0.3, -0.1]], even=True)
    assert x.dtype == float and x.tolist() == [0.3, -0.1]
    assert positive_time(np.float64(0.25)) == 0.25
    assert type(positive_time(2)) is float

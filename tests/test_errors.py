import ast
from pathlib import Path

import numpy as np
import pytest

import ginlab.cli as cli
import ginlab.group_integrals as gi
import ginlab.heat as heat
import ginlab.kernel as kernel
import ginlab.sampler as sampler
import ginlab.stationary_phase as sp
from ginlab.errors import UsageError, at_least, point_array, positive_time
from ginlab.pfaffian import identity_matching

NAN, INF = float("nan"), float("inf")
SRC = Path(__file__).resolve().parents[1] / "src" / "ginlab"


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
    pytest.param([-INF, 0.0, 0.5, 1.0], id="-inf-edge"),
    pytest.param([0.0, 0.5, 1.0, INF], id="inf-edge"),
    pytest.param([[-INF, 0.0], [0.5, 1.0]], id="-inf-interval"),
    pytest.param([[0.0, 0.5], [1.0, INF]], id="inf-interval"),
    pytest.param([], id="empty"),
    pytest.param([[0.0, 0.5, 1.0], [1.0, 1.5, 2.0]], id="shape-2x3"),
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


#: (name, a call whose parameters other than points and times are refused)
PARAMETER_TAKERS = [
    ("sampler.duality_check-points-too-close", lambda: sampler.duality_check(10, (0.1, 0.2), 100, 1)),
    ("sampler.duality_check-moment-unknown", lambda: sampler.duality_check(10, (0.1, 0.8), 100, 1, moment="x")),
    ("sampler.duality_check-moment-mc", lambda: sampler.duality_check(10, (0.1, 0.8), 100, 1, moment="mc")),
    ("group_integrals.integral_mc_grid-mixed-sizes",
     lambda: gi.integral_mc_grid([(0.1, 0.5), (-0.9, -0.3, 0.3, 0.9)], [1.0], 9, 1)),
    ("stationary_phase.find_max_matching-14-points", lambda: sp.find_max_matching(np.arange(14.0))),
    ("stationary_phase.critical_value-size-mismatch", lambda: sp.critical_value(identity_matching(4), (0.1, 0.5))),
]


@pytest.mark.parametrize("call", [pytest.param(fn, id=name) for name, fn in PARAMETER_TAKERS])
def test_bad_parameters_are_usage_errors(no_draws, call):
    with pytest.raises(UsageError):
        call()


def _resolved(samples):
    """cli.resolve_config on mc-spins with ``samples`` as the flag's value."""
    args = cli.build_parser().parse_args(["mc-spins"])
    args.samples = samples
    return cli.resolve_config(args)


BINS = [-1.0, -0.5, 0.0, 0.5, 1.0]
CELL = (0.0, 0.25, 0.5, 0.75)

#: (function, parameter, call on that parameter's value, the least value it
#: takes): every matrix size and sample count of the package
COUNT_TAKERS = [
    ("sampler.sample_ginoe", "n", lambda n: sampler.sample_ginoe(n, None), 1),
    ("sampler.estimate_spin_moments", "n", lambda n: sampler.estimate_spin_moments(n, [(0.0, 0.5)], 100, 1), 1),
    ("sampler.estimate_spin_moments", "samples",
     lambda s: sampler.estimate_spin_moments(5, [(0.0, 0.5)], s, 1), sampler.MIN_MOMENT_SAMPLES),
    # n >= k: with fewer eigenvalues than k every cell would read 0 +- 0
    ("sampler.estimate_signed_density", "n", lambda n: sampler.estimate_signed_density(n, BINS, 4, 50, 1), 4),
    ("sampler.estimate_signed_density", "samples", lambda s: sampler.estimate_signed_density(5, BINS, 4, s, 1), 2),
    ("sampler.estimate_charpoly_moment", "n", lambda n: sampler.estimate_charpoly_moment(n, (0.1, 0.5), 9, 1), 1),
    ("sampler.estimate_charpoly_moment", "samples",
     lambda s: sampler.estimate_charpoly_moment(5, (0.1, 0.5), s, 1), 2),
    ("sampler.estimate_real_count", "n", lambda n: sampler.estimate_real_count(n, 9, 1), 1),
    ("sampler.estimate_real_count", "samples", lambda s: sampler.estimate_real_count(5, s, 1), 2),
    ("sampler.duality_check", "n", lambda n: sampler.duality_check(n, (0.1, 0.8), 100, 1), 3),
    ("sampler.duality_check", "samples", lambda s: sampler.duality_check(10, (0.1, 0.8), s, 1), 2),
    ("group_integrals.integral_mc_grid", "samples", lambda s: gi.integral_mc_grid([(0.1, 0.5)], [1.0], s, 1), 2),
    ("group_integrals.charpoly_moment_quadrature", "n", lambda n: gi.charpoly_moment_quadrature(n, 0.1, 0.5), 1),
    ("kernel.moment_numerator", "m", lambda m: kernel.moment_numerator(m, 0.1, 0.5), 0),
    ("kernel.lemma1_rhs", "n", lambda n: kernel.lemma1_rhs(n, 0.1, 0.5), 2),
    ("kernel.lemma1_rhs_average", "n", lambda n: kernel.lemma1_rhs_average(n, *CELL), 2),
    ("kernel.pair_density_n_average", "n", lambda n: kernel.pair_density_n_average(n, *CELL), 2),
    ("kernel.expected_real_count", "n", kernel.expected_real_count, 1),
    ("cli.resolve_config", "samples", _resolved, 1),
]


def _bad_counts(minimum):
    """The integers among minimum - 1, 0 and -1 below ``minimum``, then two floats."""
    return [*dict.fromkeys(v for v in (minimum - 1, 0, -1) if v < minimum), 2.5, float(minimum)]


@pytest.mark.parametrize(
    "call, bad",
    [
        pytest.param(fn, bad, id=f"{name}-{param}-{bad}")
        for name, param, fn, minimum in COUNT_TAKERS
        for bad in _bad_counts(minimum)
    ],
)
def test_bad_sizes_and_sample_counts_are_usage_errors(no_draws, call, bad):
    # the one message of errors.at_least: no size or count has a check of its own
    with pytest.raises(UsageError, match="need a whole number of at least"):
        call(bad)


def _count_parameters(path):
    """(module.function, parameter) of each public top-level function of
    ``path`` with a parameter n, samples, or m annotated int (an unannotated
    m, or an m of another type, is a matrix or a matching)."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
                is_int = getattr(arg.annotation, "id", None) == "int"
                if arg.arg in ("n", "samples") or (arg.arg == "m" and is_int):
                    yield f"{path.stem}.{node.name}", arg.arg


def test_every_size_and_sample_count_is_in_the_table():
    found = {pair for path in sorted(SRC.glob("*.py")) for pair in _count_parameters(path)}
    assert found - {(name, param) for name, param, _, _ in COUNT_TAKERS} == set()


def _untouched(*args):
    raise AssertionError("evaluated a function before checking the step")


#: (name, call on a finite-difference step h)
STEP_TAKERS = [
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


def test_far_finite_bin_edges_stand_in_for_half_lines():
    # a half-line cell could never match its closed form, so +-inf is refused;
    # an edge far out covers the same eigenvalues
    with pytest.raises(UsageError, match="bin edges must be finite"):
        sampler.estimate_signed_density(6, [-INF, 0.0, INF], 2, 50, 3)
    dens = sampler.estimate_signed_density(6, [-1e6, 0.0, 1e6], 2, 50, 3)
    assert np.isfinite(dens.weighted_counts[0, 1])


def test_helpers_pass_good_values_through():
    x = point_array([[0.3, -0.1]], even=True)
    assert x.dtype == float and x.tolist() == [0.3, -0.1]
    assert positive_time(np.float64(0.25)) == 0.25
    assert type(positive_time(2)) is float
    assert at_least(np.int64(3), 3, "samples") == 3
    assert type(at_least(np.int64(3), 3, "samples")) is int

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc

from ginlab.kernel import (
    correlation,
    correlation_matrix,
    gauss_tail,
    gauss_tail_d1,
    gauss_tail_d2,
    kernel_block,
    moment_constant,
    signed_density,
    spin_correlation,
)
from ginlab.pfaffian import pfaffian

SQRT_PI = math.sqrt(math.pi)


def test_gauss_tail_at_zero_exact():
    assert gauss_tail(0.0) == 0.5


def test_gauss_tail_reflection():
    for x in (0.2, 1.0, 2.7):
        assert abs(gauss_tail(x) + gauss_tail(-x) - 1.0) < 1e-15


def test_gauss_tail_against_quadrature_oracle():
    # independent high-precision oracle for the tail integral
    for x in (0.5, 1.0, 1.5):
        oracle = float(mpmath.quad(lambda z: mpmath.exp(-z * z), [x, mpmath.inf]) / mpmath.sqrt(mpmath.pi))
        assert abs(gauss_tail(x) - oracle) < 1e-14
    assert abs(gauss_tail(1.0) - 0.0786496) < 1e-7


def test_gauss_tail_derivatives():
    h = 1e-5
    for x in (-1.3, 0.0, 0.8):
        fd1 = (gauss_tail(x + h) - gauss_tail(x - h)) / (2 * h)
        fd2 = (gauss_tail_d1(x + h) - gauss_tail_d1(x - h)) / (2 * h)
        assert abs(gauss_tail_d1(x) - fd1) < 1e-9
        assert abs(gauss_tail_d2(x) - fd2) < 1e-9


def test_kernel_block_at_zero():
    h0 = kernel_block(0.0)
    expected = np.array([[0.0, 1.0 / SQRT_PI], [-1.0 / SQRT_PI, 0.0]])
    assert np.array_equal(h0, expected)


@pytest.mark.parametrize("z", [0.3, 1.7])
def test_kernel_block_reflection(z):
    assert np.array_equal(kernel_block(-z), -kernel_block(z).T)


def test_kernel_block_tail():
    h6 = np.abs(kernel_block(6.0))
    assert h6[0, 0] < 1e-14 and h6[0, 1] < 1e-14 and h6[1, 0] < 1e-14
    assert h6[1, 1] < 1e-15


def test_correlation_matrix_block_antisymmetry():
    rng = np.random.default_rng(3)
    for k in (2, 3, 4, 6):
        pts = np.sort(rng.normal(size=k) * 1.5)
        if np.any(np.diff(pts) == 0):
            continue
        a = correlation_matrix(pts)
        assert np.max(np.abs(a + a.T)) < 1e-15


def test_one_point_correlation_exact():
    assert correlation((0.0,)) == 1.0 / math.sqrt(math.pi)
    # translation invariance of the limit
    assert abs(correlation((2.3,)) - 1.0 / SQRT_PI) < 1e-15


def test_pair_correlation_repulsion():
    assert correlation((0.0, 1e-4)) < 1e-3
    with pytest.raises(ValueError):
        correlation((0.5, 0.5))


def test_pair_correlation_factorizes_at_large_separation():
    lhs = correlation((0.0, 5.0))
    rhs = correlation((0.0,)) * correlation((5.0,))
    assert abs(lhs - rhs) < 1e-10


def test_correlation_nonnegative_on_random_configs():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        k = rng.integers(1, 5)
        pts = np.sort(rng.normal(size=k) * 1.2)
        if np.any(np.diff(pts) == 0):
            continue
        assert correlation(pts) >= 0.0


def test_signed_density_pair_value():
    val = signed_density((0.0, 1.0))
    expected = -(2.0 / SQRT_PI) * math.exp(-1.0)
    assert abs(val - expected) < 1e-14


def test_signed_density_antisymmetry():
    assert signed_density((1.0, 0.0)) == -signed_density((0.0, 1.0))
    rng = np.random.default_rng(1)
    pts = np.sort(rng.normal(size=4))
    swapped = pts[[0, 2, 1, 3]]
    assert abs(signed_density(swapped) + signed_density(pts)) < 1e-15


@given(data=st.data(), k=st.sampled_from([2, 4, 6, 8]))
def test_signed_density_changes_by_the_permutation_sign(data, k):
    pts = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k)))
    perm = data.draw(st.permutations(range(k)))
    sign = round(np.linalg.det(np.eye(k)[perm]))
    assert abs(signed_density(pts[perm]) - sign * signed_density(pts)) < 1e-12


def _matching_scale(a):
    """Sum over perfect matchings of |product of entries|: the size of a
    Pfaffian's terms, which its rounding error is relative to."""
    if len(a) == 0:
        return 1.0
    rest = lambda j: np.delete(np.delete(a, [0, j], axis=0), [0, j], axis=1)
    return sum(abs(a[0, j]) * _matching_scale(rest(j)) for j in range(1, len(a)))


@pytest.mark.parametrize("k", [2, 4, 6])
def test_signed_density_is_a_pfaffian_of_the_pair_density(k):
    # (4/pi)**(k/4) = 2**(k/2) * (pi**-0.5)**(k/2), and a Pfaffian of k/2 pairs
    # scales by c**(k/2): signed_density = 2**(k/2) * Pf[rho_2(x_i, x_j)]
    rng = np.random.default_rng(100 + k)
    for _ in range(200):
        x = rng.uniform(-2.5, 2.5, k)
        d = x[:, None] - x[None, :]
        rho = (1.0 / SQRT_PI) * (d * np.exp(-d * d))  # rho_2(x_i, x_j)
        want = 2.0 ** (k / 2) * pfaffian(rho)
        if k == 2:
            assert signed_density(x).hex() == want.hex()
        else:
            # relative to the terms: the Pfaffian itself may cancel
            assert abs(signed_density(x) - want) <= 1e-13 * 2.0 ** (k / 2) * _matching_scale(rho)


def test_signed_density_vanishes_at_large_separation():
    assert abs(signed_density((0.0, 8.0))) < 1e-25


def test_signed_density_needs_even_k():
    with pytest.raises(ValueError):
        signed_density((0.0, 1.0, 2.0))


def test_spin_correlation_coincident_pair_exact():
    assert spin_correlation((0.7, 0.7)) == 1.0
    assert spin_correlation((0.0, 0.0)) == 1.0


def test_spin_correlation_pair_is_erfc():
    for d in (0.25, 0.5, 1.0, 2.0):
        assert abs(spin_correlation((0.0, d)) - erfc(d)) < 1e-15


def test_spin_correlation_factorizes():
    val = spin_correlation((0.0, 10.0, 20.0, 30.0))
    prod = spin_correlation((0.0, 10.0)) * spin_correlation((20.0, 30.0))
    assert abs(val - prod) < 1e-8
    val = spin_correlation((0.0, 3.0, 6.0, 9.0))
    prod = spin_correlation((0.0, 3.0)) * spin_correlation((6.0, 9.0))
    assert abs(val - prod) < 1e-8


def test_moment_constant_values():
    assert abs(moment_constant(2) - 1.128379) < 1e-6
    assert moment_constant(4) == pytest.approx(4.0 / math.pi, rel=1e-15)
    # exponent additivity; squaring is its two-equal-parts instance
    for k1, k2 in ((2, 2), (2, 4), (4, 6)):
        assert moment_constant(k1) * moment_constant(k2) == pytest.approx(
            moment_constant(k1 + k2), rel=1e-14
        )
    with pytest.raises(ValueError):
        moment_constant(3)


def one_sided_d1(f, h):
    # second-order right derivative at 0
    return (-3.0 * f(0.0) + 4.0 * f(h) - f(2.0 * h)) / (2.0 * h)


def test_correlation_from_merged_spin_pairs_k1():
    # the one-point correlation is -(1/2) d/dy of the merged pair moment
    def moment(y):
        return spin_correlation((0.3, 0.3 + y))

    errs = []
    for h in (2e-3, 1e-3):
        val = -0.5 * one_sided_d1(moment, h)
        errs.append(abs(val - correlation((0.3,))))
    order = math.log2(errs[0] / errs[1])
    assert errs[1] < 1e-5
    assert order > 1.9


def test_correlation_from_merged_spin_pairs_k2():
    x1, x2 = -0.4, 0.6

    def mixed(h):
        coeff = (-1.5, 2.0, -0.5)
        total = 0.0
        for i, ci in enumerate(coeff):
            for j, cj in enumerate(coeff):
                total += ci * cj * spin_correlation(
                    (x1, x1 + i * h + 1e-12, x2, x2 + j * h + 1e-12)
                )
        return total / (h * h)

    target = correlation((x1, x2))
    errs = [abs(0.25 * mixed(h) - target) for h in (2e-3, 1e-3)]
    order = math.log2(errs[0] / errs[1])
    assert errs[1] < 1e-4
    assert order > 1.9


def test_signed_density_integrates_to_spin_moment_rectangles():
    # integral over a product of disjoint intervals equals the quarter
    # alternating sum of corner spin moments (the calibrated density)
    a1, b1, a2, b2 = -0.9, -0.2, 0.4, 1.3

    def dens(y1, y2):
        return 2.0 ** (-2 / 2) * signed_density((y1, y2))  # Pf[rho_2]: 2**(-k/2) times it

    inner = lambda y1: quad(lambda y2: dens(y1, y2), a2, b2, epsabs=1e-11)[0]
    lhs, _ = quad(inner, a1, b1, epsabs=1e-10, limit=200)
    corners = (
        spin_correlation((b1, b2))
        - spin_correlation((b1, a2))
        - spin_correlation((a1, b2))
        + spin_correlation((a1, a2))
    )
    assert abs(lhs - 0.25 * corners) < 1e-6


def test_signed_density_integrates_to_spin_moment_half_lines():
    # the smooth density is only conditionally integrable over half-line
    # products (no decay along the diagonal); iterating with the inner
    # integral over the larger coordinate gives the spin moment exactly
    x1, x2 = -0.3, 0.8

    def dens(y1, y2):
        return 2.0 ** (-2 / 2) * signed_density((y1, y2))  # Pf[rho_2]: 2**(-k/2) times it

    def inner(y1):
        return quad(lambda y2: dens(y1, y2), y1 - 10.0, x2, epsabs=1e-11, limit=200)[0]

    integral, _ = quad(inner, x2 - 12.0, x1, epsabs=1e-10, limit=200)
    assert abs(4.0 * integral - spin_correlation((x1, x2))) < 1e-6

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginlab.group_integrals import exact_shape, integral_quadrature_k2, vandermonde
from ginlab.pfaffian import (
    canonical_matching,
    enumerate_matchings,
    identity_matching,
    inversions,
    matching_sign,
)
from ginlab.stationary_phase import (
    _argmax_with_tie_check,
    critical_data,
    critical_value,
    find_max_matching,
    hessian_spectrum,
    laplace_leading,
    matchings_phase_sum,
    phase_pfaffian_ratio,
    signature,
    sqrt_abs_hessian_det,
    vandermonde_ratio_report,
)

X4 = (1.0, 2.0, 3.0, 4.0)
M0 = canonical_matching([(1, 2), (3, 4)])
M1 = canonical_matching([(1, 3), (2, 4)])
M2 = canonical_matching([(1, 4), (2, 3)])


def random_ordered(rng, two_k, scale=1.0):
    while True:
        x = np.sort(rng.normal(size=two_k) * scale)
        if np.all(np.diff(x) > 1e-6):
            return x


def test_critical_values():
    assert critical_value(M0, X4) == 28.0
    assert critical_value(M2, X4) == 20.0
    vals = {critical_value(m, X4) for m in enumerate_matchings(4)}
    assert max(vals) == 28.0


def test_find_max_matching_is_consecutive_pairs():
    assert find_max_matching(X4) == M0
    rng = np.random.default_rng(1)
    x6 = random_ordered(rng, 6)
    assert find_max_matching(x6) == identity_matching(6)


def test_rematching_increases_value():
    # a crossing (j_k > i_l) strictly loses to the rematch (i_k,i_l)(j_k,j_l)
    rng = np.random.default_rng(2)
    x = random_ordered(rng, 4)
    crossing = canonical_matching([(1, 3), (2, 4)])  # j_1 = 3 > i_2 = 2
    rematch = canonical_matching([(1, 2), (3, 4)])
    gain = critical_value(rematch, x) - critical_value(crossing, x)
    assert gain == pytest.approx(2.0 * (x[1] - x[2]) * (x[0] - x[3]), rel=1e-12)
    assert gain > 0


def test_hessian_spectrum_example():
    spec = hessian_spectrum(M0, X4)
    assert spec == [(-6.0, 2), (-8.0, 2)]


def test_hessian_all_negative_at_max():
    rng = np.random.default_rng(3)
    for two_k in (4, 6, 8):
        x = random_ordered(rng, two_k)
        spec = hessian_spectrum(identity_matching(two_k), x)
        assert all(v < 0 for v, _ in spec)
        kk = two_k // 2
        assert sum(mult for _, mult in spec) == 2 * kk * (kk - 1)


def test_signature_examples():
    assert signature(M0, X4) == -4
    assert signature(M1, X4) == 0
    assert signature(M2, X4) == 4


@pytest.mark.parametrize("two_k", [4, 6, 8])
def test_signature_identity_exhaustive(two_k):
    rng = np.random.default_rng(10 + two_k)
    kk = two_k // 2
    for _ in range(8):
        x = random_ordered(rng, two_k, scale=1.5)
        for m in enumerate_matchings(two_k):
            sig = signature(m, x)
            assert sig == 4 * inversions(m) - 2 * kk * (kk - 1)
            assert (sig - 2 * kk * (kk - 1)) % 4 == 0


def test_sqrt_abs_hessian_det_example():
    assert sqrt_abs_hessian_det(M0, X4) == 48.0
    rep = vandermonde_ratio_report(M0, X4)
    assert rep["cross_product"] == 12.0
    assert rep["vandermonde_over_gaps"] == 12.0
    assert rep["measured_log2_prefactor"] == pytest.approx(2.0, abs=1e-12)


def test_vandermonde_ratio_identity_all_matchings():
    rng = np.random.default_rng(4)
    x = random_ordered(rng, 6)
    for m in enumerate_matchings(6):
        rep = vandermonde_ratio_report(m, x)
        assert rep["cross_product"] == pytest.approx(
            rep["vandermonde_over_gaps"], rel=1e-12
        )


def test_sqrt_abs_hessian_det_scaling():
    rng = np.random.default_rng(5)
    x = random_ordered(rng, 6)
    lam = 1.9
    kk = 3
    ratio = sqrt_abs_hessian_det(identity_matching(6), lam * x) / sqrt_abs_hessian_det(
        identity_matching(6), x
    )
    assert ratio == pytest.approx(lam ** (2 * kk * (kk - 1)), rel=1e-10)


def test_critical_data_table():
    table = critical_data(X4)
    assert len(table.words) == 3
    assert set(table.signatures.tolist()) == {-4, 0, 4}


def test_phase_sum_single_pair():
    x = (0.2, 1.1)
    t = 0.8
    val = matchings_phase_sum(x, t)
    expected = np.exp(1j * (x[1] - x[0]) ** 2 / t)
    assert abs(val - expected) < 1e-14
    assert abs(phase_pfaffian_ratio(x, t) - expected) < 1e-14


@pytest.mark.parametrize("two_k,tol", [(4, 1e-12), (6, 1e-12), (8, 1e-12), (10, 1e-10)])
def test_phase_sum_equals_pfaffian_ratio(two_k, tol):
    # separated points keep the Vandermonde division well conditioned
    rng = np.random.default_rng(20 + two_k)
    for t in (0.7, 1.3):
        x = np.sort(np.linspace(-2.0, 2.0, two_k) + rng.uniform(-0.12, 0.12, two_k))
        lhs = matchings_phase_sum(x, t)
        rhs = phase_pfaffian_ratio(x, t)
        assert abs(lhs - rhs) <= tol * abs(rhs)


def reference_phase_sum(x, t):
    # the per-Matching loop with the recounted sign, before the matching table
    kk = len(x) // 2
    inv_it = -1j / t
    total = 0.0 + 0.0j
    for m in enumerate_matchings(len(x)):
        amp = 1.0
        phase = 0.0
        for i, j in m.pairs:
            amp *= x[j - 1] - x[i - 1]
            phase += 2.0 * x[i - 1] * x[j - 1]
        total += matching_sign(m) * amp * np.exp(inv_it * phase)
    total *= np.exp(-np.sum(x * x) * inv_it)
    return complex(t ** (kk * (kk - 1)) * total / vandermonde(x))


@pytest.mark.parametrize("two_k", [2, 4, 6, 8, 10])
def test_phase_sum_matches_the_matching_loop_bit_for_bit(two_k):
    rng = np.random.default_rng(40 + two_k)
    for t in (0.35, 1.3):
        x = random_ordered(rng, two_k, scale=2.0)
        got, expected = matchings_phase_sum(x, t), reference_phase_sum(x, t)
        assert (got.real.hex(), got.imag.hex()) == (expected.real.hex(), expected.imag.hex())


def scalar_rows(x):
    # the per-matching scalar loop: the oracle functions, matching by matching
    rows = []
    for m in enumerate_matchings(len(x)):
        rep = vandermonde_ratio_report(m, x)
        rows.append(
            (
                str(m),
                critical_value(m, x),
                inversions(m),
                signature(m, x),
                [v for v, _mult in hessian_spectrum(m, x)],
                rep["sqrt_abs_hessian_det"],
                rep["measured_log2_prefactor"],
            )
        )
    return rows


def scalar_max_matching(x):
    ms = enumerate_matchings(len(x))
    return ms[_argmax_with_tie_check([critical_value(m, x) for m in ms])]


def hexes(values):
    return [float(v).hex() for v in values]


# strictly increasing points: a start and 1 to 5 pairs of gaps of at least 1e-3,
# so no Hessian eigenvalue, determinant or Vandermonde under- or overflows
ordered_points = st.tuples(
    st.floats(-50.0, 50.0),
    st.integers(1, 5).flatmap(lambda kk: st.lists(st.floats(1e-3, 10.0), min_size=2 * kk - 1, max_size=2 * kk - 1)),
).map(lambda sg: np.cumsum([sg[0], *sg[1]]))


@settings(deadline=None)  # the scalar loop over 945 matchings takes about 0.25 s
@given(x=ordered_points, t=st.floats(0.05, 20.0))
def test_table_matches_the_scalar_loop_bit_for_bit(x, t):
    expected = scalar_rows(x)
    names, values, invs, sigs, spectra, dets, logs = (list(c) for c in zip(*expected))
    table = critical_data(x)
    assert table.names() == names
    assert hexes(table.critical_values) == hexes(values)
    assert table.inversions.tolist() == invs
    assert table.signatures.tolist() == sigs
    assert [hexes(row) for row in table.hessian_eigenvalues] == [hexes(row) for row in spectra]
    assert hexes(table.sqrt_abs_hessian_dets) == hexes(dets)
    assert hexes(table.log2_prefactors) == hexes(logs)
    assert find_max_matching(x) == scalar_max_matching(x)
    got, want = matchings_phase_sum(x, t), reference_phase_sum(x, t)
    assert hexes((got.real, got.imag)) == hexes((want.real, want.imag))


def test_underflowing_hessian_raises_naming_the_matching():
    x = (0.0, 1e-170, 2e-170, 3e-170)
    message = re.escape("zero Hessian eigenvalue for (1,2)(3,4)")
    for call in (critical_data, lambda x: signature(M0, x)):
        with pytest.raises(ValueError, match=message):
            call(x)


def test_phase_sum_scale_covariance():
    rng = np.random.default_rng(6)
    x = random_ordered(rng, 6)
    lam = 1.45
    a = matchings_phase_sum(tuple(lam * x), lam * lam * 0.9)
    b = matchings_phase_sum(tuple(x), 0.9)
    assert abs(a - b) < 1e-12 * abs(b)


def test_laplace_exponent_simplification():
    x = np.array([0.3, 0.9, 1.6, 2.4])
    t = 0.37
    gaps = x[1::2] - x[0::2]
    displayed = (2.0 / t) * np.sum(x[0::2] * x[1::2]) - np.sum(x * x) / t
    assert displayed == pytest.approx(-np.sum(gaps * gaps) / t, rel=1e-12)


def test_laplace_leading_matches_quadrature_k2():
    x = (0.1, 0.8)
    ratios = []
    for t in (0.2, 0.1, 0.05):
        ratios.append(integral_quadrature_k2(*x, t) / laplace_leading(x, t))
    # the two-point integral is exactly its leading term: constant ratio 1
    assert abs(ratios[0] - ratios[1]) < 1e-10
    assert abs(ratios[1] - ratios[2]) < 1e-10
    assert ratios[0] == pytest.approx(1.0, rel=1e-9)


def test_laplace_leading_matches_exact_shape_k4():
    # the exact shape carries the normal-space volume factor t**(k(k-2)/4)
    x = (0.3, 0.9, 1.6, 2.4)
    vals = []
    for t in (0.1, 0.05, 0.025):
        vals.append(exact_shape(x, t) / (laplace_leading(x, t) * t * t))
    assert vals[0] == pytest.approx(vals[1], rel=1e-4)
    assert vals[1] == pytest.approx(vals[2], rel=1e-8)


def test_consecutive_matching_dominates_at_small_t():
    x = np.array([0.3, 0.9, 1.6, 2.4])
    t = 0.05
    terms = {}
    for m in enumerate_matchings(4):
        gaps = [x[j - 1] - x[i - 1] for i, j in m.pairs]
        weight = np.prod(gaps) * np.exp(
            (2.0 * critical_value(m, x) / 2.0 - np.sum(x * x)) / t
        )
        terms[m.pairs] = abs(weight)
    top = terms.pop(((1, 2), (3, 4)))
    assert top > 1e6 * sum(terms.values())


def test_argmax_tie_check():
    assert _argmax_with_tie_check([1.0, 3.0, 2.0]) == 1
    with pytest.raises(ValueError):
        _argmax_with_tie_check([1.0, 3.0, 3.0])


def test_input_validation():
    with pytest.raises(ValueError):
        critical_value(M0, (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        find_max_matching((2.0, 1.0, 3.0, 4.0))
    with pytest.raises(ValueError):
        matchings_phase_sum((1.0, 2.0), 0.0)

import hashlib
import math
import re
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import erfc

from ginlab import group_integrals
from ginlab._rng import stream, streams
from ginlab.errors import UsageError
from ginlab.group_integrals import charpoly_moment_quadrature, integral_mc_grid, vandermonde
from ginlab.kernel import expected_real_count, lemma1_rhs, moment_numerator, signed_density, spin_correlation
from ginlab.linalg import Spectrum, real_schur
from ginlab.sampler import (
    DUALITY_HALFWIDTH,
    ENTRY_VARIANCE,
    DegenerateShiftError,
    GinOESample,
    _bin_weights,
    _draw,
    _draw_streams,
    _fill_draws,
    _shifted_slogdets,
    _spin_table,
    _spins,
    duality_check,
    estimate_charpoly_moment,
    estimate_real_count,
    estimate_signed_density,
    estimate_spin_moments,
    sample_ginoe,
    spin,
)


def fixed_sample(matrix) -> GinOESample:
    m = np.asarray(matrix, dtype=float)
    return GinOESample(matrix=m, spectrum=real_schur(m))


def test_entry_variance():
    rng = stream(1, 0)
    entries = rng.normal(scale=np.sqrt(ENTRY_VARIANCE), size=10**6)
    var = entries.var(ddof=1)
    stderr = var * np.sqrt(2.0 / (len(entries) - 1))
    assert abs(var - 0.5) < 3 * stderr


def test_trace_moment_at_n8():
    n, samples = 8, 2000
    vals = np.empty(samples)
    for i in range(samples):
        s = sample_ginoe(n, stream(2, i))
        vals[i] = np.sum(s.matrix * s.matrix)
    stderr = vals.std(ddof=1) / np.sqrt(samples)
    assert abs(vals.mean() - n * n / 2.0) < 3 * stderr


def test_spin_constructed_matrices():
    s = fixed_sample(np.diag([1.0, -1.0]))
    assert spin(s, 0.0) == -1
    assert spin(s, 2.0) == 1
    rot = fixed_sample([[0.0, 1.0], [-1.0, 0.0]])
    for x in (-3.0, 0.0, 1.7):
        assert spin(rot, x) == 1  # no real eigenvalues anywhere


def test_spin_degenerate_shift():
    s = fixed_sample(np.diag([1.0, -1.0]))
    with pytest.raises(DegenerateShiftError):
        spin(s, 1.0)


def test_spin_parity_agrees_with_determinant_sign():
    # the cross-check inside spin() raises on any disagreement
    count = 0
    for i in range(2500):
        s = sample_ginoe(6, stream(3, i))
        for x in stream(4, i).normal(size=4):
            spin(s, float(x), check=True)
            count += 1
    assert count == 10000


def test_spin_flips_exactly_at_real_eigenvalues():
    for i in range(50):
        s = sample_ginoe(9, stream(5, i))
        reals = s.spectrum.real_eigenvalues
        grid = np.sort(np.concatenate([reals - 1e-9, reals + 1e-9, [-50.0, 50.0]]))
        vals = [spin(s, float(x), check=False) for x in grid]
        flips = sum(1 for a, b in zip(vals, vals[1:]) if a != b)
        assert flips == len(reals)
        assert vals[0] == 1


def test_sample_validates_spectrum():
    m = np.diag([1.0, 2.0])
    good = real_schur(m)
    with pytest.raises(ValueError):
        GinOESample(matrix=m + 1.0, spectrum=good)


def test_spin_check_catches_a_forged_spectrum():
    # the pair 0 +- i keeps the trace of diag(1, -1), so the sample is
    # accepted, but no real eigenvalue lies below 0.5 while det(M - 0.5) < 0
    forged = Spectrum(real_eigenvalues=np.empty(0), complex_pairs=np.array([[0.0, 1.0]]))
    sample = GinOESample(matrix=np.diag([1.0, -1.0]), spectrum=forged)
    assert spin(sample, 0.5, check=False) == 1
    with pytest.raises(RuntimeError, match="spin mismatch"):
        spin(sample, 0.5)


def test_estimate_spin_moment_coincident_pair():
    est = estimate_spin_moments(12, [(0.4, 0.4)], 150, seed=6)[0]
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_estimate_spin_moment_matches_closed_form():
    est = estimate_spin_moments(100, [(0.0, 0.5)], 800, seed=7)[0]
    assert abs(est.mean - erfc(0.5)) < 3 * est.stderr


def test_estimate_spin_moment_large_separation():
    # erfc(4) ~ 1.5e-8 is indistinguishable from 0 at this sample size
    est = estimate_spin_moments(60, [(0.0, 4.0)], 400, seed=77)[0]
    assert abs(est.mean - erfc(4.0)) < 3 * est.stderr


def test_estimate_spin_moment_reproducible():
    a = estimate_spin_moments(20, [(0.0, 0.7)], 200, seed=8)[0]
    b = estimate_spin_moments(20, [(0.0, 0.7)], 200, seed=8)[0]
    assert a == b
    c = estimate_spin_moments(20, [(0.0, 0.7)], 200, seed=9)[0]
    assert c.mean != a.mean


def test_seed_split_consistency():
    a = estimate_spin_moments(40, [(0.0, 0.5)], 600, seed=10)[0]
    b = estimate_spin_moments(40, [(0.0, 0.5)], 600, seed=11)[0]
    assert abs(a.mean - b.mean) < 3 * np.hypot(a.stderr, b.stderr)


def test_estimate_spin_moment_validation():
    with pytest.raises(ValueError):
        estimate_spin_moments(10, [(0.0, 0.5, 1.0)], 200, seed=1)[0]
    with pytest.raises(ValueError):
        estimate_spin_moments(10, [(0.0, 0.5)], 50, seed=1)[0]


def test_scaling_convention_protocol():
    """Select the dilation relating matrix positions to the closed forms.

    Candidate dilations c map a nominal separation d to matrix separation
    c*d; the closed form predicts erfc(d).  Under the exp(-Tr M M^T)
    normalization the identity dilation must win at every size and the
    alternatives must be rejected decisively at the larger sizes.
    """
    d = 0.5
    candidates = {1.0: [], np.sqrt(2.0): [], 1.0 / np.sqrt(2.0): []}
    plans = [(50, 1200, 12), (100, 1200, 13), (200, 400, 14)]
    for n, samples, seed in plans:
        cfgs = [(0.0, c * d) for c in candidates]
        ests = estimate_spin_moments(n, cfgs, samples, seed)
        for (c, hist), est in zip(candidates.items(), ests):
            hist.append(abs(est.mean - erfc(d)) / est.stderr)
    assert all(z < 3.0 for z in candidates[1.0])
    for wrong in (np.sqrt(2.0), 1.0 / np.sqrt(2.0)):
        assert candidates[wrong][0] > 4.0 or candidates[wrong][1] > 4.0
        assert candidates[wrong][1] > 4.0


def test_signed_density_cells_symmetric_and_oriented():
    edges = np.array([-0.6, -0.2, 0.2, 0.6])
    plain = estimate_signed_density(30, edges, 2, 400, seed=15)
    m = len(plain.intervals)
    for i in range(m):
        assert np.isnan(plain.values[i, i])
        for j in range(m):
            if i != j:
                assert plain.values[i, j] == plain.values[j, i]
    oriented = estimate_signed_density(30, edges, 2, 400, seed=15, oriented=True)
    for i in range(m):
        for j in range(m):
            if i != j:
                assert oriented.values[i, j] == -oriented.values[j, i]
                if i < j:
                    assert oriented.values[i, j] == plain.values[i, j]


def test_signed_density_matches_closed_form():
    bins = np.array([[-0.55, -0.15], [0.15, 0.55]])
    dens = estimate_signed_density(100, bins, 2, 2000, seed=16)
    est = dens.values[0, 1]
    se = dens.stderr[0, 1]
    centers = bins.mean(axis=1)
    # the estimator measures Pf[rho_2], 2**(-k/2) times signed_density
    closed = 2.0 ** (-2 / 2) * signed_density(tuple(centers))
    assert abs(est - closed) < 3 * se
    assert est < 0  # ordered nearby pairs anticorrelate


def test_signed_density_rejects_overlap_and_odd_k():
    with pytest.raises(ValueError):
        estimate_signed_density(10, [[0.0, 0.5], [0.4, 0.9]], 2, 100, seed=1)
    with pytest.raises(ValueError):
        estimate_signed_density(10, [-1.0, 0.0, 1.0], 3, 100, seed=1)


def test_signed_density_weight_convention():
    # sorted real eigenvalues carry weights (-1)**rank: the lowest gets +1
    par = np.where(np.arange(4) % 2, -1.0, 1.0)
    assert par[0] == 1.0 and par[1] == -1.0
    # a constructed two-eigenvalue matrix: pair weight is -1
    s = fixed_sample(np.diag([-1.0, 0.5]))
    reals = s.spectrum.real_eigenvalues
    w = np.where(np.arange(len(reals)) % 2, -1.0, 1.0)
    assert w.prod() == -1.0


def test_charpoly_moment_n1():
    x = 0.8
    est = estimate_charpoly_moment(1, (x,), 4000, seed=17)
    assert abs(est.mean - (-x)) < 3 * est.stderr


def test_charpoly_moment_vs_quadrature_n2():
    est = estimate_charpoly_moment(2, (-0.3, 0.4), 4000, seed=18)
    oracle = charpoly_moment_quadrature(2, -0.3, 0.4)
    assert abs(est.mean - oracle) < 3 * est.stderr


@pytest.mark.parametrize("n", [4, 8])
def test_charpoly_moment_vs_quadrature(n):
    est = estimate_charpoly_moment(n, (-0.4, 0.4), 3000, seed=19 + n)
    oracle = charpoly_moment_quadrature(n, -0.4, 0.4)
    assert abs(est.mean - oracle) < 3 * est.stderr


def test_charpoly_moment_seed_split():
    a = estimate_charpoly_moment(4, (0.0, 0.0), 2000, seed=20)
    b = estimate_charpoly_moment(4, (0.0, 0.0), 2000, seed=21)
    assert abs(a.mean - b.mean) < 3 * np.hypot(a.stderr, b.stderr)
    assert a.mean > 0  # even moment of a determinant


def test_charpoly_moment_overflow():
    with pytest.raises(OverflowError):
        estimate_charpoly_moment(30, tuple([0.0] * 40), 2, seed=22)
    est = estimate_charpoly_moment(30, tuple([0.0] * 40), 50, seed=22, log_domain=True)
    assert np.isfinite(est.mean)


def test_real_count_grows_like_sqrt_n():
    small = estimate_real_count(25, 1200, seed=23)
    large = estimate_real_count(100, 700, seed=24)
    ratio = large.mean / small.mean
    # sqrt-growth trend; the O(1) term in the expected count keeps the
    # measured ratio a little under 2 at these sizes
    assert 1.8 < ratio < 2.2


def test_expected_real_count_closed_form():
    # the Edelman-Kostlan-Shub sums: for even n, sqrt(2) * sum_{k < n/2} (4k-1)!!/(4k)!!;
    # for odd n, 1 + sqrt(2) * sum_{1 <= k <= (n-1)/2} (4k-3)!!/(4k-2)!!
    def ratio(odd_top):
        # (odd_top)!! / (odd_top + 1)!!, with (-1)!! = 0!! = 1
        out = 1.0
        for m in range(odd_top, 0, -2):
            out *= m / (m + 1)
        return out

    def by_sum(n):
        if n % 2 == 0:
            return math.sqrt(2.0) * sum(ratio(4 * k - 1) for k in range(n // 2))
        return 1.0 + math.sqrt(2.0) * sum(ratio(4 * k - 3) for k in range(1, (n - 1) // 2 + 1))

    assert expected_real_count(1) == pytest.approx(1.0, rel=1e-15)
    assert expected_real_count(2) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert expected_real_count(3) == pytest.approx(1.0 + 1.0 / math.sqrt(2.0), rel=1e-15)
    for n in (4, 7, 10, 25, 100, 401):
        assert expected_real_count(n) == pytest.approx(by_sum(n), rel=1e-11), n
    assert expected_real_count(10_000) / math.sqrt(2.0 * 10_000 / math.pi) == pytest.approx(1.0, abs=0.01)
    with pytest.raises(UsageError):
        expected_real_count(0)


def test_duality_ratio_is_configuration_independent():
    reports = [
        duality_check(10, cfg, 25000, seed=31 + i)
        for i, cfg in enumerate([(-0.4, 0.4), (-0.2, 0.6)])
    ]
    for r in reports:
        assert r.rhs > 0 and r.lhs < 0  # ordered pairs anticorrelate; formula is positive
        assert r.ratio_stderr > 0
    z = abs(reports[0].ratio - reports[1].ratio) / np.hypot(
        reports[0].ratio_stderr, reports[1].ratio_stderr
    )
    assert z < 3.0


def test_duality_check_computes_the_exact_moment_before_drawing(monkeypatch):
    class Sentinel(Exception):
        pass

    def refuse(*args):
        raise AssertionError("drew before computing the exact moment")

    def sentinel(*args):
        raise Sentinel

    monkeypatch.setattr("ginlab.sampler.streams", refuse)
    monkeypatch.setattr("ginlab.sampler.lemma1_rhs", sentinel)
    with pytest.raises(Sentinel):
        duality_check(10, (-0.4, 0.4), 4000, 1)


DUALITY_CONFIGS = [(-0.4, 0.4), (-0.2, 0.6), (0.1, 0.8), (0.9, 1.7), (-1.3, 2.2)]


@pytest.mark.parametrize("n", [3, 4, 6, 10, 16, 40, 100, 200])
def test_duality_rhs_is_within_4_ulp_of_mpmath(monkeypatch, n):
    # a stub density stands in for the draws; at n = 200 the unnormalized
    # moment E_{n-2} is beyond the double range, and the RHS is not
    stub = SimpleNamespace(values=np.full((2, 2), -0.2), stderr=np.full((2, 2), 0.01))
    monkeypatch.setattr("ginlab.sampler.estimate_signed_density", lambda *args: stub)
    with mpmath.workprec(200):
        for x1, x2 in DUALITY_CONFIGS:
            rhs = duality_check(n, (x1, x2), 4000, 1).rhs
            a, b = mpmath.mpf(x1), mpmath.mpf(x2)
            e = mpmath.fsum((2 * a * b) ** j / mpmath.factorial(j) for j in range(n - 1))
            exact = mpmath.sqrt(mpmath.pi) / 4 * (b - a) * mpmath.exp(-a * a - b * b) * e
            assert math.isfinite(rhs), (x1, x2)
            assert abs(mpmath.mpf(rhs) - exact) <= 4 * math.ulp(rhs), (x1, x2)


@pytest.mark.parametrize("n", [3, 10, 40, 200])
def test_duality_rhs_helper_is_the_inline_expression_bit_for_bit(monkeypatch, n):
    # duality_check's RHS, once computed inline at its sorted points, and the
    # helper that lemma1 also averages over the bins: the same bits
    stub = SimpleNamespace(values=np.full((2, 2), -0.2), stderr=np.full((2, 2), 0.01))
    monkeypatch.setattr("ginlab.sampler.estimate_signed_density", lambda *args: stub)
    rng = np.random.default_rng(n)
    for x1, x2 in DUALITY_CONFIGS + [tuple(rng.uniform(-2.0, 2.0, 2)) for _ in range(40)]:
        if abs(x2 - x1) < 2 * DUALITY_HALFWIDTH:
            continue
        pts = np.sort(np.array([x1, x2]))
        m = n - 2
        total, b = moment_numerator(m, pts[0], pts[1])
        e_m = total / (math.factorial(m) * b**m)
        inline = float(np.sqrt(np.pi) / 4.0 * (pts[1] - pts[0]) * np.exp(-pts[0] ** 2 - pts[1] ** 2) * e_m)
        assert lemma1_rhs(n, pts[0], pts[1]).hex() == inline.hex(), (x1, x2)
        assert duality_check(n, (x1, x2), 4000, 1).rhs.hex() == inline.hex(), (x1, x2)


def test_duality_sum_is_the_exponential_partial_sum():
    # e_m(2 x1 x2) = E_m 2^m / m! in exact rationals at the double x1*x2,
    # against the integer sum the exact moment shares
    for m in range(1, 41):
        for x1, x2 in DUALITY_CONFIGS:
            p = Fraction(x1 * x2)
            e_m = sum((2 * p) ** j / math.factorial(j) for j in range(m + 1))
            total, b = moment_numerator(m, x1, x2)
            assert Fraction(total, math.factorial(m) * b**m) == e_m, (m, x1, x2)
            moment = e_m * math.factorial(m) / 2**m
            assert charpoly_moment_quadrature(m, x1, x2) == float(moment), (m, x1, x2)


def _moment_numerator_sum(m, x1, x2):
    """The numerator term by term, as sum_k perm(m, k) a^(m-k) b^k 2^(m-k)."""
    a, b = float(x1 * x2).as_integer_ratio()
    return sum(math.perm(m, k) * a ** (m - k) * b**k * 2 ** (m - k) for k in range(m + 1)), b


def test_moment_numerator_is_the_term_by_term_sum():
    # the nested evaluation gives the same integers, out to n = 400
    rng = np.random.default_rng(7)
    points = DUALITY_CONFIGS + [(1e-300, 1e-20), (-2.5, 0.0)]
    for m in [*range(12), 38, 198, 398]:
        for x1, x2 in points + [tuple(rng.uniform(-3.0, 3.0, 2))]:
            assert moment_numerator(m, x1, x2) == _moment_numerator_sum(m, x1, x2), (m, x1, x2)


def test_duality_insufficient_samples():
    with pytest.raises(RuntimeError, match="samples"):
        duality_check(10, (-0.4, 0.4), 300, seed=34)


def test_duality_formula_antisymmetry():
    # the formula side flips sign with the Vandermonde when points swap
    assert vandermonde((0.6, -0.2)) == -vandermonde((-0.2, 0.6))
    assert charpoly_moment_quadrature(4, -0.2, 0.6) == pytest.approx(
        charpoly_moment_quadrature(4, 0.6, -0.2), rel=1e-12
    )


def test_too_few_samples_rejected_before_drawing():
    with pytest.raises(UsageError, match="at least 2 samples"):
        estimate_real_count(10, 1, seed=1)
    with pytest.raises(UsageError, match="at least 2 samples"):
        estimate_signed_density(10, [-1.0, 0.0, 1.0], 2, 0, seed=1)
    with pytest.raises(UsageError, match="at least 2 samples"):
        integral_mc_grid([(-0.5, 0.7)], [1.0], 1, seed=1)
    with pytest.raises(UsageError, match="at least 100 samples"):
        estimate_spin_moments(10, [(0.0, 0.5)], 99, seed=1)


@given(
    reals=st.lists(st.floats(-5.0, 5.0), unique=True, max_size=12).map(sorted),
    edges=st.lists(st.floats(-6.0, 6.0), unique=True, min_size=2, max_size=8).map(sorted),
)
def test_bin_weight_is_spin_difference(reals, edges):
    # disjoint bins [e0, e1), [e2, e3), ...: alternate gaps between the edges
    reals = np.array(reals)
    for lo, hi in zip(edges[::2], edges[1::2]):
        weight = (_spins(reals, lo) - _spins(reals, hi)) / 2.0
        direct = sum((-1) ** int(np.sum(reals < lam)) for lam in reals if lo <= lam < hi)
        assert weight == direct


@given(
    n=st.integers(1, 12),
    points=st.lists(st.floats(-5.0, 5.0), unique=True, min_size=1, max_size=6).map(sorted),
    seed=st.integers(0, 2**64 - 1),
)
def test_determinant_sign_spins_match_eigenvalue_spins(n, points, seed):
    points = np.array(points)
    table = _spin_table(n, points, 3, seed)
    for i, row in enumerate(table):
        m = _draw(n, stream(seed, i))
        assert np.array_equal(row, _spins(real_schur(m).real_eigenvalues, points))


@pytest.mark.parametrize("seed", [0, -1, 2**63, 2**64 + 5])
def test_draw_loop_reproduces_per_draw_streams(seed):
    for n in (1, 7):
        for i, rng in enumerate(_draw_streams(n, 40, seed)):
            assert np.array_equal(_draw(n, rng), _draw(n, stream(seed, i)))
    # an odd count of 32-bit words leaves one buffered; the re-key must drop it
    for i, rng in enumerate(streams(seed, 5)):
        got = rng.integers(0, 2**32, size=3)
        assert np.array_equal(got, stream(seed, i).integers(0, 2**32, size=3))


@pytest.mark.parametrize("typed, seed", [(np.int64, 5), (np.int64, -3), (np.uint64, 5), (np.uint64, 2**63)])
def test_numpy_integer_seeds_key_as_the_equal_python_int(typed, seed):
    for i, rng in enumerate(streams(typed(seed), 3)):
        assert np.array_equal(rng.normal(size=4), stream(seed, i).normal(size=4))
    assert np.array_equal(stream(typed(seed), typed(2)).normal(size=4), stream(seed, 2).normal(size=4))
    got = estimate_signed_density(6, [-1.0, 0.0, 1.0], 2, 50, typed(seed))
    want = estimate_signed_density(6, [-1.0, 0.0, 1.0], 2, 50, seed)
    assert got.weighted_counts.tobytes() == want.weighted_counts.tobytes()


def test_a_float_seed_or_index_is_a_type_error():
    with pytest.raises(TypeError):
        stream(5.0, 0)
    with pytest.raises(TypeError):
        stream(5, 0.0)
    with pytest.raises(TypeError):
        next(streams(5.0, 3))


def _reference_draw(n, rng):
    return rng.normal(scale=np.sqrt(ENTRY_VARIANCE), size=(n, n))


@pytest.mark.parametrize("seed", [0, 1, 2, 2**63])
def test_draw_is_bit_for_bit_normal(seed):
    for n in (1, 2, 7, 10, 100):
        for i in range(5):
            want = _reference_draw(n, stream(seed, i))
            assert np.array_equal(_draw(n, stream(seed, i)), want)
            assert np.array_equal(sample_ginoe(n, stream(seed, i)).matrix, want)
        # rows of a strided view fill as contiguous rows do
        out = np.empty((5, 2, n * n))
        assert _fill_draws(out[:, 0], streams(seed, 5)).base is out
        for i in range(5):
            assert np.array_equal(out[i, 0], _reference_draw(n, stream(seed, i)).reshape(-1))


def test_draw_turns_negative_zero_positive_as_normal_does():
    class Zeros:
        def standard_normal(self, out):
            out[...] = -0.0
            return out

    assert not np.signbit(_fill_draws(np.empty((2, 9)), [Zeros(), Zeros()])).any()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shifted_stack_is_bit_for_bit_the_reference_draws(seed):
    points = np.array([-0.7, 0.0, 0.3, 1.1])
    for n, samples in ((10, 60), (100, 3)):
        got = list(_shifted_slogdets(n, points, samples, seed))
        sign = np.concatenate([s for s, _ in got])
        logabs = np.concatenate([la for _, la in got])
        eye = np.eye(n)
        stack = np.array(
            [[_reference_draw(n, stream(seed, i)) - x * eye for x in points] for i in range(samples)]
        )
        want_sign, want_logabs = np.linalg.slogdet(stack)
        assert np.array_equal(sign, want_sign)
        assert np.array_equal(logabs, want_logabs)


def test_streams_held_together_are_independent():
    a, b = stream(12, 0), stream(12, 1)
    assert a is not b and a.bit_generator is not b.bit_generator
    first = a.normal(size=5)
    b.normal(size=5)
    second = a.normal(size=5)
    fresh = stream(12, 0).normal(size=10)
    assert np.array_equal(np.concatenate([first, second]), fresh)


def test_spin_table_raises_on_a_zero_determinant_sign():
    seed = 41
    a = _draw(1, stream(seed, 0))[0, 0]  # draw 0 is the 1 x 1 matrix [a]
    with pytest.raises(DegenerateShiftError):
        estimate_spin_moments(1, [(a, a + 1.0)], 100, seed)


def _full_table_weights(n, intervals, k, samples, seed):
    """Every draw's bin weights from its spins at every edge, pruning nothing."""
    edges = np.unique(intervals)
    spins = _spin_table(n, edges, samples, seed)
    lo, hi = np.searchsorted(edges, intervals).T
    return (spins[:, lo] - spins[:, hi]) / 2.0


def _duality_bins(x1, x2):
    h = DUALITY_HALFWIDTH
    return [[x1 - h, x1 + h], [x2 - h, x2 + h]]


#: lemma1's default points
LEMMA1_POINTS = [(-0.4, 0.4), (-0.2, 0.6), (0.1, 0.8)]
#: GOLDEN's four bins, with one gap
GOLDEN_BINS = [[-4.0, -1.5], [-1.5, -0.1], [0.1, 1.5], [1.5, 4.0]]
#: (n, bins, k, samples, oriented): lemma1's bins, mc-density's default bins
#: and GOLDEN's bins
DENSITY_CASES = [
    *[pytest.param(10, _duality_bins(*p), 2, 8000, False, id=f"lemma1{p}") for p in LEMMA1_POINTS],
    pytest.param(10, np.linspace(-0.75, 0.75, 5), 2, 4000, False, id="mc-density"),
    *[
        pytest.param(30, GOLDEN_BINS, k, 100, o, id=f"golden-k{k}-{o}")
        for k in (2, 4)
        for o in (False, True)
    ],
]


@pytest.mark.parametrize("seed", [0, 4, 2**63])
@pytest.mark.parametrize("n, bins, k, samples, oriented", DENSITY_CASES)
def test_pruned_signed_density_is_the_full_table_bit_for_bit(
    monkeypatch, n, bins, k, samples, oriented, seed
):
    got = estimate_signed_density(n, bins, k, samples, seed, oriented=oriented)
    monkeypatch.setattr("ginlab.sampler._bin_weights", _full_table_weights)
    want = estimate_signed_density(n, bins, k, samples, seed, oriented=oriented)
    for field in ("weighted_counts", "normalization", "stderr", "values"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


def test_signed_density_factors_the_second_bin_only_for_draws_in_the_first(monkeypatch):
    n, samples, seed = 10, 8000, 1
    bins = _duality_bins(-0.4, 0.4)
    first = _spin_table(n, np.array(bins[0]), samples, seed)
    reached = int(np.count_nonzero(first[:, 0] != first[:, 1]))
    factored = []
    slogdet = np.linalg.slogdet

    def counting(a):
        factored.append(int(np.prod(a.shape[:-2])))
        return slogdet(a)

    monkeypatch.setattr(np.linalg, "slogdet", counting)
    estimate_signed_density(n, bins, 2, samples, seed)
    assert sum(factored) == 2 * samples + 2 * reached
    assert sum(factored) < 4 * samples


def test_signed_density_raises_on_a_zero_sign_at_a_first_bin_edge():
    seed, samples = 41, 9000
    # draw 8500, past the first block, is the 1 x 1 matrix [a]; the
    # estimator refuses n < k before drawing, so 1 x 1 draws reach only its weights
    a = _draw(1, stream(seed, 8500))[0, 0]
    why = f"det(M - {float(a)!r} I) is zero for draw 8500 of seed 41"
    with pytest.raises(DegenerateShiftError, match=re.escape(why)):
        _bin_weights(1, np.array([[a - 1.0, a], [a + 1.0, a + 2.0]]), 2, samples, seed)


@pytest.mark.parametrize("edge, reached, raises", [(0, True, True), (2, True, True), (2, False, False)])
def test_signed_density_raises_on_a_zero_sign_only_where_it_factors(monkeypatch, edge, reached, raises):
    # edge 0 is factored for every draw; edge 2 only for draws with weight in the first bin
    n, samples, seed = 10, 8000, 1
    bins = _duality_bins(-0.4, 0.4)
    first = _spin_table(n, np.array(bins[0]), samples, seed)
    draw = int(np.flatnonzero((first[:, 0] != first[:, 1]) == reached)[300])
    x = np.unique(bins)[edge]
    target = _reference_draw(n, stream(seed, draw)) - x * np.eye(n)
    slogdet = np.linalg.slogdet

    def zeroing(a):
        sign, logabs = slogdet(a)
        return np.where((a == target).all(axis=(-2, -1)), 0.0, sign), logabs

    monkeypatch.setattr(np.linalg, "slogdet", zeroing)
    if raises:
        why = f"det(M - {float(x)!r} I) is zero for draw {draw} of seed 1"
        with pytest.raises(DegenerateShiftError, match=re.escape(why)):
            estimate_signed_density(n, bins, 2, samples, seed)
    else:
        estimate_signed_density(n, bins, 2, samples, seed)


def _digest(a):
    a = np.where(np.isnan(a), np.nan, a)
    return hashlib.sha256(a.astype("<f8").tobytes()).hexdigest()[:16]


def _hex(est):
    return (est.mean.hex(), est.stderr.hex())


#: float.hex of seeded estimates (sha256 prefixes of the float64 bytes for
#: the density arrays: weighted_counts, normalization, stderr, values),
#: recorded with the per-draw eigenvalue-binning estimators.
GOLDEN = {
    "spin_moments": [
        ("0x1.eeeeeeeeeeeefp-2", "0x1.48b566d508459p-4"),
        ("0x1.bbbbbbbbbbbbcp-3", "0x1.6e8f780ae3e9cp-4"),
        ("0x1.0000000000000p+0", "0x0.0p+0"),
    ],
    "density_k2_False": ("3759e739273d3686", "c2d61dad603acc11", "09b2d95da5b42d1f", "e45d84db7955572d"),
    "density_k2_True": ("449f4d676206d007", "c2d61dad603acc11", "09b2d95da5b42d1f", "baefe1ed5d8a79ee"),
    "density_k4_False": ("de811a180813cb31", "40de85c90f06a61e", "ca875849bc6fd1d7", "d22bc348bad807df"),
    "density_k4_True": ("65b9e382b23de627", "40de85c90f06a61e", "ca875849bc6fd1d7", "29471161aa536b7c"),
    "real_count": ("0x1.7333333333333p+1", "0x1.82a371ea89cb5p-3"),
    "charpoly": ("-0x1.b8eda736d6b1dp+1", "0x1.c8b2d628434d6p+1"),
    "charpoly_log": ("-0x1.77db932b090bep+0", "0x1.1a9ce75c4d513p-1"),
    "mc_grid": [
        [("0x1.0914706ed9d5bp-4", "0x1.b17cabf56b2d1p-9"), ("0x1.b89ce14e0b9b5p-3", "0x1.63e55e6aab121p-8")],
        [("0x1.193638560f1b8p-2", "0x1.751d19e529194p-8"), ("0x1.fa7fb2fb87ae8p-2", "0x1.5ab1833f8fba2p-8")],
    ],
}


def test_seeded_estimates_are_bit_identical(monkeypatch):
    got = {}
    spin_cfgs = [(0.0, 0.5), (-0.3, 0.1, 0.4, 0.9), (0.4, 0.4)]
    got["spin_moments"] = [_hex(e) for e in estimate_spin_moments(8, spin_cfgs, 120, 3)]
    # one gap, between -0.1 and 0.1; the other bins share edges
    bins = [[-4.0, -1.5], [-1.5, -0.1], [0.1, 1.5], [1.5, 4.0]]
    for k in (2, 4):
        for oriented in (False, True):
            d = estimate_signed_density(30, bins, k, 100, 4, oriented=oriented)
            got[f"density_k{k}_{oriented}"] = tuple(
                _digest(a) for a in (d.weighted_counts, d.normalization, d.stderr, d.values)
            )
    got["real_count"] = _hex(estimate_real_count(7, 40, 5))
    got["charpoly"] = _hex(estimate_charpoly_moment(5, (-0.3, 0.2, 0.6), 40, 6))
    got["charpoly_log"] = _hex(
        estimate_charpoly_moment(5, (-0.3, 0.2, 0.6), 40, 6, log_domain=True)
    )
    monkeypatch.setattr(group_integrals, "HAAR_BLOCK", 128)
    grid = integral_mc_grid([(-0.9, -0.3, 0.3, 0.9), (-0.6, -0.2, 0.2, 0.6)], [0.8, 1.5], 300, 9)
    got["mc_grid"] = [[_hex(e) for e in row] for row in grid]
    assert got == GOLDEN

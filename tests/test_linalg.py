import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from ginlab._rng import stream
from ginlab.linalg import SIGN_DET_TOL, SchurConvergenceError, real_schur, sign_det
from ginlab.sampler import _draw, _spins


def schur_real_count(m) -> int:
    """The reference route: the 1x1 diagonal blocks of scipy's real Schur form.

    Each standardized 2x2 block has exactly one nonzero subdiagonal entry.
    """
    t, _ = sla.schur(m, output="real")
    return len(t) - 2 * np.count_nonzero(np.diag(t, -1))


def lu_sign_det(m, tol: float = SIGN_DET_TOL) -> int:
    """The reference route: sign of det(m) by scipy's pivoted LU, 0 below a
    pivot of ``tol * max|entry|`` (``sign_det`` before it moved to numpy's QR)."""
    m = np.asarray(m, dtype=float)
    scale = np.max(np.abs(m))
    if scale == 0.0:
        return 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on exactly singular input
        lu, piv = sla.lu_factor(m, check_finite=False)
    pivots = np.diag(lu)
    if np.min(np.abs(pivots)) < tol * scale:
        return 0
    swaps = int(np.count_nonzero(piv != np.arange(len(piv))))
    sign = -1 if swaps % 2 else 1
    neg = int(np.count_nonzero(pivots < 0))
    return sign * (-1 if neg % 2 else 1)


def rank_deficient_products(seed: int = 2024, per_size: int = 2500):
    """Seeded products of Gaussian n x (n - 1) and (n - 1) x n factors, n = 3..10: rank n - 1."""
    rng = np.random.default_rng(seed)
    for n in range(3, 11):
        for _ in range(per_size):
            yield rng.normal(size=(n, n - 1)) @ rng.normal(size=(n - 1, n))


def test_real_schur_diagonal():
    spec = real_schur(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(spec.real_eigenvalues, [1.0, 2.0, 3.0])
    assert len(spec.complex_pairs) == 0


def test_real_schur_rotation():
    spec = real_schur(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert len(spec.real_eigenvalues) == 0
    assert spec.complex_pairs.shape == (1, 2)
    a, b = spec.complex_pairs[0]
    assert abs(a) < 1e-14 and abs(b - 1.0) < 1e-14


def test_real_schur_charpoly_residual():
    # each returned eigenvalue must nearly annihilate det(M - lambda I)
    rng = np.random.default_rng(101)
    for _ in range(20):
        m = rng.normal(size=(8, 8))
        spec = real_schur(m)
        bound = 1e-8 * (1.0 + np.linalg.norm(m)) ** 7
        for lam in spec.real_eigenvalues:
            assert abs(np.linalg.det(m - lam * np.eye(8))) < bound
        for a, b in spec.complex_pairs:
            lam = a + 1j * b
            assert abs(np.linalg.det(m - lam * np.eye(8, dtype=complex))) < bound


def test_real_schur_trace_identity():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 8, 12):
        for _ in range(30):
            m = rng.normal(size=(n, n))
            spec = real_schur(m)
            assert spec.n == n
            tr = np.trace(m)
            assert abs(spec.eigenvalue_sum() - tr) < 1e-8 * max(1.0, abs(tr))
            assert np.all(spec.complex_pairs[:, 1] > 0)
            assert np.all(np.diff(spec.real_eigenvalues) >= 0)


@pytest.mark.parametrize("seed", [0, 41, 2**63])
def test_real_count_matches_schur_blocks_draw_by_draw(seed):
    for n in range(1, 13):
        for i in range(40):
            m = _draw(n, stream(seed, i))
            assert len(real_schur(m).real_eigenvalues) == schur_real_count(m), (n, i)


def test_real_count_matches_schur_blocks_at_n100():
    for i in range(50):
        m = _draw(100, stream(100, i))
        assert len(real_schur(m).real_eigenvalues) == schur_real_count(m), i


def test_real_schur_hand_built_cases():
    # non-normal, with two real eigenvalues 1 +- sqrt(0.5)
    spec = real_schur(np.array([[1.0, 5.0], [0.1, 1.0]]))
    assert np.allclose(spec.real_eigenvalues, [1.0 - np.sqrt(0.5), 1.0 + np.sqrt(0.5)])
    assert spec.complex_pairs.shape == (0, 2)
    # a Jordan block: one eigenvalue, three times
    spec = real_schur(np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]]))
    assert np.array_equal(spec.real_eigenvalues, [2.0, 2.0, 2.0])
    assert len(spec.complex_pairs) == 0
    # a block-diagonal mix of real eigenvalues and rotation-like blocks
    m = sla.block_diag(3.0, [[0.0, -2.0], [2.0, 0.0]], -1.0, [[1.0, 4.0], [-1.0, 1.0]])
    spec = real_schur(m)
    assert np.allclose(spec.real_eigenvalues, [-1.0, 3.0])
    pairs = spec.complex_pairs[np.argsort(spec.complex_pairs[:, 0])]
    assert np.allclose(pairs, [[0.0, 2.0], [1.0, 2.0]])


def test_real_schur_badly_scaled_matrices():
    # the balanced eigenvalue routine resolves what an unbalanced Schur
    # form reports as a double real 0
    spec = real_schur(np.array([[0.0, 1.0], [-1e-300, 0.0]]))
    assert len(spec.real_eigenvalues) == 0
    assert np.allclose(spec.complex_pairs, [[0.0, 1e-150]], rtol=1e-12, atol=0.0)
    spec = real_schur(np.array([[0.0, 1.0], [1e-300, 0.0]]))
    assert np.allclose(spec.real_eigenvalues, [-1e-150, 1e-150], rtol=1e-12, atol=0.0)
    assert len(spec.complex_pairs) == 0


def test_real_schur_non_convergence_is_a_runtime_error(monkeypatch):
    def no_convergence(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
    with pytest.raises(SchurConvergenceError, match="did not converge"):
        real_schur(np.eye(3))
    # the command line maps a RuntimeError to exit code 1
    assert issubclass(SchurConvergenceError, RuntimeError)


def test_real_schur_rejects_bad_input():
    with pytest.raises(ValueError):
        real_schur(np.ones((2, 3)))
    with pytest.raises(ValueError):
        real_schur(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_sign_det_identity_and_diag():
    assert sign_det(np.eye(5)) == 1
    assert sign_det(np.diag([1.0, -1.0])) == -1


def test_sign_det_schur_oracle():
    # sign of det = product of signs of real eigenvalues (pairs contribute +)
    rng = np.random.default_rng(11)
    for _ in range(40):
        m = rng.normal(size=(10, 10))
        spec = real_schur(m)
        expected = 1 if np.count_nonzero(spec.real_eigenvalues < 0) % 2 == 0 else -1
        assert sign_det(m) == expected


def test_sign_det_permutation_parity():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(6, 6))
    base = sign_det(m)
    assert base * base == 1
    perm = np.eye(6)[[1, 0, 2, 3, 4, 5]]  # one transposition
    assert sign_det(perm @ m) == -base
    perm3 = np.eye(6)[[1, 2, 0, 3, 4, 5]]  # 3-cycle, even
    assert sign_det(perm3 @ m) == base


def test_sign_det_degenerate_is_zero():
    assert sign_det(np.zeros((4, 4))) == 0
    v = np.arange(1.0, 5.0)
    assert sign_det(np.outer(v, v)) == 0


@pytest.mark.parametrize("n, draws", [(2, 200), (3, 200), (5, 150), (10, 100), (30, 30), (100, 10)])
def test_sign_det_matches_lu_slogdet_and_schur_on_shifted_draws(n, draws):
    for i in range(draws):
        m = _draw(n, stream(2718, i))
        reals = real_schur(m).real_eigenvalues
        for x in stream(3141, i).normal(size=3):
            shifted = m - x * np.eye(n)
            got = sign_det(shifted)
            assert got != 0, (n, i, x)
            assert got == lu_sign_det(shifted), (n, i, x)
            assert got == np.linalg.slogdet(shifted)[0], (n, i, x)
            assert got == _spins(reals, x), (n, i, x)


def test_sign_det_zero_rule_catches_what_lu_catches():
    qr_zeros = lu_zeros = 0
    for m in rank_deficient_products():
        qr_zeros += sign_det(m) == 0
        lu_zeros += lu_sign_det(m) == 0
    assert qr_zeros >= lu_zeros > 19_900


def test_sign_det_at_extreme_scales():
    # the Frobenius scale is formed without squaring huge or tiny entries
    m = _draw(6, stream(5, 0))
    want = lu_sign_det(m)
    for scale in (1e-300, 1e-150, 1e150, 1e300):
        assert sign_det(m * scale) == want
    assert sign_det(np.eye(3) * 1e300) == 1
    assert sign_det(np.diag([1e-300, -1e-300])) == -1


def test_complex_qr_unitarity_sweep():
    rng = np.random.default_rng(19)
    trials_per_size = 2000
    for n in (2, 4, 8, 16, 32):
        a = rng.normal(size=(trials_per_size, n, n)) + 1j * rng.normal(
            size=(trials_per_size, n, n)
        )
        q, _ = np.linalg.qr(a)
        defect = np.max(np.abs(np.einsum("mij,mik->mjk", q.conj(), q) - np.eye(n)))
        assert defect < 1e-12

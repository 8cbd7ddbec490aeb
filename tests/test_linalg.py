import numpy as np
import pytest

from ginlab.linalg import real_schur, sign_det


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

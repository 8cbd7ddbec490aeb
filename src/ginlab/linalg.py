"""Dense linear-algebra kernels shared by the rest of the package.

Real Schur spectra and robust determinant signs, wrapped over LAPACK
(through numpy/scipy) with the classification and failure semantics the
estimators rely on.  Everything here is a pure function of its inputs
and safe to call concurrently.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

# Pivot below SIGN_DET_TOL * max|entry| is treated as an exact singularity.
SIGN_DET_TOL = 1e-13


class SchurConvergenceError(RuntimeError):
    """The QR iteration failed to converge to a real Schur form."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a real square matrix, classified structurally.

    ``real_eigenvalues`` is sorted ascending.  ``complex_pairs`` has one row
    (a, b) with b > 0 per conjugate pair a +- ib.  The split comes from the
    1x1 / 2x2 block structure of the real Schur form, never from
    thresholding imaginary parts.
    """

    real_eigenvalues: np.ndarray
    complex_pairs: np.ndarray

    @property
    def n(self) -> int:
        return len(self.real_eigenvalues) + 2 * len(self.complex_pairs)

    def eigenvalue_sum(self) -> float:
        return float(self.real_eigenvalues.sum() + 2.0 * self.complex_pairs[:, 0].sum())


def _require_square_real(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def real_schur(m) -> Spectrum:
    """Eigenvalues of a real matrix via the real Schur form.

    1x1 diagonal blocks of the quasi-triangular factor give real eigenvalues,
    standardized 2x2 blocks give conjugate pairs.  Raises
    :class:`SchurConvergenceError` if the QR iteration does not converge.
    """
    m = _require_square_real(m)
    try:
        t, _ = sla.schur(m, output="real")
    except sla.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise SchurConvergenceError(str(exc)) from exc
    return spectrum_from_schur_t(t)


def spectrum_from_schur_t(t: np.ndarray) -> Spectrum:
    """Classify the diagonal blocks of a real quasi-triangular Schur factor."""
    n = t.shape[0]
    reals = []
    pairs = []
    i = 0
    while i < n:
        if i == n - 1 or t[i + 1, i] == 0.0:
            reals.append(t[i, i])
            i += 1
            continue
        a = 0.5 * (t[i, i] + t[i + 1, i + 1])
        disc = 0.25 * (t[i, i] - t[i + 1, i + 1]) ** 2 + t[i, i + 1] * t[i + 1, i]
        if disc < 0.0:
            pairs.append((a, np.sqrt(-disc)))
        else:
            # LAPACK standardizes 2x2 blocks to complex pairs; keep a safe
            # fallback for a block that is actually real.
            r = np.sqrt(disc)
            reals.extend((a - r, a + r))
        i += 2
    reals_arr = np.sort(np.asarray(reals, dtype=float))
    pairs_arr = np.asarray(pairs, dtype=float).reshape(-1, 2)
    return Spectrum(real_eigenvalues=reals_arr, complex_pairs=pairs_arr)


def sign_det(m, tol: float = SIGN_DET_TOL) -> int:
    """Exact sign of det(m) via pivoted LU, 0 on (near-)singularity.

    Tracks row-swap parity and pivot signs; a pivot smaller than
    ``tol * max|entry|`` reports the degenerate value 0.
    """
    m = _require_square_real(m)
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


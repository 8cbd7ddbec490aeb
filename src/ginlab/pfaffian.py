"""Pfaffians of complex skew-symmetric matrices and perfect-matching utilities.

The production route is skew tridiagonalization with partial pivoting
(parity-tracked, so Pf(A)^2 = det(A) holds including sign); the
combinatorial matchings sum is kept as an independent oracle for small
dimensions.  Matchings of {1, ..., 2K} are stored in canonical form:
pairs (i_k, j_k) with i_k < j_k and i_1 < i_2 < ... < i_K.

The matchings come from one table, built per call level by level in numpy:
the words (i_1, j_1, ..., i_K, j_K) as rows of a small-integer array, in
the recursive order of :func:`enumerate_matchings`, and each word's
inversion count.  Pairing the smallest free index with the partner at
position idx of the remaining indices puts exactly idx larger indices
after that partner and none after the first index, so the inversion count
is the sum of the idx choices along the recursion; no word is recounted.

:func:`pfaffian_matchings` multiplies the table's entries column by column,
left to right from the +-1 sign, and adds the terms in order with
``np.add.accumulate`` from 0.0, which is the per-matching scalar loop bit
for bit (``np.sum`` adds pairwise).  Complex products are written out in
real and imaginary parts, re*er - im*ei and re*ei + im*er, because numpy's
vectorized complex multiply may use fused SIMD kernels whose rounding
differs from the scalar product.
"""

from dataclasses import dataclass

import numpy as np

SKEW_TOL = 1e-12
MATCHINGS_SUM_CAP = 12
ENUMERATION_CAP = 16


@dataclass(frozen=True)
class Matching:
    """A perfect matching of {1, ..., 2K} in canonical pair order."""

    pairs: tuple

    def __post_init__(self):
        flat = [i for p in self.pairs for i in p]
        n = 2 * len(self.pairs)
        if sorted(flat) != list(range(1, n + 1)):
            raise ValueError(f"pairs do not partition 1..{n}: {self.pairs}")
        firsts = [p[0] for p in self.pairs]
        if any(i >= j for i, j in self.pairs) or firsts != sorted(firsts):
            raise ValueError(f"pairs not in canonical order: {self.pairs}")

    @property
    def two_k(self) -> int:
        return 2 * len(self.pairs)

    def word(self) -> tuple:
        """The permutation word (i_1, j_1, i_2, j_2, ...)."""
        return tuple(i for p in self.pairs for i in p)

    def __str__(self):
        return _word_name(self.word())


def _word_name(word) -> str:
    """(i_1,j_1)(i_2,j_2)..., the printed form of the word (i_1, j_1, i_2, j_2, ...)."""
    return "".join(f"({i},{j})" for i, j in zip(word[0::2], word[1::2]))


def canonical_matching(pairs) -> Matching:
    """Build a Matching from arbitrary pair order, canonicalizing it.

    A test oracle for hand-written matchings; the package itself does not call it.
    """
    norm = sorted(tuple(sorted(p)) for p in pairs)
    return Matching(tuple(norm))


def identity_matching(two_k: int) -> Matching:
    """(1,2)(3,4)...(2K-1,2K).

    A test oracle for the maximizing matching; the package itself does not call it.
    """
    return Matching(tuple((i, i + 1) for i in range(1, two_k, 2)))


def canonical_symplectic(dim: int) -> np.ndarray:
    """Block-diagonal J with 2x2 blocks [[0, 1], [-1, 0]]; J^2 = -I."""
    if dim % 2:
        raise ValueError("canonical symplectic matrix needs even dimension")
    j = np.zeros((dim, dim))
    for b in range(0, dim, 2):
        j[b, b + 1] = 1.0
        j[b + 1, b] = -1.0
    return j


def require_skew(a, tol: float = SKEW_TOL) -> np.ndarray:
    """Validated skew-symmetric copy of ``a``: antisymmetrized, zero diagonal.

    Rejects inputs whose symmetric defect exceeds ``tol * max|a|``.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = np.max(np.abs(a)) if a.size else 0.0
    if scale > 0:
        defect = np.max(np.abs(a + a.T))
        if defect > tol * scale:
            raise ValueError(
                f"matrix is not skew-symmetric: defect {defect:.3e} > {tol:.1e} * {scale:.3e}"
            )
    b = 0.5 * (a - a.T)
    np.fill_diagonal(b, 0)
    return b


def pfaffian(a, tol: float = SKEW_TOL):
    """Pfaffian via skew tridiagonalization with partial pivoting.

    Row/column transpositions flip the sign and are tracked exactly, so
    Pf(a)^2 = det(a).  Odd dimension and non-skew input raise ValueError.
    Real input gives a float, complex input a complex.
    """
    b = require_skew(a, tol)
    n = b.shape[0]
    if n % 2:
        raise ValueError(f"Pfaffian needs even dimension, got {n}")
    if n == 0:
        return 1.0
    out_complex = np.iscomplexobj(b)
    b = b.astype(complex if out_complex else float, copy=True)
    val = 1.0 + 0j if out_complex else 1.0
    for k in range(0, n - 1, 2):
        col = np.abs(b[k + 1:, k])
        kp = k + 1 + int(col.argmax())
        if b[kp, k] == 0:
            return 0j if out_complex else 0.0
        if kp != k + 1:
            b[[k + 1, kp], :] = b[[kp, k + 1], :]
            b[:, [k + 1, kp]] = b[:, [kp, k + 1]]
            val = -val
        pivot = b[k, k + 1]
        val = val * pivot
        if k + 2 < n:
            tau = b[k, k + 2:] / pivot
            w = b[k + 2:, k + 1]
            b[k + 2:, k + 2:] += np.outer(tau, w) - np.outer(w, tau)
    return val


def _matching_table(two_k: int):
    """(words, inversions) of all (2K-1)!! matchings of {1, ..., two_k}.

    ``words`` is an int8 array of shape ((2K-1)!!, two_k) holding the zero-based
    indices (i_1 - 1, j_1 - 1, ..., i_K - 1, j_K - 1) of each word, in the order
    of :func:`enumerate_matchings`; ``inversions`` is int8 (at most K(K-1) = 56).
    """
    if two_k % 2:
        raise ValueError(f"matchings need an even ground set, got {two_k}")
    if two_k > ENUMERATION_CAP:
        raise ValueError(f"enumeration capped at {ENUMERATION_CAP}, got {two_k}")
    words = np.empty((1, 0), dtype=np.int8)
    inv = np.zeros(1, dtype=np.int8)
    free = np.arange(two_k, dtype=np.int8)[None, :]
    while free.shape[1]:
        rest = free[:, 1:]
        m = rest.shape[1]
        # row r, choice idx -> new row r * m + idx: partner rest[r, idx], and
        # rest[r] without column idx left free
        keep = np.array([[c for c in range(m) if c != idx] for idx in range(m)], dtype=np.intp)
        pair = np.stack([np.repeat(free[:, 0], m), rest.reshape(-1)], axis=1)
        words = np.concatenate([np.repeat(words, m, axis=0), pair], axis=1)
        inv = (inv[:, None] + np.arange(m, dtype=np.int8)).reshape(-1)
        free = rest[:, keep.reshape(-1)].reshape(len(words), m - 1)
    return words, inv


def enumerate_matchings(two_k: int) -> list:
    """All (2K-1)!! perfect matchings of {1, ..., two_k}, canonical order.

    The order is deterministic: the smallest unmatched index is paired with
    each larger index in increasing order, recursively.
    """
    words, _inv = _matching_table(two_k)
    return [Matching(tuple(zip(w[0::2], w[1::2]))) for w in (words + 1).tolist()]


def inversions(m: Matching) -> int:
    """Number of inversions of the word (i_1, j_1, ..., i_K, j_K), counted pair by pair.

    A test oracle for the matching table's counts; the package itself does not call it.
    """
    w = m.word()
    return sum(1 for p in range(len(w)) for q in range(p + 1, len(w)) if w[p] > w[q])


def matching_sign(m: Matching) -> int:
    """Sign of the matching's permutation word: (-1)**inversions.

    A test oracle; the package itself does not call it.
    """
    return -1 if inversions(m) % 2 else 1


def pfaffian_matchings(a, tol: float = SKEW_TOL, cap: int = MATCHINGS_SUM_CAP):
    """Pfaffian by the signed sum over perfect matchings.

    Cost is (2K-1)!!, so dimension is capped (default 12).  Serves as an
    independent oracle for :func:`pfaffian`.
    """
    b = require_skew(a, tol)
    n = b.shape[0]
    if n % 2:
        raise ValueError(f"Pfaffian needs even dimension, got {n}")
    if n > cap:
        raise ValueError(f"matchings sum capped at dimension {cap}, got {n}")
    if n == 0:
        return 1.0
    words, inv = _matching_table(n)
    entries = b[words[:, 0::2], words[:, 1::2]]
    re = np.where(inv % 2, -1, 1).astype(entries.real.dtype)
    if not np.iscomplexobj(b):
        for col in entries.T:
            re *= col
        return _sum_in_order(re)
    im = np.zeros_like(re)
    for er, ei in zip(entries.real.T, entries.imag.T):
        re, im = re * er - im * ei, re * ei + im * er
    return b.dtype.type(complex(_sum_in_order(re), _sum_in_order(im)))


def _sum_in_order(terms):
    """0.0 + t_0 + t_1 + ..., added left to right as a scalar loop would."""
    return np.add.accumulate(np.concatenate((np.zeros(1, terms.dtype), terms)))[-1]

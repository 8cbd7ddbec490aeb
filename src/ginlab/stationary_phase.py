"""Critical-point combinatorics of the phase Tr(W^dagger X W X) on
skew-symmetric unitaries, for a configuration of 2K ordered points.

The critical set is a disjoint union of K-dimensional tori indexed by the
perfect matchings of {1, ..., 2K}.  For a matching (i_1,j_1)...(i_K,j_K):

  * critical value: 2 * sum_k x_{i_k} x_{j_k};
  * normal-space Hessian eigenvalues, one conjugate pair (multiplicity 2)
    per k < l:  2 (x_{i_k}-x_{j_l})(x_{i_l}-x_{j_k})  and
                2 (x_{i_k}-x_{i_l})(x_{j_l}-x_{j_k});
  * signature: 4 * inversions - 2K(K-1), with inversions counted in the
    word (i_1, j_1, ..., i_K, j_K).

The signed sum over matchings of the leading oscillatory contributions
collapses to a ratio of a Pfaffian to a Vandermonde; ``matchings_phase_sum``
builds both sides independently.  Complex exponents write 1/(i t) as
-i/t.

All matchings are handled at once, from the matching table of
:mod:`ginlab.pfaffian`: the columns x[i_k] and x[j_k] of every word are
two (matchings x K) arrays, and :func:`critical_data`,
:func:`find_max_matching` and :func:`matchings_phase_sum` compute column by
column what the per-matching scalar loop computes, bit for bit: sums from
0.0 and products from 1.0 run over the pairs in order (not
``np.sum``/``np.prod``, whose order is not the loop's), ``2.0 * a * b`` is
evaluated left to right, and the phase sum's terms are added with
``np.add.accumulate`` as in ``pfaffian_matchings``.
Its complex products need no writing out: each has one real factor, and a
product whose imaginary part is zero rounds the same with or without the
fused multiply-adds of numpy's vectorized complex multiply.
The per-matching functions :func:`critical_value`, :func:`hessian_spectrum`,
:func:`signature`, :func:`sqrt_abs_hessian_det` and
:func:`vandermonde_ratio_report` (which calls :func:`sqrt_abs_hessian_det`)
are that scalar loop, kept as test oracles, as is :func:`laplace_leading`
for the small-t limit.
"""

from typing import NamedTuple

import numpy as np

from .errors import UsageError, point_array, positive_time
from .group_integrals import vandermonde
from .pfaffian import Matching, _matching_table, _sum_in_order, _word_name, pfaffian
from .pfaffian import enumerate_matchings  # noqa: F401  (the benchmark rebinds it here)


def _ordered_points(points, two_k=None) -> np.ndarray:
    """The points, checked: even in number, strictly increasing, ``two_k`` of them if given.

    Each public function checks once and passes the array to the private helpers.
    """
    x = point_array(points, even=True)
    if two_k is not None and x.size != two_k:
        raise UsageError(f"matching of size {two_k} against {x.size} points")
    if not (x[1:] > x[:-1]).all():
        raise UsageError("points must be strictly increasing")
    return x


def _phase_sum_points(points) -> np.ndarray:
    """The checked points, at most 10 of them: the phase sum's (2K-1)!! terms are capped."""
    x = _ordered_points(points)
    if len(x) > 10:
        raise UsageError("phase sum capped at 10 points")
    return x


def critical_value(m: Matching, points) -> float:
    """Phase restricted to the matching's torus: 2 * sum_k x_{i_k} x_{j_k}.

    A test oracle for the table's critical values; the package itself does not call it.
    """
    x = _ordered_points(points, m.two_k)
    return float(2.0 * sum(x[i - 1] * x[j - 1] for i, j in m.pairs))


def _argmax_with_tie_check(values):
    best = max(range(len(values)), key=lambda i: values[i])
    ties = [i for i, v in enumerate(values) if v == values[best] and i != best]
    if ties:
        raise ValueError(f"tied maxima at indices {best} and {ties[0]}")
    return best


def _pair_columns(x: np.ndarray):
    """(words, inversions, x[i_k], x[j_k]) of every matching, from one matching table.

    The last two are (matchings x K) arrays, one column per pair.
    """
    words, inv = _matching_table(len(x))
    return words, inv, x[words[:, 0::2]], x[words[:, 1::2]]


def _critical_values(xi: np.ndarray, xj: np.ndarray) -> np.ndarray:
    total = np.zeros(len(xi))
    for a, b in zip(xi.T, xj.T):
        total += a * b
    return 2.0 * total


def find_max_matching(points) -> Matching:
    """Exhaustive argmax of the critical value over all matchings.

    For strictly increasing points the maximizer is the consecutive-pair
    matching (1,2)(3,4)...; a tie (impossible for distinct ordered points)
    raises with the tied pair reported.
    """
    x = _ordered_points(points)
    if len(x) > 12:
        raise UsageError("exhaustive search capped at 12 points")
    words, _inv, xi, xj = _pair_columns(x)
    best = _argmax_with_tie_check(_critical_values(xi, xj).tolist())
    w = (words[best] + 1).tolist()
    return Matching(tuple(zip(w[0::2], w[1::2])))


def hessian_spectrum(m: Matching, points) -> list:
    """Normal-space Hessian eigenvalues as (value, multiplicity=2) entries.

    A test oracle for the table's spectra; the package itself does not call it.
    """
    x = _ordered_points(points, m.two_k)
    out = []
    pairs = m.pairs
    for k in range(len(pairs)):
        ik, jk = pairs[k]
        for l in range(k + 1, len(pairs)):
            il, jl = pairs[l]
            out.append((2.0 * (x[ik - 1] - x[jl - 1]) * (x[il - 1] - x[jk - 1]), 2))
            out.append((2.0 * (x[ik - 1] - x[il - 1]) * (x[jl - 1] - x[jk - 1]), 2))
    return out


def _nonzero_spectrum(m: Matching, spectrum: list) -> list:
    if any(val == 0.0 for val, _mult in spectrum):
        raise ValueError(f"degenerate configuration: zero Hessian eigenvalue for {m}")
    return spectrum


def signature(m: Matching, points) -> int:
    """(#positive - #negative) Hessian eigenvalues, counted with multiplicity.

    Equals 4 * inversions(m) - 2K(K-1); a zero eigenvalue (degenerate
    configuration) raises.  A test oracle for the table's signatures; the
    package itself does not call it.
    """
    spectrum = _nonzero_spectrum(m, hessian_spectrum(m, points))
    return sum(mult if val > 0 else -mult for val, mult in spectrum)


def sqrt_abs_hessian_det(m: Matching, points) -> float:
    """Square root of |det| of the normal-space Hessian.

    Each (value, multiplicity 2) entry contributes |value| once.  A test
    oracle for the table's column; the package itself does not call it.
    """
    out = 1.0
    for val, _mult in _nonzero_spectrum(m, hessian_spectrum(m, points)):
        out *= abs(val)
    return float(out)


def vandermonde_ratio_report(m: Matching, points) -> dict:
    """Checkable factorization of the Hessian determinant, and the 2-power.

    The product over k < l of the four cross differences
    |(x_{i_k}-x_{j_l})(x_{i_l}-x_{j_k})(x_{i_k}-x_{i_l})(x_{j_l}-x_{j_k})|
    equals V(x) / prod_k (x_{j_k} - x_{i_k}) exactly.  The power of two
    relating sqrt|det| to that ratio is measured and reported, not asserted.
    A test oracle for the table's last two columns; the package itself does
    not call it.
    """
    x = _ordered_points(points, m.two_k)
    pairs = m.pairs
    cross = 1.0
    for k in range(len(pairs)):
        ik, jk = pairs[k]
        for l in range(k + 1, len(pairs)):
            il, jl = pairs[l]
            cross *= abs(
                (x[ik - 1] - x[jl - 1])
                * (x[il - 1] - x[jk - 1])
                * (x[ik - 1] - x[il - 1])
                * (x[jl - 1] - x[jk - 1])
            )
    gaps = np.prod([x[j - 1] - x[i - 1] for i, j in pairs])
    ratio = vandermonde(x) / gaps
    sqrt_det = sqrt_abs_hessian_det(m, x)
    kk = len(pairs)
    return {
        "cross_product": float(cross),
        "vandermonde_over_gaps": float(ratio),
        "sqrt_abs_hessian_det": sqrt_det,
        "measured_log2_prefactor": float(np.log2(sqrt_det / ratio)),
        "eigenvalue_power_of_two": kk * (kk - 1),
    }


class CriticalTable(NamedTuple):
    """Every matching's critical data as columns, one row per matching in the
    order of :func:`~ginlab.pfaffian.enumerate_matchings`: its zero-based word,
    and what the per-matching oracles return for it (``hessian_eigenvalues``
    has one column per (value, 2) entry of :func:`hessian_spectrum`, and
    ``log2_prefactors`` is ``measured_log2_prefactor``)."""

    words: np.ndarray
    inversions: np.ndarray
    critical_values: np.ndarray
    hessian_eigenvalues: np.ndarray
    signatures: np.ndarray
    sqrt_abs_hessian_dets: np.ndarray
    log2_prefactors: np.ndarray

    def names(self) -> list:
        """Each matching as ``str(Matching)`` prints it: (i_1,j_1)(i_2,j_2)..."""
        return [_word_name(w) for w in (self.words + 1).tolist()]


def critical_data(points) -> CriticalTable:
    """The ``stationary-phase`` campaign's table, all matchings at once.

    Capped at 10 points, as :func:`matchings_phase_sum` is, so that a
    configuration the campaign cannot finish is refused before its
    (2K-1)!! rows are built.  Raises unless each signature is
    4 * inversions - 2K(K-1).
    """
    x = _phase_sum_points(points)
    words, inv, xi, xj = _pair_columns(x)
    inv = inv.astype(np.int64)  # 4 * inversions reaches 224, past int8
    kk = xi.shape[1]
    k, l = np.triu_indices(kk, 1)
    # the two eigenvalues of each k < l, interleaved as hessian_spectrum lists them
    spectra = np.stack(
        [
            2.0 * (xi[:, k] - xj[:, l]) * (xi[:, l] - xj[:, k]),
            2.0 * (xi[:, k] - xi[:, l]) * (xj[:, l] - xj[:, k]),
        ],
        axis=2,
    ).reshape(len(words), -1)
    zero = np.flatnonzero((spectra == 0.0).any(axis=1))
    if zero.size:
        name = _word_name((words[zero[0]] + 1).tolist())
        raise ValueError(f"degenerate configuration: zero Hessian eigenvalue for {name}")
    signatures = np.where(spectra > 0, 2, -2).sum(axis=1)
    if np.any(signatures - 4 * inv + 2 * kk * (kk - 1)):
        raise ValueError("signature inconsistent with inversion count")
    sqrt_det = np.ones(len(words))
    for col in np.abs(spectra).T:
        sqrt_det *= col
    gaps = np.ones(len(words))
    for a, b in zip(xi.T, xj.T):
        gaps *= b - a
    ratio = vandermonde(x) / gaps
    return CriticalTable(
        words=words,
        inversions=inv,
        critical_values=_critical_values(xi, xj),
        hessian_eigenvalues=spectra,
        signatures=signatures,
        sqrt_abs_hessian_dets=sqrt_det,
        log2_prefactors=np.log2(sqrt_det / ratio),
    )


def matchings_phase_sum(points, t: float) -> complex:
    """Signed sum of leading torus contributions of the oscillatory integral.

        t**(K(K-1)) * prod_m exp(-x_m^2/(it)) *
        sum_sigma sign(sigma) prod_k (x_{j_k} - x_{i_k}) exp(2 x_{i_k} x_{j_k}/(it))
        / V(x)

    which equals Pf[((x_j - x_i)/sqrt(t)) exp(-(x_i - x_j)^2/(it))] / V(x/sqrt(t))
    identically (the Pfaffian expanded over matchings).  Capped at 10 points.
    """
    x = _phase_sum_points(points)
    t = positive_time(t)
    kk = len(x) // 2
    inv_it = -1j / t
    words, inv, xi, xj = _pair_columns(x)
    amp = np.where(inv % 2, -1.0, 1.0)  # the sign first: negation commutes with rounding
    phase = np.zeros(len(words))
    for a, b in zip(xi.T, xj.T):
        amp *= b - a
        phase += 2.0 * a * b
    terms = amp * np.exp(inv_it * phase)
    total = complex(_sum_in_order(terms.real), _sum_in_order(terms.imag))
    total *= np.exp(-np.sum(x * x) * inv_it)
    return complex(t ** (kk * (kk - 1)) * total / vandermonde(x))


def phase_pfaffian_ratio(points, t: float) -> complex:
    """Pf[((x_j - x_i)/sqrt(t)) exp(-(x_i - x_j)^2/(it))] / V(x/sqrt(t))."""
    x = _ordered_points(points)
    t = positive_time(t)
    inv_it = -1j / t
    d = x[None, :] - x[:, None]
    a = (d / np.sqrt(t)) * np.exp(-d * d * inv_it)
    return complex(pfaffian(a) / vandermonde(x / np.sqrt(t)))


def laplace_leading(points, t: float) -> float:
    """Leading small-t form of the real-exponent integral, without its constant:

        prod_k (x_{2k} - x_{2k-1}) / V(x) * exp(-sum_k (x_{2k} - x_{2k-1})^2 / t)

    (the two displayed exponents combine by completing the square).  A test
    oracle for the small-t limit; the package itself does not call it.
    """
    x = _ordered_points(points)
    t = positive_time(t)
    gaps = x[1::2] - x[0::2]
    return float(np.prod(gaps) / vandermonde(x) * np.exp(-np.sum(gaps * gaps) / t))

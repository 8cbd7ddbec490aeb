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
builds both sides independently.  Complex exponents use the principal
convention 1/(i t) = -i/t throughout (PHASE_CONVENTION below).
"""

from dataclasses import dataclass

import numpy as np

from .errors import UsageError, point_array, positive_time
from .group_integrals import vandermonde
from .pfaffian import Matching, _matching_table, enumerate_matchings, pfaffian

#: 1/(i t) is expanded as PHASE_CONVENTION / t with PHASE_CONVENTION = -1j.
PHASE_CONVENTION = -1j


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


def _critical_value(m: Matching, x: np.ndarray) -> float:
    return float(2.0 * sum(x[i - 1] * x[j - 1] for i, j in m.pairs))


def critical_value(m: Matching, points) -> float:
    """Phase restricted to the matching's torus: 2 * sum_k x_{i_k} x_{j_k}."""
    return _critical_value(m, _ordered_points(points, m.two_k))


def _argmax_with_tie_check(values):
    best = max(range(len(values)), key=lambda i: values[i])
    ties = [i for i, v in enumerate(values) if v == values[best] and i != best]
    if ties:
        raise ValueError(f"tied maxima at indices {best} and {ties[0]}")
    return best


def find_max_matching(points) -> Matching:
    """Exhaustive argmax of the critical value over all matchings.

    For strictly increasing points the maximizer is the consecutive-pair
    matching (1,2)(3,4)...; a tie (impossible for distinct ordered points)
    raises with the tied pair reported.
    """
    x = _ordered_points(points)
    if len(x) > 12:
        raise UsageError("exhaustive search capped at 12 points")
    ms = enumerate_matchings(len(x))
    vals = [_critical_value(m, x) for m in ms]
    return ms[_argmax_with_tie_check(vals)]


def _hessian_spectrum(m: Matching, x: np.ndarray) -> list:
    out = []
    pairs = m.pairs
    for k in range(len(pairs)):
        ik, jk = pairs[k]
        for l in range(k + 1, len(pairs)):
            il, jl = pairs[l]
            out.append((2.0 * (x[ik - 1] - x[jl - 1]) * (x[il - 1] - x[jk - 1]), 2))
            out.append((2.0 * (x[ik - 1] - x[il - 1]) * (x[jl - 1] - x[jk - 1]), 2))
    return out


def hessian_spectrum(m: Matching, points) -> list:
    """Normal-space Hessian eigenvalues as (value, multiplicity=2) entries."""
    return _hessian_spectrum(m, _ordered_points(points, m.two_k))


def _nonzero_spectrum(m: Matching, spectrum: list) -> list:
    if any(val == 0.0 for val, _mult in spectrum):
        raise ValueError(f"degenerate configuration: zero Hessian eigenvalue for {m}")
    return spectrum


def _signature(m: Matching, spectrum: list) -> int:
    return sum(mult if val > 0 else -mult for val, mult in _nonzero_spectrum(m, spectrum))


def _sqrt_abs_det(m: Matching, spectrum: list) -> float:
    out = 1.0
    for val, _mult in _nonzero_spectrum(m, spectrum):
        out *= abs(val)
    return float(out)


def signature(m: Matching, points) -> int:
    """(#positive - #negative) Hessian eigenvalues, counted with multiplicity.

    Equals 4 * inversions(m) - 2K(K-1); a zero eigenvalue (degenerate
    configuration) raises.
    """
    return _signature(m, hessian_spectrum(m, points))


def sqrt_abs_hessian_det(m: Matching, points) -> float:
    """Square root of |det| of the normal-space Hessian.

    Each (value, multiplicity 2) entry contributes |value| once.
    """
    return _sqrt_abs_det(m, hessian_spectrum(m, points))


def vandermonde_ratio_report(m: Matching, points) -> dict:
    """Checkable factorization of the Hessian determinant, and the 2-power.

    The product over k < l of the four cross differences
    |(x_{i_k}-x_{j_l})(x_{i_l}-x_{j_k})(x_{i_k}-x_{i_l})(x_{j_l}-x_{j_k})|
    equals V(x) / prod_k (x_{j_k} - x_{i_k}) exactly.  The power of two
    relating sqrt|det| to that ratio is measured and reported, not asserted.
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
    sqrt_det = _sqrt_abs_det(m, _hessian_spectrum(m, x))
    kk = len(pairs)
    return {
        "cross_product": float(cross),
        "vandermonde_over_gaps": float(ratio),
        "sqrt_abs_hessian_det": sqrt_det,
        "measured_log2_prefactor": float(np.log2(sqrt_det / ratio)),
        "eigenvalue_power_of_two": kk * (kk - 1),
    }


@dataclass(frozen=True)
class CriticalDatum:
    """Everything the phase sum needs from one critical torus."""

    matching: Matching
    critical_value: float
    hessian_eigenvalues: tuple
    signature: int
    inversions: int

    def __post_init__(self):
        kk = self.matching.two_k // 2
        if len(self.hessian_eigenvalues) != kk * (kk - 1):
            raise ValueError("unexpected eigenvalue count")
        if (self.signature - 4 * self.inversions + 2 * kk * (kk - 1)) != 0:
            raise ValueError("signature inconsistent with inversion count")


def critical_data(points) -> list:
    """The per-matching table of critical values, spectra and signatures."""
    x = _ordered_points(points)
    _words, inv = _matching_table(len(x))
    out = []
    for m, count in zip(enumerate_matchings(len(x)), inv.tolist()):
        spectrum = _hessian_spectrum(m, x)
        out.append(
            CriticalDatum(
                matching=m,
                critical_value=_critical_value(m, x),
                hessian_eigenvalues=tuple(spectrum),
                signature=_signature(m, spectrum),
                inversions=count,
            )
        )
    return out


def matchings_phase_sum(points, t: float) -> complex:
    """Signed sum of leading torus contributions of the oscillatory integral.

        t**(K(K-1)) * prod_m exp(-x_m^2/(it)) *
        sum_sigma sign(sigma) prod_k (x_{j_k} - x_{i_k}) exp(2 x_{i_k} x_{j_k}/(it))
        / V(x)

    which equals Pf[((x_j - x_i)/sqrt(t)) exp(-(x_i - x_j)^2/(it))] / V(x/sqrt(t))
    identically (the Pfaffian expanded over matchings).  Capped at 10 points.
    """
    x = _ordered_points(points)
    if len(x) > 10:
        raise UsageError("phase sum capped at 10 points")
    t = positive_time(t)
    kk = len(x) // 2
    inv_it = PHASE_CONVENTION / t
    total = 0.0 + 0.0j
    words, inv = _matching_table(len(x))
    for w, count in zip(words.tolist(), inv.tolist()):
        amp = 1.0
        phase = 0.0
        for i, j in zip(w[0::2], w[1::2]):
            amp *= x[j] - x[i]
            phase += 2.0 * x[i] * x[j]
        total += (-1 if count % 2 else 1) * amp * np.exp(inv_it * phase)
    total *= np.exp(-np.sum(x * x) * inv_it)
    return complex(t ** (kk * (kk - 1)) * total / vandermonde(x))


def phase_pfaffian_ratio(points, t: float) -> complex:
    """Pf[((x_j - x_i)/sqrt(t)) exp(-(x_i - x_j)^2/(it))] / V(x/sqrt(t))."""
    x = _ordered_points(points)
    t = positive_time(t)
    inv_it = PHASE_CONVENTION / t
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

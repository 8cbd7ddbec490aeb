"""Sampling of real Gaussian matrices and Monte Carlo estimators.

Conventions
-----------
* Matrix entries are iid N(0, 1/2), the density proportional to
  exp(-Tr M M^T).  ENTRY_VARIANCE records this, and every estimator works
  in the matrix units this normalization induces.
* Under this normalization the closed forms of :mod:`.kernel`, in the bulk
  and at finite n (derived there), apply at unit spacing with no rescaling.
  ``test_scaling_convention_protocol`` checks it against the candidate
  dilations {1/sqrt(2), 1, sqrt(2)} at several matrix sizes.
* Every estimator draws sample ``i`` from the RNG stream keyed by
  (seed, i) and reduces in index order, so results are bit-reproducible
  for any worker partition of the index range.

Spin variables: spin(x) of a matrix is (-1)**(number of real eigenvalues
strictly below x), which is the sign of det(M - xI) away from the spectrum.
Both spin estimators reduce one (draws x points) table of spins, and that
table is built from determinant signs, not eigenvalues: each draw of a block
is written once into one stack, copied to every point and shifted, and a
single batched ``np.linalg.slogdet`` gives all the signs.  A zero sign (a
point on the spectrum to working precision) raises
:class:`DegenerateShiftError`.  The signed weight of the eigenvalues in a
bin [lo, hi) telescopes to (spin(lo) - spin(hi)) / 2.  The Monte Carlo
characteristic-polynomial moment reads the same stack of shifted
determinants, sign and log magnitude.  The real-eigenvalue count,
:func:`sample_ginoe` and ``spin(sample, x, check=True)`` read the
eigenvalues of :func:`.linalg.real_schur`, split by LAPACK's real Schur
blocks; there, at an eigenvalue, the strictly-below count (left limit) is
used.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._rng import stream, streams  # noqa: F401  (stream re-exported: one draw on its own)
from .errors import UsageError, point_array
from .kernel import lemma1_rhs
from .linalg import Spectrum, real_schur, sign_det

ENTRY_VARIANCE = 0.5
MIN_MOMENT_SAMPLES = 100
# The duality check's bins: half-width around each point, and the signal to
# noise the binned density must reach.
DUALITY_HALFWIDTH = 0.125
DUALITY_MIN_SNR = 3.0
# Bytes of one stack of shifted draws handed to a batched slogdet: a block
# stays cache-sized and adds nothing measurable to a run's peak memory (at
# n=100 with four points a block is one draw).
_SHIFT_BLOCK_BYTES = 1 << 18


class DegenerateShiftError(RuntimeError):
    """The shifted matrix M - xI is numerically singular."""


@dataclass(frozen=True)
class GinOESample:
    """One draw: the matrix and its structurally classified spectrum."""

    matrix: np.ndarray
    spectrum: Spectrum

    def __post_init__(self):
        tr = float(np.trace(self.matrix))
        resid = abs(self.spectrum.eigenvalue_sum() - tr)
        if resid > 1e-8 * max(1.0, abs(tr)):
            raise ValueError(f"spectrum inconsistent with matrix trace: residual {resid:.3e}")


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo result with its provenance."""

    mean: float
    stderr: float
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.stderr < 0 or self.n_samples < 1:
            raise ValueError("invalid estimate fields")


@dataclass(frozen=True)
class BinnedDensity:
    """K-dimensional binned signed density estimate.

    ``weighted_counts`` are the accumulated per-sample weights per cell;
    ``normalization`` converts them to a density (1 / (samples * cell
    volume)).  Cells whose index tuple repeats a bin are not products of
    disjoint intervals and are NaN.
    """

    intervals: np.ndarray  # (m, 2) disjoint half-open bins
    k: int
    weighted_counts: np.ndarray
    normalization: np.ndarray
    stderr: np.ndarray
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.weighted_counts.shape != (len(self.intervals),) * self.k:
            raise ValueError("counts shape does not match bins")

    @property
    def values(self) -> np.ndarray:
        return self.weighted_counts * self.normalization


def _fill_draws(out: np.ndarray, rngs) -> np.ndarray:
    """Write one draw per row of ``out``, from the next generator of ``rngs``.

    Row i is bit for bit ``rng.normal(scale=np.sqrt(ENTRY_VARIANCE),
    size=out[i].shape)``: the same standard normals times the same scale,
    plus the 0.0 that ``normal`` adds as its ``loc`` (-0.0 becomes +0.0).
    """
    for row, rng in zip(out, rngs):
        rng.standard_normal(out=row)
    out *= np.sqrt(ENTRY_VARIANCE)
    out += 0.0
    return out


def _draw(n: int, rng: np.random.Generator) -> np.ndarray:
    """One n x n draw from ``rng``."""
    return _fill_draws(np.empty((1, n, n)), (rng,))[0]


def _check_samples(samples: int, min_samples: int = 2) -> None:
    """Reject a sample count below ``min_samples`` (two give a standard error)."""
    if samples < min_samples:
        raise UsageError(f"need at least {min_samples} samples, got {samples}")


def _draw_streams(n: int, samples: int, seed: int):
    """The run's generators in index order, draw i's from stream(seed, i).

    The sizes are checked when this is called, before anything is drawn.
    """
    if n < 1:
        raise UsageError(f"matrix size must be positive, got {n}")
    _check_samples(samples)
    return streams(seed, samples)


def _estimate(vals: np.ndarray, seed: int) -> Estimate:
    """Mean and standard error of per-draw values held in index order."""
    return Estimate(
        mean=float(vals.mean()),
        stderr=float(vals.std(ddof=1) / np.sqrt(len(vals))),
        n_samples=len(vals),
        seed=seed,
    )


def sample_ginoe(n: int, rng: np.random.Generator) -> GinOESample:
    """Draw an n x n matrix with iid N(0, 1/2) entries and classify its spectrum."""
    if n < 1:
        raise UsageError(f"matrix size must be positive, got {n}")
    m = _draw(n, rng)
    return GinOESample(matrix=m, spectrum=real_schur(m))


def _spins(reals: np.ndarray, points) -> np.ndarray:
    """(-1)**(number of sorted ``reals`` strictly below each point), as floats."""
    return np.where(np.searchsorted(reals, points, side="left") % 2, -1.0, 1.0)


def _shifted_slogdets(n: int, points: np.ndarray, samples: int, seed: int):
    """Yield (sign, logabsdet) of det(M_i - x_j I) a block of draws at a time.

    Each yielded array is (draws in block, points), rows in draw order; a
    block holds as many draws as keep their shifted stack within
    _SHIFT_BLOCK_BYTES, and at least one.  Each draw is written once, into
    its first point's row, and copied to the other points.
    """
    rngs = _draw_streams(n, samples, seed)
    p = len(points)
    block = max(1, _SHIFT_BLOCK_BYTES // (8 * max(p, 1) * n * n))
    diagonal = np.arange(n) * (n + 1)
    for start in range(0, samples, block):
        count = min(block, samples - start)
        stack = np.empty((count, p, n * n))
        _fill_draws(stack[:, 0], rngs)
        stack[:, 1:] = stack[:, :1]
        stack[:, :, diagonal] -= points[:, None]
        yield np.linalg.slogdet(stack.reshape(count, p, n, n))


def _spin_table(n: int, points: np.ndarray, samples: int, seed: int):
    """(samples, len(points)) table of spins sign det(M_i - x_j I); row i is draw i."""
    table = np.concatenate([sign for sign, _ in _shifted_slogdets(n, points, samples, seed)])
    if not table.all():
        i, j = np.argwhere(table == 0)[0]
        raise DegenerateShiftError(
            f"det(M - {float(points[j])!r} I) is zero for draw {i} of seed {seed}"
        )
    return table


def spin(sample: GinOESample, x: float, check: bool = True) -> int:
    """(-1)**(number of real eigenvalues strictly below x).

    With ``check`` the value is cross-verified against the sign of
    det(M - xI); a zero determinant sign raises DegenerateShiftError and a
    mismatch (which would indicate a classification bug) raises RuntimeError.
    """
    val = int(_spins(sample.spectrum.real_eigenvalues, x))
    if check:
        n = sample.matrix.shape[0]
        sd = sign_det(sample.matrix - x * np.eye(n))
        if sd == 0:
            raise DegenerateShiftError(f"det(M - {x} I) is numerically zero; resample")
        if sd != val:
            raise RuntimeError(
                f"spin mismatch at x={x}: parity {val} vs determinant sign {sd}"
            )
    return val


def estimate_spin_moments(n: int, configs, samples: int, seed: int) -> list:
    """Estimates of E[prod_k spin(x_k)] for several configs from one sample set.

    Each config gets its own mean/stderr; the matrix draws are shared, which
    is what the experiment campaigns want (correlated errors cancel in
    comparisons across configs).  A config's per-draw value is the product
    of its columns of the spin table.
    """
    cfgs = [point_array(c, even=True) for c in configs]
    _check_samples(samples, MIN_MOMENT_SAMPLES)
    points = np.unique(np.concatenate([np.empty(0), *cfgs]))
    spins = _spin_table(n, points, samples, seed)
    return [_estimate(spins[:, np.searchsorted(points, c)].prod(axis=1), seed) for c in cfgs]


def _as_intervals(bins) -> np.ndarray:
    b = np.asarray(bins, dtype=float)
    if not np.isfinite(b).all():
        raise UsageError("bin edges must be finite")
    if b.ndim == 1:
        if len(b) < 2 or np.any(np.diff(b) <= 0):
            raise UsageError("edges must be strictly increasing")
        b = np.column_stack([b[:-1], b[1:]])
    if b.ndim != 2 or b.shape[1] != 2 or np.any(b[:, 1] <= b[:, 0]):
        raise UsageError("bins must be an edge array or an (m, 2) interval array")
    order = np.argsort(b[:, 0])
    b = b[order]
    if np.any(b[1:, 0] < b[:-1, 1]):
        raise UsageError("bins overlap; the signed-density estimator needs disjoint bins")
    return b


def estimate_signed_density(
    n: int,
    bins,
    k: int,
    samples: int,
    seed: int,
    oriented: bool = False,
) -> BinnedDensity:
    """Binned estimator of the signed k-point eigenvalue density (k even).

    For each sample, every k-tuple of distinct real eigenvalues landing in a
    product of k distinct bins contributes the product of spins evaluated at
    the eigenvalues (strictly-below counts), so a cell's weight is the
    product of its bins' weights (spin(lo) - spin(hi)) / 2.  The raw measure
    is symmetric under coordinate swaps; with ``oriented`` each cell
    additionally carries the parity of its bin-index tuple, producing the
    antisymmetric (Vandermonde) orientation that matches the closed-form
    signed density on unordered cells.
    """
    if k % 2 or k <= 0 or k > 4:
        raise UsageError(f"supported k are 2 and 4, got {k}")
    intervals = _as_intervals(bins)
    m = len(intervals)
    if m < k:
        raise UsageError(f"need at least k={k} disjoint bins, got {m}")
    edges = np.unique(intervals)
    spins = _spin_table(n, edges, samples, seed)
    lo, hi = np.searchsorted(edges, intervals).T
    w = (spins[:, lo] - spins[:, hi]) / 2.0
    cells = {2: "za,zb->ab", 4: "za,zb,zc,zd->abcd"}[k]
    acc = np.einsum(cells, *[w] * k)
    acc2 = np.einsum(cells, *[w * w] * k)
    mean = acc / samples
    var = np.maximum(acc2 / samples - mean * mean, 0.0)
    widths = intervals[:, 1] - intervals[:, 0]
    vol = widths
    for _ in range(k - 1):
        vol = np.multiply.outer(vol, widths)
    norm = 1.0 / vol
    # sign of the bin-index Vandermonde: the tuple's sort parity, and 0 on
    # cells repeating a bin, which are not disjoint products
    idx = np.indices((m,) * k)
    orient = np.sign(np.prod([idx[b] - idx[a] for a, b in combinations(range(k), 2)], axis=0))
    distinct = orient != 0
    counts = np.where(distinct, acc * orient if oriented else acc, np.nan)
    stderr = np.where(distinct, np.sqrt(var / samples) * norm, np.nan)
    return BinnedDensity(
        intervals=intervals,
        k=k,
        weighted_counts=counts,
        normalization=norm / samples,
        stderr=stderr,
        n_samples=samples,
        seed=seed,
    )


def estimate_charpoly_moment(
    n: int,
    points,
    samples: int,
    seed: int,
    log_domain: bool = False,
) -> Estimate:
    """Monte Carlo moment E[prod_l det(M - x_l I)] over n x n draws.

    Determinants are accumulated in the log-magnitude domain; a product
    magnitude beyond the double range raises OverflowError and suggests
    ``log_domain``, which estimates the mean log magnitude instead.
    """
    pts = point_array(points)
    vals = []
    for sign, logabs in _shifted_slogdets(n, pts, samples, seed):
        logmag = np.zeros(len(sign))
        for col in logabs.T:  # point order, as a per-draw running sum would add
            logmag += col
        if log_domain:
            vals.append(logmag)
            continue
        if np.any(logmag > 700.0):
            raise OverflowError(
                "determinant product exceeds the double range; "
                "rerun with log_domain=True"
            )
        vals.append(sign.prod(axis=1) * np.exp(logmag))
    return _estimate(np.concatenate(vals), seed)


def estimate_real_count(n: int, samples: int, seed: int) -> Estimate:
    """Mean number of real eigenvalues of an n x n draw; the exact mean is
    :func:`.kernel.expected_real_count`."""
    counts = [
        len(real_schur(_draw(n, rng)).real_eigenvalues) for rng in _draw_streams(n, samples, seed)
    ]
    return _estimate(np.array(counts, dtype=float), seed)


@dataclass(frozen=True)
class DualityReport:
    """Binned signed density against the characteristic-polynomial formula."""

    points: tuple
    lhs: float
    lhs_stderr: float
    rhs: float
    ratio: float
    ratio_stderr: float
    n: int
    n_samples: int
    seed: int


def duality_check(
    n: int,
    points,
    samples: int,
    seed: int,
    moment: str = "quadrature",
) -> DualityReport:
    """Ratio of the binned signed pair density to its determinant-moment formula.

    LHS: the (0, 1) cell of the binned signed density around the two points.
    RHS: :func:`.kernel.lemma1_rhs` at the two points, -(pi/4) times the
         finite-n signed pair density, computed before any draw.

    The bins are DUALITY_HALFWIDTH either side of each point.  The ratio
    should not depend on the configuration; against the RHS averaged over
    the bins it is -4/pi, which the lemma1 campaign asserts.  Raises if the
    LHS is below DUALITY_MIN_SNR standard errors, with a suggested sample
    count, or is exactly 0.
    ``moment`` accepts only "quadrature".
    """
    pts = np.sort(point_array(points))
    if len(pts) != 2 or not pts[1] - pts[0] >= 2 * DUALITY_HALFWIDTH:
        raise UsageError("need two points separated by at least the bin width")
    if n <= 2:
        raise UsageError("matrix size must exceed the number of points")
    # kept with its one value because the benchmark's duality workload passes it
    if moment != "quadrature":
        raise UsageError(f"unknown moment method {moment!r}")
    _check_samples(samples)
    rhs = lemma1_rhs(n, pts[0], pts[1])
    bins = np.array([[pts[0] - DUALITY_HALFWIDTH, pts[0] + DUALITY_HALFWIDTH],
                     [pts[1] - DUALITY_HALFWIDTH, pts[1] + DUALITY_HALFWIDTH]])
    density = estimate_signed_density(n, bins, 2, samples, seed)
    lhs = float(density.values[0, 1])
    lhs_se = float(density.stderr[0, 1])
    if lhs == 0.0:
        # lhs / rhs would be a ratio of 0 with no error bar to scale a sample count
        why = "no draw put signed weight in the bins" if lhs_se == 0.0 else "the signed weights cancel to 0"
        raise RuntimeError(f"signed-density estimate too noisy: {why} in {samples} samples")
    if abs(lhs) < DUALITY_MIN_SNR * lhs_se:
        need = int(np.ceil(samples * (DUALITY_MIN_SNR * lhs_se / abs(lhs)) ** 2))
        raise RuntimeError(
            f"signed-density estimate too noisy ({lhs:.3e} +- {lhs_se:.3e}); "
            f"roughly {need} samples required"
        )
    ratio = lhs / rhs
    return DualityReport(
        points=tuple(pts),
        lhs=lhs,
        lhs_stderr=lhs_se,
        rhs=rhs,
        ratio=ratio,
        ratio_stderr=abs(ratio) * abs(lhs_se / lhs),
        n=n,
        n_samples=samples,
        seed=seed,
    )

"""Heat-flow characterization of the signed eigenvalue density.

The one-dimensional kernel used throughout is

    heat_kernel(t, x) = (pi t / 2)**-0.5 * exp(-2 x^2 / t),

a normalized Gaussian of variance t/4 solving (d/dt - (1/8) d^2/dx^2) g = 0.
The time-t signed density is a Pfaffian of its derivative at doubled time,

    signed_density_t(x, t) = (C_k / k!) * Pf[ d/dx_i heat_kernel(2t, x_i - x_j) ],

which solves the flat heat equation (d/dt - (1/8) Laplacian) u = 0 in the k
position variables and collapses, as t -> 0+, onto derivatives of delta
functions on the pair diagonals.  Finite differences certify the PDE at a
measured order of accuracy; quadrature against test functions certifies the
initial condition as a distributional pairing.  All test functions and all
times share one pass over the quadrature grid, walked in blocks of rows
through buffers allocated once per call, so that no whole-grid temporary is
formed: each block forms its separations' time-independent factors once and
finishes the kernel formula once per time.  Every step rounds as the
one-function, whole-grid ``np.trapezoid`` of ``pair_density_t`` does, so the
pairings are bit for bit those of the whole grid at once.

Also here: Gaussian solutions built from orthogonal projectors, including
the projector (on Hermitian matrices, inner product Tr AB) induced by a
skew-symmetric unitary, whose rank (k^2 + k)/2 produces the t-prefactor of
the matrix integral's heat flow.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError, _finite_positive, point_array, positive_time
from .kernel import moment_constant
from .pfaffian import pfaffian

PROJECTOR_TOL = 1e-12
#: grid rows per block of the initial-condition pairing.  Each of its buffers
#: holds 16 rows of the 801-point default grid (0.1 MB), allocated once per
#: call; 16 rows paired faster than 8, 32 or 64 on a 2-vCPU host.
_ROW_BLOCK = 16
#: np.exp underflows to exactly +0.0 below about -745.13, and takes 15 to 100
#: times longer per element on arguments near and past that point; the
#: kernel stores the +0.0 itself below this margin instead of calling it.
_EXP_ZERO_BELOW = -750.0


def heat_kernel(t: float, x):
    """(pi t / 2)**-0.5 * exp(-2 x^2 / t); unit mass, variance t/4."""
    t = positive_time(t)
    x = np.asarray(x, dtype=float)
    out = np.exp(-2.0 * x * x / t) / np.sqrt(np.pi * t / 2.0)
    return float(out) if out.ndim == 0 else out


def heat_kernel_d1(t: float, x):
    """d/dx of heat_kernel."""
    t = positive_time(t)
    x = np.asarray(x, dtype=float)
    out = _kernel_d1(-4.0 * x, -2.0 * x * x, t, np.empty_like(x), np.empty_like(x))
    return float(out) if out.ndim == 0 else out


def _kernel_d1(lin, quad, t: float, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """heat_kernel_d1(t, x) written into ``out``, given lin = -4.0 * x and quad = -2.0 * x * x.

    The one copy of the formula (-4 x / t) * exp(-2 x^2 / t) / sqrt(pi t / 2):
    its steps, read left to right, each rounded once, with ``work`` (the
    shape of ``out``) as scratch; exp is skipped, for the +0.0 it returns,
    below ``_EXP_ZERO_BELOW``.  Separations paired at several times form
    ``lin`` and ``quad`` once and call this once per time.
    """
    np.divide(lin, t, out=out)
    np.divide(quad, t, out=work)
    np.exp(work, out=work, where=work >= _EXP_ZERO_BELOW)
    np.maximum(work, 0.0, out=work)  # the skipped, negative entries become exp's +0.0
    out *= work
    out /= np.sqrt(np.pi * t / 2.0)
    return out


def signed_density_t(points, t: float) -> float:
    """(C_k / k!) * Pf[heat_kernel_d1(2t, x_i - x_j)] for even k.

    The entry function is odd, so the matrix is antisymmetric for any
    argument order; swapping two points flips the sign.
    """
    x = point_array(points, even=True)
    t = positive_time(t)
    k = len(x)
    d = x[:, None] - x[None, :]
    a = heat_kernel_d1(2.0 * t, d)
    return float(moment_constant(k) / math.factorial(k) * pfaffian(a))


def pair_density_t(delta, t: float):
    """Vectorized two-point signed density at separation delta = x1 - x2."""
    c = moment_constant(2) / 2.0
    return c * heat_kernel_d1(2.0 * t, np.asarray(delta, dtype=float))


def flat_heat_residual(fn, points, t: float, h: float, diffusion: float = 0.125) -> float:
    """Central-difference residual of (d/dt - diffusion * Laplacian) fn at (points, t).

    ``fn(points, t)`` must be smooth near the evaluation node and t > h.
    """
    h = _finite_positive(h, "step h")
    if not t > h:
        raise UsageError("need t > h for the centered time difference")
    x = point_array(points)
    dt = (fn(x, t + h) - fn(x, t - h)) / (2.0 * h)
    lap = 0.0
    f0 = fn(x, t)
    for i in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        lap += (fn(xp, t) - 2.0 * f0 + fn(xm, t)) / (h * h)
    return float(dt - diffusion * lap)


def residual_order(fn, points, t: float, h: float) -> float:
    """Measured convergence order log2 |R(h)| / |R(h/2)| of the residual.

    NaN when both residuals are exactly 0: the order is then undefined, and
    must fail any ``>=`` check instead of passing as infinite.
    """
    r1 = abs(flat_heat_residual(fn, points, t, h))
    r2 = abs(flat_heat_residual(fn, points, t, h / 2.0))
    if r2 == 0.0:
        return np.nan if r1 == 0.0 else np.inf
    return float(np.log2(r1 / r2))


def projector_solution(p: np.ndarray, t: float, x) -> float:
    """(2 pi t)**(-rank/2) * exp(-<x, P x> / (2t)) for an orthogonal projector P.

    Solves (d/dt - (1/2) Laplacian) u = 0 on the coordinate space; the rank
    is read off the trace.  Non-projector input raises.
    """
    p = np.asarray(p, dtype=float)
    t = positive_time(t)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("projector must be square")
    if np.max(np.abs(p - p.T)) > PROJECTOR_TOL * max(1.0, np.max(np.abs(p))):
        raise ValueError("projector must be symmetric")
    if np.max(np.abs(p @ p - p)) > 1e-10 * max(1.0, np.max(np.abs(p))):
        raise ValueError("projector must be idempotent")
    rank = float(np.trace(p))
    if abs(rank - round(rank)) > 1e-8:
        raise ValueError("projector trace is not an integer rank")
    x = np.asarray(x, dtype=float).reshape(-1)
    q = float(x @ p @ x)
    return float((2.0 * np.pi * t) ** (-round(rank) / 2.0) * np.exp(-q / (2.0 * t)))


def hermitian_basis(k: int) -> list:
    """Orthonormal basis of k x k Hermitians under <A, B> = Tr(A B)."""
    basis = []
    for i in range(k):
        e = np.zeros((k, k), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(k):
        for j in range(i + 1, k):
            e = np.zeros((k, k), dtype=complex)
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(e)
            f = np.zeros((k, k), dtype=complex)
            f[i, j] = 1j / np.sqrt(2.0)
            f[j, i] = -1j / np.sqrt(2.0)
            basis.append(f)
    return basis


def hermitian_projector(w: np.ndarray) -> np.ndarray:
    """Matrix of H |-> (H + W H^T conj(W)) / 2 on the Hermitian coordinate space.

    For a skew-symmetric unitary W this is an orthogonal projector of rank
    (k^2 + k)/2; returned in the orthonormal basis of :func:`hermitian_basis`,
    ready for :func:`projector_solution`.  A test oracle for the rank of the
    matrix integral's heat-flow prefactor; the package itself does not call it.
    """
    w = np.asarray(w, dtype=complex)
    k = w.shape[0]
    basis = hermitian_basis(k)
    dim = len(basis)
    out = np.empty((dim, dim))
    for b, eb in enumerate(basis):
        image = 0.5 * (eb + w @ eb.T @ w.conj())
        for a, ea in enumerate(basis):
            val = np.trace(ea @ image)
            if abs(val.imag) > 1e-10:
                raise ValueError("projector matrix is not real in the Hermitian basis")
            out[a, b] = val.real
    return out


@dataclass(frozen=True)
class PairingRow:
    t: float
    pairing: float


@dataclass(frozen=True)
class InitialConditionReport:
    """Pairings of signed_density_t against a test function as t decreases."""

    rows: tuple
    extrapolated: float
    target: float

    @property
    def error(self) -> float:
        return abs(self.extrapolated - self.target)


def _checked_range(half_range, grid: int) -> float:
    """``half_range`` as a float, once ``grid`` is an integer >= 2 and the range finite and positive."""
    if not isinstance(grid, (int, np.integer)) or grid < 2:
        raise UsageError(f"grid must be an integer >= 2, got {grid!r}")
    return _finite_positive(half_range, "half_range")


def delta_prime_target(test_fn, half_range: float = 8.0, grid: int = 4001, h: float = 1e-5) -> float:
    """-(C_2/2) * int d/du test_fn(v + u, v)|_{u=0} dv, the limiting pairing."""
    h = _finite_positive(h, "step h")
    half_range = _checked_range(half_range, grid)
    v = np.linspace(-half_range, half_range, grid)
    dphi = (test_fn(v + h, v) - test_fn(v - h, v)) / (2.0 * h)
    c = moment_constant(2) / 2.0
    return float(-c * np.trapezoid(dphi, dx=v[1] - v[0]))


def initial_condition_check(
    test_fns,
    t_sequence,
    half_range: float = 6.0,
    grid: int = 801,
) -> tuple:
    """Pairings of the two-point signed density against decaying test functions.

    Returns one :class:`InitialConditionReport` per function in ``test_fns``.
    Each pairing converges, at first order in t, to the distributional
    pairing with the derivative-of-delta initial data on the diagonal; a
    report carries the pairing sequence, its Richardson extrapolation
    (assuming the O(t) rate) and the independently computed target.  Raises
    :class:`UsageError`, before any grid work, unless ``grid`` is an integer
    >= 2, ``half_range`` is finite and positive and the two smallest times
    are distinct; raises ``ValueError`` for a test function that does not
    decay.

    All functions and times share one pass over the grid, in blocks of
    ``_ROW_BLOCK`` rows, through buffers allocated once per call.  Each block
    evaluates the functions on the broadcast coordinates ``xs[block, None]``
    and ``xs[None, :]``, and forms the separations delta with the
    time-independent factors -4 delta and (-2 delta) delta once.  Each time
    T = 2t then finishes ``pair_density_t`` = c * ``heat_kernel_d1(T, delta)``
    through the kernel's one helper: both factors divided by T, exp,
    product, division by sqrt(pi T / 2), times c.  For all functions at once
    it forms ``np.trapezoid``'s (step * (y[1:] + y[:-1])) / 2.0 in place and
    sums each row into the stored row integrals; the outer trapezoid runs
    over the stored rows.  This is bit for bit the whole-grid pairing of one
    function at a time: each elementwise step is the same IEEE operation on
    the same operands (the halving is a multiplication by 0.5, which rounds
    the same exact value), and the row sums reduce each contiguous row the
    same way, whatever the number of rows or functions.
    """
    half_range = _checked_range(half_range, grid)
    test_fns = tuple(test_fns)
    ts = sorted(positive_time(t) for t in t_sequence)
    if len(ts) < 2:
        raise UsageError("need at least two positive times")
    if ts[0] == ts[1]:
        raise UsageError("need two distinct smallest times for the Richardson step")
    for test_fn in test_fns:
        far = max(
            abs(float(test_fn(np.array(half_range + 2.0), np.array(0.0)))),
            abs(float(test_fn(np.array(0.0), np.array(half_range + 2.0)))),
            abs(float(test_fn(np.array(half_range + 2.0), np.array(-half_range - 2.0)))),
        )
        near = abs(float(test_fn(np.array(0.1), np.array(-0.1)))) + 1e-12
        if far > 1e-6 * max(near, 1.0):
            raise ValueError("test function must decay away from the origin")
    targets = [delta_prime_target(test_fn) for test_fn in test_fns]
    xs = np.linspace(-half_range, half_range, grid)
    step = xs[1] - xs[0]
    c = moment_constant(2) / 2.0
    block_rows = min(_ROW_BLOCK, grid)
    kernel_buf = np.empty((4, block_rows, grid))
    fn_buf = np.empty((2, len(test_fns), block_rows, grid))
    sums_buf = np.empty((len(test_fns), block_rows, grid - 1))
    row_integrals = np.empty((len(test_fns), len(ts), grid))
    for start in range(0, grid, block_rows):
        block = slice(start, start + block_rows)
        x1, x2 = xs[block, None], xs[None, :]
        n = len(x1)  # the last block may be short
        lin, quad, dens, work = kernel_buf[:, :n]
        weights, terms = fn_buf[:, :, :n]
        pair_sums = sums_buf[:, :n]
        for weight, test_fn in zip(weights, test_fns):
            weight[...] = test_fn(x1, x2)
        delta = np.subtract(x1, x2, out=quad)
        np.multiply(-4.0, delta, out=lin)
        np.multiply(np.multiply(-2.0, delta, out=work), delta, out=quad)
        for j, t in enumerate(ts):
            _kernel_d1(lin, quad, 2.0 * t, dens, work)
            dens *= c
            np.multiply(dens, weights, out=terms)
            np.add(terms[..., 1:], terms[..., :-1], out=pair_sums)
            pair_sums *= step
            pair_sums *= 0.5  # np.trapezoid's / 2.0: the same exact value, rounded once
            np.add.reduce(pair_sums, axis=-1, out=row_integrals[:, j, block])
    ratio = ts[1] / ts[0]
    reports = []
    for per_time, target in zip(row_integrals, targets):
        rows = tuple(
            PairingRow(t=t, pairing=float(np.trapezoid(inner, dx=step)))
            for t, inner in zip(ts, per_time)
        )
        p_small, p_next = rows[0].pairing, rows[1].pairing
        extrapolated = (ratio * p_small - p_next) / (ratio - 1.0)
        reports.append(InitialConditionReport(rows=rows, extrapolated=float(extrapolated), target=target))
    return tuple(reports)

"""Matrix integrals over unitaries and skew-symmetric unitaries.

The central object is, for a real diagonal X = Diag(x) with even size k,

    I_t(x) = E_U[ exp(-Tr((H - H^R)^2) / (2t)) ],   H = U X U^dagger,

with U Haar on U(k) and H^R = J H^T J^{-1} the symplectic dual of H
(J the canonical symplectic matrix; note J^{-1} = -J).  Equivalently

    I_t(x) = prod_k exp(-x_k^2/t) * E_W[ exp(Tr(W^dagger X W X) / t) ]

with W Haar on the skew-symmetric unitaries, realized as W = U J U^T.

Up to a k-dependent constant the integral equals an explicit ratio of a
Pfaffian to a Vandermonde (``exact_shape``); the constant is handled by a
fit-then-verify protocol, never asserted.  ``exact_shape`` is oriented so
that its ratio to the (manifestly positive) integral is positive: the
upper-triangular entries carry (x_j - x_i), positive for ordered input.

Monte Carlo draws come in blocks of HAAR_BLOCK unitaries, block b from the
RNG stream keyed by (seed, b), and the per-draw values are reduced in index
order: an estimate is fixed, bit for bit, by its seed and HAAR_BLOCK.  A
block's stream gives all its real Gaussian parts, then the imaginary parts in
draw order: those of each chunk of _HAAR_CHUNK draws just before the chunk
goes through QR and the trace.  Every step after the draw treats each draw on
its own, so the chunk width sets the memory held, never a bit; the grid holds
the traces, one block's real parts and one chunk.  For two points the
integrand is constant over the group, and the integral is computed in closed
form.

The exact two-point determinant moment E_n[det(M - x1) det(M - x2)], the
oracle for the Monte Carlo moment, is here too; its integer sum is in
:mod:`.kernel`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import stream
from .errors import UsageError, at_least, point_array, positive_time
from .kernel import moment_numerator
from .pfaffian import canonical_symplectic, pfaffian
from .sampler import Estimate, _estimate

HAAR_BLOCK = 4096
_HAAR_CHUNK = 512  # draws per QR and trace pass; changes memory, not bits
UNITARITY_TOL = 1e-12


def _haar_from_normals(ar: np.ndarray, ai: np.ndarray) -> np.ndarray:
    """The (count, k, k) Haar unitaries of real and imaginary Gaussian parts.

    QR of the complex Gaussian matrices with the column phases fixed by the
    diagonal of R; without the phase correction the distribution is not
    Haar.  Each matrix is factored on its own, so a slice of the Gaussians
    gives the same slice of the unitaries.
    """
    q, r = np.linalg.qr((ar + 1j * ai) / np.sqrt(2.0))
    d = np.einsum("mii->mi", r)
    return q * (d / np.abs(d))[:, None, :]


def _haar_chunks(rng: np.random.Generator, real: np.ndarray, imag: np.ndarray):
    """Yield the Haar unitaries of ``len(real)`` draws, ``len(imag)`` at a time.

    All real Gaussian parts go into ``real`` first, then each chunk's imaginary
    parts into ``imag``.  The normals are one stream, so this is, bit for bit,
    ``rng.normal(size=real.shape)`` drawn twice (``+= 0.0`` is its ``loc``,
    which turns -0.0 into +0.0).
    """
    rng.standard_normal(out=real)
    real += 0.0
    for lo in range(0, len(real) or 1, len(imag) or 1):  # no draws: one empty chunk
        ai = imag[:len(real) - lo]
        rng.standard_normal(out=ai)
        ai += 0.0
        yield _haar_from_normals(real[lo:lo + len(ai)], ai)


def haar_unitaries(k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """A (count, k, k) stack of independent Haar unitaries drawn from ``rng``."""
    return next(_haar_chunks(rng, np.empty((count, k, k)), np.empty((count, k, k))))


def to_skew_unitary(u: np.ndarray) -> np.ndarray:
    """W = U J U^T: skew-symmetric unitary from a unitary of even size."""
    k = u.shape[-1]
    if k % 2:
        raise UsageError(f"skew-symmetric unitaries need even size, got {k}")
    j = canonical_symplectic(k)
    w = u @ j @ np.swapaxes(u, -1, -2)
    skew_defect = np.max(np.abs(w + np.swapaxes(w, -1, -2)))
    unit_defect = np.max(np.abs(w @ w.conj().swapaxes(-1, -2) - np.eye(k)))
    if max(skew_defect, unit_defect) > 100 * UNITARITY_TOL:
        raise ValueError("construction lost skewness or unitarity")
    return w


def symplectic_dual(h: np.ndarray) -> np.ndarray:
    """H^R = J H^T J^{-1} = -J H^T J, an involution preserving Tr(H^2)."""
    k = h.shape[-1]
    j = canonical_symplectic(k)
    return -j @ np.swapaxes(h, -1, -2) @ j


def integrand_pair(u: np.ndarray, points, t: float = 1.0):
    """Both integrand forms evaluated on the same unitary.

    Returns (a, b): ``a`` is exp(-Tr((H - H^R)^2)/(2t)) with H = U X U^dagger;
    ``b`` is prod exp(-x^2/t) * exp(Tr(W^dagger X W X)/t) with W = U J U^T.
    The two agree as integrals over Haar measure (the skew-unitary variable
    is reshuffled), not pointwise.  A test oracle for the Monte Carlo
    integrand; the package itself does not call it.
    """
    x = point_array(points, even=True)
    t = positive_time(t)
    xd = np.diag(x).astype(complex)
    h = u @ xd @ u.conj().T
    d = h - symplectic_dual(h)
    a = float(np.exp(-np.sum(np.abs(d) ** 2) / (2.0 * t)))
    w = to_skew_unitary(u)
    tr = np.trace(w.conj().T @ xd @ w @ xd).real
    b = float(np.exp(-np.sum(x * x) / t) * np.exp(tr / t))
    return a, b


def _dual_gap_norms(re, im, x, scratch, out) -> None:
    """sum |H - H^R|^2 per draw, H = U Diag(x) U^dagger, into ``out``.

    ``re[j, i]`` and ``im[j, i]`` are the real and imaginary parts of
    U[:, i, j], draws last.  ``scratch`` holds float (2, k, k, width) and
    (2, k, width) arrays, a complex (width, k, k) one and a float
    (width, k, k) one, for any width of at least ``len(out)`` draws.
    """
    m, k = len(out), len(x)
    (hr, hi), (xr, xi) = scratch[0][..., :m], scratch[1][..., :m]
    d, mag = scratch[2][:m], scratch[3][:m]
    # d is free until the dual step, so the products are formed in its memory
    ta, tb = d.view(float).reshape(2, k, k, m)
    hr.fill(0.0)
    hi.fill(0.0)
    for j in range(k):
        np.multiply(re[j], x[j], out=xr)  # Re(U_ij) x_j at [i]
        np.multiply(im[j], x[j], out=xi)
        # Re and Im of (U_ij x_j) conj(U_lj) at [i, l], rounded as the einsum rounds
        np.multiply(xr[:, None], re[j], out=ta)
        np.multiply(xi[:, None], im[j], out=tb)
        ta += tb
        hr += ta
        np.multiply(xi[:, None], re[j], out=ta)
        np.multiply(xr[:, None], im[j], out=tb)
        ta -= tb
        hi += ta
    # H^R[a, b] = s_a s_b H[b^1, a^1] with s = (+1, -1, +1, ...): J permutes
    # and flips signs.  With a = 2A + alpha, a^1 reverses alpha.  mag is free
    # until the norms, so the dual is formed in its memory.
    k2 = k // 2
    s = np.array([1.0, -1.0])
    sign = s[:, None, None, None] * s[:, None]  # s_alpha s_beta at [alpha, :, beta, :]
    dual = mag.reshape(k2, 2, k2, 2, m)
    gap = d.reshape(m, k2, 2, k2, 2).transpose(1, 2, 3, 4, 0)  # H - H^R, draws last
    for part, plane in ((gap.real, hr), (gap.imag, hi)):
        h5 = plane.reshape(k2, 2, k2, 2, m)
        np.multiply(h5[:, ::-1, :, ::-1].transpose(2, 3, 0, 1, 4), sign, out=dual)
        np.subtract(h5, dual, out=part)
    np.abs(d, out=mag)
    np.sum(np.square(mag, out=mag), axis=(1, 2), out=out)


def _grid_traces(configs, samples: int, seed: int) -> np.ndarray:
    """integral_mc_grid's draw loop: sum |H - H^R|^2 per config and draw.

    Its buffers and every view of them are freed before the estimates."""
    k = len(configs[0])
    tr_vals = np.empty((len(configs), samples))
    width = min(_HAAR_CHUNK, HAAR_BLOCK, samples)
    real, imag = np.empty((min(HAAR_BLOCK, samples), k, k)), np.empty((width, k, k))
    planes = np.empty((2, k, k, width))
    scratch = (
        np.empty((2, k, k, width)),
        np.empty((2, k, width)),
        np.empty((width, k, k), dtype=complex),
        np.empty((width, k, k)),
    )
    for b, done in enumerate(range(0, samples, HAAR_BLOCK)):
        take = min(HAAR_BLOCK, samples - done)
        chunks = _haar_chunks(stream(seed, b), real[:take], imag)
        for lo in range(done, done + take, width):
            hi = min(lo + width, done + take)
            u = next(chunks)
            re, im = planes[..., :hi - lo]
            np.copyto(re, u.real.transpose(2, 1, 0))
            np.copyto(im, u.imag.transpose(2, 1, 0))
            del u  # not held through the next chunk's QR
            for ci, x in enumerate(configs):
                _dual_gap_norms(re, im, x, scratch, tr_vals[ci, lo:hi])
    return tr_vals


def integral_mc_grid(configs, ts, samples: int, seed: int):
    """I_t estimates on a (config, t) grid sharing one set of Haar draws.

    Sharing draws makes the fitted-constant comparison across the grid a
    paired comparison, and costs one QR sweep instead of one per grid node.
    Returns a list of lists of Estimates, indexed [config][t].  The draws
    are keyed by blocks of HAAR_BLOCK unitaries, read at call time: block b
    comes from stream(seed, b), so another block size draws other unitaries.
    A block's real Gaussian parts are drawn into one buffer, then each chunk
    of _HAAR_CHUNK draws has its imaginary parts drawn and goes through QR and
    the trace.  Each matrix is factored on its own and every later step is
    elementwise or a sum within one draw, so the chunk width bounds the
    temporaries held and changes no bit: the grid holds the traces, one
    block's real parts and one chunk.

    Each chunk of unitaries is copied once into real and imaginary planes
    with the draw index last, so every product is one whole-array pass.
    The planes give, bit for bit, the traces of the reference form: H from
    the three-operand einsum "mij,jk,mlk->mil" of U, Diag(x) and conj(U),
    then H^R from matrix products with J.  To stay exact, each term is the
    einsum's complex product ((U_ij x_j) conj(U_lj)) written out in real
    parts (numpy's vectorized complex multiply rounds differently), the
    terms are added from 0 in the einsum's order j = 0, ..., k-1, and J,
    a signed permutation, becomes a relabelling with sign flips.  |H - H^R|
    is taken on a complex array, as the reference does: complex abs is not
    bitwise a hypot of the parts.  tests/test_group_integrals.py keeps the
    reference and compares the two.
    """
    configs = [point_array(c, even=True) for c in configs]
    if len({len(c) for c in configs}) != 1:
        raise UsageError("need one or more configurations, all of the same size")
    ts = [positive_time(t) for t in ts]
    samples = at_least(samples, 2, "samples")
    tr_vals = _grid_traces(configs, samples, seed)
    vals = np.empty(samples)  # exp(-tr / (2t)), one operation at a time in one array
    return [
        [
            _estimate(np.exp(np.divide(np.negative(tr, out=vals), 2.0 * t, out=vals), out=vals), seed)
            for t in ts
        ]
        for tr in tr_vals
    ]


def integral_quadrature_k2(x1: float, x2: float, t: float) -> float:
    """I_t for two points, exp(-(x1 - x2)^2/t), in closed form.

    For size 2 every skew-symmetric unitary is w*J with |w| = 1, and
    Tr(W^dagger X W X) = 2*x1*x2 at each of them, so the integrand is
    constant over the group.  The name is kept because the benchmark
    traces it.
    """
    t = positive_time(t)
    x1, x2 = point_array((x1, x2))
    return float(np.exp(-((x1 - x2) ** 2) / t))


def vandermonde(points) -> float:
    """prod_{i<j} (x_j - x_i)."""
    x = np.asarray(points, dtype=float).reshape(-1)
    v = 1.0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            v *= x[j] - x[i]
    return float(v)


def exact_shape(points, t: float) -> float:
    """Pf[((x_j - x_i)/sqrt(t)) exp(-(x_i - x_j)^2/t)] / V(x / sqrt(t)).

    The configuration-shape of the integral I_t, without its k-dependent
    constant.  Depends on x and t only through x/sqrt(t); invariant under
    permutations of the points (Pfaffian and Vandermonde signs cancel).
    """
    x = point_array(points, even=True)
    t = positive_time(t)
    d = x[None, :] - x[:, None]  # d[i, j] = x_j - x_i
    if np.any((d == 0) & ~np.eye(len(x), dtype=bool)):
        raise UsageError("points must be distinct")
    a = (d / np.sqrt(t)) * np.exp(-d * d / t)
    return float(pfaffian(a)) / vandermonde(x / np.sqrt(t))


@dataclass(frozen=True)
class ShapeFitRow:
    points: tuple
    t: float
    value: float
    stderr: float
    shape: float
    fitted_constant: float


def fit_shape_constant(values, configs, ts) -> tuple:
    """Fit-then-verify: one constant from the first grid node, spread over the rest.

    ``values`` is whatever estimator produced I_t on the (config, t) grid:
    Estimates or plain floats, indexed [config][t].  Returns (rows, spread)
    where spread is max |fitted/reference - 1| over the grid (NaN if any
    node is NaN).  A node whose ``exact_shape`` underflows to 0 raises
    ArithmeticError naming the node.
    """
    rows = []
    ref = None
    for ci, cfg in enumerate(configs):
        for ti, t in enumerate(ts):
            v = values[ci][ti]
            mean, se = (v.mean, v.stderr) if isinstance(v, Estimate) else (float(v), 0.0)
            shape = exact_shape(cfg, t)
            if shape == 0.0:
                pts = tuple(float(p) for p in np.asarray(cfg, dtype=float))
                raise ArithmeticError(
                    f"exact_shape underflowed to 0 at points {pts}, t = {float(t)!r}"
                )
            c = mean / shape
            if ref is None:
                ref = c
            rows.append(
                ShapeFitRow(
                    points=tuple(np.asarray(cfg, dtype=float)),
                    t=float(t),
                    value=mean,
                    stderr=se,
                    shape=shape,
                    fitted_constant=c,
                )
            )
    spread = float(np.max([abs(r.fitted_constant / ref - 1.0) for r in rows]))
    return rows, spread


def charpoly_moment_quadrature(n: int, x1: float, x2: float) -> float:
    """E_n[det(M - x1) det(M - x2)] as an exact finite sum.

    The two-point determinant moment has an exact one-complex-variable
    integral representation: a standard complex Gaussian weight
    exp(-|z|^2) / pi against the n-th power of the Pfaffian of
    [[Z/sqrt(2), X], [-X, Z^dagger/sqrt(2)]] with Z = [[0, z], [-z, 0]],
    oriented so that n = 1 reproduces the direct Gaussian moment
    x1*x2 + 1/2.  That integrand is (|z|^2/2 + x1*x2)^n, and |z|^2 is
    Exp(1) under the weight, so E[(|z|^2/2)^k] = k!/2^k and the binomial
    expansion gives

        sum_{k=0}^{n} C(n, k) (x1*x2)^(n-k) k! / 2^k = (n!/2^n) e_n(2 x1 x2).

    :func:`.kernel.moment_numerator` forms it in integers and rounds
    once: the correctly rounded moment at the double x1*x2.
    """
    n = at_least(n, 1, "matrix rows")
    x1, x2 = point_array((x1, x2))
    total, b = moment_numerator(n, x1, x2)
    return total / (2 * b) ** n

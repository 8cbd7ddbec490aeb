"""Closed-form bulk-limit statistics of real eigenvalues.

The limiting point process is Pfaffian: the k-point correlation is the
Pfaffian of a 2k x 2k antisymmetric matrix assembled from a 2x2 kernel
block built out of the normalized Gaussian tail

    gauss_tail(x) = pi**-0.5 * int_x^inf exp(-z**2) dz = erfc(x) / 2.

Also provided: the signed ("modified") k-point density, the spin-product
moments it integrates to, and the normalization constant (4/pi)**(k/4)
fixed by requiring coincident spin pairs to have unit moment.

All functions are pure and thread-safe.  Positions are in the units of the
exp(-Tr M M^T) matrix normalization; no rescaling is applied here.
"""

import numpy as np

from .errors import UsageError, point_array
from .pfaffian import pfaffian

SQRT_PI = float(np.sqrt(np.pi))

#: Half-line integrals of the signed density reproduce the spin moments for
#: the density scaled by this factor (the Pfaffian display of signed_density
#: carries the full (4/pi)**(k/4) normalization, which double counts each
#: merged pair by 2; measured and pinned for k = 2).
DENSITY_CALIBRATION = 0.5


def gauss_tail(x):
    """Normalized Gaussian tail pi**-0.5 * int_x^inf exp(-z*z) dz."""
    from scipy.special import erfc

    return 0.5 * erfc(x)


def gauss_tail_d1(x):
    """First derivative of gauss_tail: -pi**-0.5 * exp(-x*x)."""
    x = np.asarray(x, dtype=float)
    out = -np.exp(-x * x) / SQRT_PI
    return float(out) if out.ndim == 0 else out


def gauss_tail_d2(x):
    """Second derivative of gauss_tail: 2x * pi**-0.5 * exp(-x*x)."""
    x = np.asarray(x, dtype=float)
    out = 2.0 * x * np.exp(-x * x) / SQRT_PI
    return float(out) if out.ndim == 0 else out


def moment_constant(k: int) -> float:
    """(4/pi)**(k/4), the even-k normalization fixed by unit coincident pairs."""
    if k <= 0 or k % 2:
        raise UsageError(f"normalization defined for positive even k, got {k}")
    return float((4.0 / np.pi) ** (k / 4.0))


def kernel_block(z: float) -> np.ndarray:
    """2x2 kernel block at separation z.

    [[-gauss_tail_d2(z), -gauss_tail_d1(z)],
     [ gauss_tail_d1(z), sgn(z) * gauss_tail(|z|)]]

    with sgn(0) = 0, so the coincident block is exactly antisymmetric and
    the block identity H(-z) = -H(z)^T holds to the last bit.
    """
    z = float(z)
    d1 = gauss_tail_d1(z)
    d2 = gauss_tail_d2(z)
    corner = np.sign(z) * gauss_tail(abs(z))
    return np.array([[-d2, -d1], [d1, corner]])


def correlation_matrix(points) -> np.ndarray:
    """The 2k x 2k antisymmetric matrix with (i, j) block kernel_block(x_j - x_i)."""
    pts = np.sort(point_array(points))
    if np.any(np.diff(pts) == 0.0):
        raise UsageError("coincident points are not allowed here")
    k = len(pts)
    a = np.empty((2 * k, 2 * k))
    for i in range(k):
        for j in range(k):
            a[2 * i:2 * i + 2, 2 * j:2 * j + 2] = kernel_block(pts[j] - pts[i])
    return a


def correlation(points) -> float:
    """k-point correlation of the limiting process: Pf of the block matrix.

    Symmetric in its arguments; unordered input is sorted internally.
    Coincident points raise (the process is simple).
    """
    return float(pfaffian(correlation_matrix(points)))


def signed_density(points) -> float:
    """Signed k-point density (k even):

        (4/pi)**(k/4) * Pf[(x_i - x_j) * exp(-(x_i - x_j)**2)]_{i<j}

    Antisymmetric under argument transpositions: the matrix is taken in
    input order, and the Pfaffian carries the sign of any reordering.
    """
    pts = point_array(points, even=True)
    d = pts[None, :] - pts[:, None]
    a = (-d) * np.exp(-d * d)  # a[i, j] = (x_i - x_j) exp(-(x_i-x_j)^2)
    return moment_constant(len(pts)) * float(pfaffian(a))


def spin_correlation(points) -> float:
    """Moment of a product of k spin variables at the given positions (k even).

    Equals (4/pi)**(k/4) * Pf[int_{x_j - x_i}^inf exp(-z*z) dz]_{i<j}; the
    normalization and the sqrt(pi)/2 of each tail integral cancel exactly,
    leaving plain Pf[erfc(x_j - x_i)].  Ties are allowed: a coincident pair
    contributes erfc(0) = 1 exactly.
    """
    from scipy.special import erfc

    srt = np.sort(point_array(points, even=True))
    d = srt[None, :] - srt[:, None]  # d[i, j] = x_j - x_i
    a = np.triu(erfc(d), 1)
    a = a - a.T
    return float(pfaffian(a))

"""Closed-form laws of real eigenvalues: the bulk limit, and at finite n.

The limiting point process is Pfaffian: the k-point correlation is the
Pfaffian of a 2k x 2k antisymmetric matrix assembled from a 2x2 kernel
block built out of the normalized Gaussian tail

    gauss_tail(x) = pi**-0.5 * int_x^inf exp(-z**2) dz = erfc(x) / 2.

Also provided: the signed ("modified") k-point density, the spin-product
moments it integrates to, and the normalization constant (4/pi)**(k/4)
fixed by requiring coincident spin pairs to have unit moment.

The signed density is a Pfaffian of the two-point one,
rho_2(x1, x2) = pi**-0.5 (x1 - x2) exp(-(x1 - x2)**2).  A Pfaffian of k/2
pairs scales by c**(k/2) when every entry scales by c, and
(4/pi)**(k/4) = 2**(k/2) * (pi**-0.5)**(k/2), so

    signed_density(x) = 2**(k/2) * Pf[rho_2(x_i, x_j)].

The density whose integrals give the spin moments, and which the Monte
Carlo estimator measures, is Pf[rho_2(x_i, x_j)]: 2**(-k/2) times
signed_density, 0.5 at k = 2 and 0.25 at k = 4.

At finite n the laws are finite sums: E_m[det(M - x1) det(M - x2)] =
(m!/2**m) e_m(2 x1 x2) over m x m draws, e_m(z) = sum_{j<=m} z**j / j!, gives
rho_2^n(x1, x2) = pi**-0.5 (x1 - x2) exp(-x1**2 - x2**2) e_{n-2}(2 x1 x2).  As
n -> infinity, rho_2^n -> rho_2 with x1, x2 unscaled: no dilation enters.

erfc is computed here, by _erfc, a port of the Cephes ndtr.c erfc/erf pair
that scipy.special ships: the same coefficients, Horner steps, branch
points and underflow cut, so it returns scipy.special.erfc's bits without
loading scipy.special (about 24 MB resident with scipy 1.17).  Its
exponential is math.exp, the C library exp that the compiled Cephes code
calls; numpy's vectorized exp rounds some arguments differently.

All functions are pure and thread-safe.  Positions are in the units of the
exp(-Tr M M^T) matrix normalization; no rescaling is applied here.
"""

import math

import numpy as np

from .errors import UsageError, point_array
from .pfaffian import pfaffian

SQRT_PI = float(np.sqrt(np.pi))

# Cephes ndtr.c: erfc(x) = exp(-x*x) P(x)/Q(x) for 1 <= |x| < 8 and
# exp(-x*x) R(x)/S(x) beyond; erf(x) = x T(x*x)/U(x*x) for |x| < 1.  Q, S and
# U lead with the 1.0 that Cephes' p1evl implies: 1.0 * x + c is x + c exactly.
_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
#: log(DBL_MAX); Cephes returns 0 or 2 once -x*x falls below -MAXLOG
_MAXLOG = 7.09782712893383996843e2


def _polevl(x: float, coef) -> float:
    """Cephes polevl: Horner's rule from the leading coefficient."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erfc_scalar(a: float) -> float:
    """Cephes erfc at one Python float, step for step."""
    if math.isnan(a):
        return math.nan
    x = abs(a)
    if x < 1.0:
        # 1 - erf(a); Cephes forms erf(a) as -erf(-a) for a < 0, the same bits
        z = a * a
        return 1.0 - a * _polevl(z, _T) / _polevl(z, _U)
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        p, q = _polevl(x, _P), _polevl(x, _Q)
    else:
        p, q = _polevl(x, _R), _polevl(x, _S)
    y = z * p / q
    # Cephes' underflow exit returns 0.0 or 2.0, the values this gives there
    return 2.0 - y if a < 0 else y


def _erfc(x):
    """scipy.special.erfc, bit for bit, elementwise: a 0-d input gives
    np.float64 and an array keeps its shape."""
    x = np.asarray(x, dtype=float)
    return np.array([_erfc_scalar(v) for v in x.ravel().tolist()]).reshape(x.shape)[()]


def gauss_tail(x):
    """Normalized Gaussian tail pi**-0.5 * int_x^inf exp(-z*z) dz."""
    return 0.5 * _erfc(x)


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
    srt = np.sort(point_array(points, even=True))
    i, j = np.triu_indices(len(srt), 1)
    a = np.zeros((len(srt), len(srt)))
    a[i, j] = _erfc(srt[j] - srt[i])
    a = a - a.T
    return float(pfaffian(a))


def pair_density(x1, x2):
    """rho_2 = pi**-0.5 (x1 - x2) exp(-(x1 - x2)**2), the n = infinity law, elementwise."""
    d = x1 - x2
    return moment_constant(2) / 2.0 * (d * np.exp(-d * d))


def cell_average(f, lo1, hi1, lo2, hi2) -> float:
    """f averaged over the cell [lo1, hi1] x [lo2, hi2] by 5 x 5 Gauss-Legendre;
    ``f`` maps a column and a row of nodes to their values, added in row order."""
    u, w = np.polynomial.legendre.leggauss(5)
    x1 = 0.5 * (hi1 - lo1) * u + 0.5 * (hi1 + lo1)
    x2 = 0.5 * (hi2 - lo2) * u + 0.5 * (hi2 + lo2)
    total = 0.0
    for term in (f(x1[:, None], x2[None, :]) * np.outer(w, w)).flat:
        total += term
    return float(total * 0.25)


def moment_numerator(m: int, x1: float, x2: float) -> tuple:
    """(N, b) with x1*x2 = a/b exactly, b a power of two, and
    N = sum_{k<=m} perm(m, k) a^(m-k) b^k 2^(m-k): then E_m[det(M - x1)
    det(M - x2)] = N / (2b)^m and e_m(2 x1 x2) = N / (m! b^m), each a
    correctly rounded quotient of integers even where the terms cancel.
    """
    a, b = float(x1 * x2).as_integer_ratio()
    # nested, with c = 2a: N = c^m + m b (c^(m-1) + (m-1) b (... + 1 b)), so
    # each step multiplies by 2a and by i b instead of forming a power afresh
    total, power = 1, 1
    for i in range(1, m + 1):
        power *= 2 * a
        total = power + i * b * total
    return total, b


def lemma1_rhs(n: int, x1: float, x2: float) -> float:
    """Lemma 1's right-hand side (:func:`.sampler.duality_check`), -(pi/4) rho_2^n(x1, x2):
    V(x)/16 prod_k |S_{n-k}| pi**(-(n-k)/2) exp(-x_k**2) E_{n-2}[det(M - x1) det(M - x2)],
    |S_m| the unit sphere area in R**(m+1), is by the duplication formula
    (sqrt(pi)/4) (x2 - x1) exp(-x1**2 - x2**2) e_{n-2}(2 x1 x2), with e_{n-2} one
    correctly rounded quotient of integers."""
    total, b = moment_numerator(n - 2, x1, x2)
    e_m = total / (math.factorial(n - 2) * b ** (n - 2))
    return float(np.sqrt(np.pi) / 4.0 * (x2 - x1) * np.exp(-x1 ** 2 - x2 ** 2) * e_m)


def lemma1_rhs_average(n: int, lo1, hi1, lo2, hi2) -> float:
    """:func:`lemma1_rhs` averaged over a cell by :func:`cell_average`'s rule."""

    def at_nodes(col, row):  # one integer sum per node, at Python floats
        return np.array([[lemma1_rhs(n, a, b) for b in row.ravel().tolist()] for a in col.ravel().tolist()])

    return cell_average(at_nodes, lo1, hi1, lo2, hi2)


def pair_density_n_average(n: int, lo1, hi1, lo2, hi2) -> float:
    """rho_2^n averaged over a cell: -4/pi times :func:`lemma1_rhs_average`."""
    return -4.0 / np.pi * lemma1_rhs_average(n, lo1, hi1, lo2, hi2)


def expected_real_count(n: int) -> float:
    """Exact mean number of real eigenvalues of an n x n draw (1, sqrt(2),
    1 + 1/sqrt(2), ... ~ sqrt(2n/pi)), by the sums of Edelman, Kostlan and
    Shub (J. AMS 7, 1994), with (-1)!! = 0!! = 1:

        even n: sqrt(2) * sum_{0 <= k < n/2} (4k-1)!!/(4k)!!
        odd n:  1 + sqrt(2) * sum_{1 <= k <= (n-1)/2} (4k-3)!!/(4k-2)!!
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise UsageError(f"matrix size must be a positive integer, got {n!r}")
    n = int(n)
    top = 2 * n - 4
    # S = sum (j-1)!!/j!! = sum C(j, j/2)/2^j over j = top, top-4, ... >= 0 is num/2^top,
    # num by Horner in 2^4; 2 S^2 is rounded once and sqrt(2 S^2) once
    num, c = 0, 1
    for j in range(0, top + 1, 2):
        if (top - j) % 4 == 0:
            num = 16 * num + c
        c = c * 4 * (j + 1) // (j + 2)
    return n % 2 + math.sqrt(2 * num * num / 4**top)

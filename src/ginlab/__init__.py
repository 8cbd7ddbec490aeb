"""ginlab: numerical laboratory for real-eigenvalue statistics of the
real Ginibre ensemble (Pfaffian point process limits, matrix integrals
over skew-symmetric unitaries, stationary-phase combinatorics and the
heat-flow characterization of the signed eigenvalue density).

Importing the package, or ``ginlab.cli``, loads neither scipy nor
numpy.random, and nothing in the package imports scipy: erfc and the exact
real count are computed in ``kernel``, and numpy.random loads with the first
RNG stream."""

from .kernel import (
    correlation,
    expected_real_count,
    gauss_tail,
    kernel_block,
    moment_constant,
    signed_density,
    spin_correlation,
)
from .linalg import Spectrum, real_schur, sign_det
from .pfaffian import (
    Matching,
    canonical_symplectic,
    enumerate_matchings,
    inversions,
    pfaffian,
    pfaffian_matchings,
)
from .sampler import (
    BinnedDensity,
    Estimate,
    GinOESample,
    duality_check,
    estimate_charpoly_moment,
    estimate_real_count,
    estimate_signed_density,
    estimate_spin_moments,
    sample_ginoe,
    spin,
)

__version__ = "0.1.0"

__all__ = [
    "BinnedDensity",
    "Estimate",
    "GinOESample",
    "Matching",
    "Spectrum",
    "canonical_symplectic",
    "correlation",
    "duality_check",
    "enumerate_matchings",
    "estimate_charpoly_moment",
    "estimate_real_count",
    "estimate_signed_density",
    "estimate_spin_moments",
    "expected_real_count",
    "gauss_tail",
    "inversions",
    "kernel_block",
    "moment_constant",
    "pfaffian",
    "pfaffian_matchings",
    "real_schur",
    "sample_ginoe",
    "sign_det",
    "signed_density",
    "spin",
    "spin_correlation",
    "__version__",
]

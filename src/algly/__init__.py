"""Gauge-type Lyapunov functions from polynomial invariant sets.

Construction: decompose a polynomial P with P(0) < 0 into homogeneous
parts, homogenize, and define the scaling function tau(x) as the unique
positive root of the homogenized polynomial along each ray.  Checks:
star-convexity of the set (unicity of the root), invariance of the
boundary under a homogeneous vector field, strict decrease of tau along
trajectories, and verification of supplied Gram / multiplier
certificates.
"""

from .alf import (
    HomogenizedLyapunov,
    StarConvexityFailure,
    StarConvexityReport,
    sample_directions,
)
from .certs import (
    GramCertificate,
    GramReport,
    MultiplierCertificate,
    expand_quadratic_form,
    gram_euler_identity,
    verify_gram,
    verify_multiplier,
)
from .dynsys import (
    PolyVectorField,
    Trajectory,
    VerificationReport,
    check_decrease,
    check_homogeneity,
    check_invariance,
    linear,
    rk4,
)
from .errors import (
    AlglyError,
    CertificateError,
    DecayRateOverflowError,
    DegenerateGradientError,
    DegreeError,
    DimensionMismatchError,
    ExponentError,
    MixedDegreesError,
    MultiplePositiveRootsError,
    NoPositiveRootError,
    OriginNotInteriorError,
    ParseError,
    VariableIndexError,
    ZeroPolynomialError,
)
from .homogenize import (
    HomogeneousDecomposition,
    euler_residual,
    homogeneous_parts,
    homogenize,
    tau_coefficients,
)
from .polycore import MultiPoly, parse
from .roots import RootList, UniPoly, positive_roots

__version__ = "0.1.0"

__all__ = [
    "AlglyError",
    "CertificateError",
    "DecayRateOverflowError",
    "DegenerateGradientError",
    "DegreeError",
    "DimensionMismatchError",
    "ExponentError",
    "GramCertificate",
    "GramReport",
    "HomogeneousDecomposition",
    "HomogenizedLyapunov",
    "MixedDegreesError",
    "MultiPoly",
    "MultiplePositiveRootsError",
    "MultiplierCertificate",
    "NoPositiveRootError",
    "OriginNotInteriorError",
    "ParseError",
    "PolyVectorField",
    "RootList",
    "StarConvexityFailure",
    "StarConvexityReport",
    "Trajectory",
    "UniPoly",
    "VariableIndexError",
    "VerificationReport",
    "ZeroPolynomialError",
    "check_decrease",
    "check_homogeneity",
    "check_invariance",
    "euler_residual",
    "expand_quadratic_form",
    "gram_euler_identity",
    "homogeneous_parts",
    "homogenize",
    "linear",
    "parse",
    "positive_roots",
    "rk4",
    "sample_directions",
    "tau_coefficients",
    "verify_gram",
    "verify_multiplier",
]

"""Exact computation of the encomplexed writhe of real rational space curves.

The encomplexed writhe of a real algebraic link in projective 3-space sums
local writhe signs over the real crossings and the solitary double points
of a generic projection. It is invariant under rigid isotopy and negates
under mirror reflection. This package computes it exactly for links given
by rational parametrizations with rational coefficients: no floating point
enters any certified code path.
"""

from .errors import (
    CenterOnCurve,
    CenterOnSingularLine,
    ComponentsIntersect,
    CuspDetected,
    DegenerateElimination,
    EncwritheError,
    InputTooLarge,
    InvalidInput,
    MissingOrientation,
    NonGenericProjection,
    ParseError,
    ProjectionError,
    RealSingularityDetected,
    ReducibleParametrization,
    SamplingExhausted,
    SingularMatrix,
    TangentialPair,
    TriplePoint,
    ValidationError,
    ZeroDeterminant,
)
from .algnum import AlgebraicNumber, isolate_real_roots
from .bipoly import BiPoly, resultant_bivariate
from .curves import (
    Link,
    MoebiusReparam,
    ProjectiveTransform,
    RationalSpaceCurve,
    sample_random_curve,
    validate,
    validate_link,
)
from .projection import (
    CANONICAL_CENTER,
    DoublePointLocus,
    LocusKind,
    ProjectionAnalysis,
    analyze_projection,
    normalize_center,
    rational_center,
    sample_generic_center,
)
from .upoly import UPoly, resultant, squarefree_part
from .verify import (
    FamilyScan,
    VerificationRun,
    scan_family,
    verify_center_independence,
    verify_isotopy_invariance,
    verify_parity_bounds,
)
from .writhe import (
    LocusPolys,
    build_diagram,
    crossing_sign_raw,
    linking_matrix,
    solitary_sign_raw,
    writhe_oriented,
    writhe_unoriented,
)

__version__ = "0.1.0"
__all__ = [name for name in dir() if not name.startswith("_")]

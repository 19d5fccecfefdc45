"""dworklab: exact p-adic arithmetic, Hasse-Witt matrices, Dwork-type
congruence verifiers and p-adic KZ solution frames."""

from .errors import (
    ConfigError,
    CtxMismatch,
    DegenerateTuple,
    DirectionOutOfRange,
    DworkLabError,
    IndexOutOfRange,
    InvalidParameter,
    NonUnitAtNegativeExponent,
    NonUnitDifference,
    NotAdmissible,
    NotAUnit,
    NotDivisible,
    NotFactored,
    NotPrime,
    OddPrimeRequired,
    OutsideDomain,
    PrecisionTooLow,
    SearchExhausted,
    SingularModP,
    SizeCapExceeded,
    TooLarge,
    UnsupportedArity,
    ZeroPolynomial,
)
from .padic import PadicCtx, ctx_new
from .laurent import LaurentPoly, TBox
from .ghosts import (
    AdmissibilityCertificate,
    AdmissibleTuple,
    GhostSeq,
    check_admissible,
    ghost_sequence,
)
from .hasse_witt import (
    hw_derivative_at,
    hw_det,
    hw_matrix,
    hw_matrix_at,
)
from .dwork import (
    CongruenceReport,
    verify_decomposition,
    verify_derivative_congruence,
    verify_det_congruence,
    verify_dwork_ratio,
    verify_frobenius_factorization,
    verify_second_derivative_congruence,
)
from .kz import (
    KZConfig,
    kz_residual,
    kz_tuple,
    master_polynomial,
    ps_solutions,
    verify_phi_identities,
    verify_solution_congruence,
)
from .limits import (
    Certificate,
    DomainPoint,
    LimitReport,
    ScanResult,
    kz_certificates,
    limit_frames,
    limit_report,
    lift_point,
    nth_domain_point,
    rank_check,
    sample_domain_points,
    scan_domain,
)

__version__ = "0.1.0"

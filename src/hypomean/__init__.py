"""Exact-arithmetic construction and positivity certification of weighted
mean matrices: finite sections of M, its auxiliary factor B, the
interrupter P = B*B, and Q = I - P, together with a tridiagonal pivot
certification of Q_N > 0 and symbolic induction certificates for linear
weight families."""

from .weights import (
    FactorableGenerators,
    HypothesisCheck,
    HypothesisReport,
    LinearWeights,
    TableWeights,
    WeightSequence,
    check_hypotheses,
    fraction_str,
    parse_weight_spec,
)
from .matrices import (
    ExactMatrix,
    FactoredSection,
    MatrixKind,
    b_entry,
    finite_section,
    m_entry,
    offdiag_factors,
    p_entry_oracle,
)
from .positivity import (
    BoundReport,
    CertificationReport,
    CertifyOptions,
    DegenerateFactorError,
    DeltaSequence,
    TridiagonalForm,
    Verdict,
    certify,
    check_delta_bounds,
    delta_sequence,
    elimination_multiplier,
    leading_minors,
    tridiagonalize,
)
from .polynomials import Polynomial, RationalFunction, count_roots_above, poly_gcd
from .symbolic import (
    CertificateInconclusive,
    InductionCertificate,
    ODD_CERTIFICATE_REFERENCE,
    ODD_FLOOR,
    ODD_Q,
    ODD_TRIDIAGONAL,
    SymbolicQ,
    SymbolicStructureError,
    SymbolicTridiagonal,
    induction_certificate,
    known_floor,
    reference_ratio_odd,
    symbolic_q,
    symbolic_tridiagonal,
)

__version__ = "0.1.0"

"""Truncated q-deformed Fock space, Wick calculus, and verification suites."""

from .fock import (
    GradedVector,
    QContext,
    annihilate,
    apply_pq,
    basis_vector,
    commutation_residual,
    create,
    elementary_tensor,
    fock_norm,
    pq_spectrum,
    q_inner,
)
from .qcombinatorics import (
    crossing_polynomial,
    enumerate_shuffles,
    inversions,
    macmahon_residual,
    q_binomial,
    q_factorial,
    q_integer,
)
from .scales import (
    default_hplus_weights,
    embedding_residual,
    estimate_c1,
    f_dual_norm,
    g_norm,
    graded_tensor,
    lemma53_residual,
    vage_ratio,
)
from .series import (
    ConvergenceCertificate,
    SeriesSpec,
    certify_radius,
    wick_exp,
    wick_inverse,
    wick_series,
)
from .suites import Report, RunConfig, run_suite
from .wick import (
    MomentReport,
    add_scaled,
    apply_to_fock,
    field_mul,
    moment,
    moments,
    vacuum_vector,
    wick_monomial,
    wick_mul_poly,
)

__version__ = "0.1.0"

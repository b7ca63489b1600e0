"""Truncated q-deformed Fock space, Wick calculus, and verification suites."""

import os as _os
import sys as _sys

# qwick's products are many tiny stacked ones, which OpenBLAS never splits
# over threads; yet its worker thread spins for about 0.09 s after numpy
# loads and again after each threaded LAPACK call, and threaded reductions
# round by the core count, so a report would differ between hosts.  numpy is
# therefore loaded with one OpenBLAS thread.  The variable is set only while
# numpy loads (OpenBLAS reads it once, then), so os.environ and any
# subprocess see no change, and a caller's own thread setting wins.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in _sys.modules and not any(v in _os.environ for v in _BLAS_THREAD_VARIABLES):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

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
    add_scaled,
    apply_to_fock,
    field_mul,
    moment,
    moments,
    pairing_moments,
    vacuum_vector,
    wick_monomial,
    wick_mul_poly,
)

__version__ = "0.1.0"

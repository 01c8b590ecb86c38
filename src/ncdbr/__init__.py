"""Numerical toolkit for non-commutative de Branges-Rovnyak models of
row contractions: characteristic functions, NC kernels, operator Moebius
and Frostman transforms, state-space realizations, and the model theorem
checked in T's own m x m coordinates."""

from .charfn import (
    SchurSampler,
    char_fn,
    char_fn_partial_isometry,
    frostman_shift,
    model_gamma,
    moebius,
    moebius_inv,
    popescu_char,
    pure_unitary_split,
    support_frames,
    theta_map,
    weak_coincidence_fit,
    xi_map,
)
from .fock import model_verify
from .freepoly import FreePolyAst, eval_poly, format_poly, parse_poly
from .kernels import ad_map, cp_check, dbr_kernel, szego_kernel, szego_series
from .ncspace import (
    FreeWord,
    MatrixTuple,
    conjugate,
    direct_sum,
    in_row_ball,
    row_norm,
    sample_ball_point,
    word_apply,
)
from .numerics import (
    Tolerance,
    orthonormal_range,
    psd_sqrt,
)
from .realization import (
    Colligation,
    is_coisometric,
    is_observable,
    taylor_coeff,
    transfer_eval,
)
from .rowcontraction import (
    RowContraction,
    canonical_frames,
    cnc_rank,
    defect_point,
    defects,
    iso_pure_decompose,
    julia_matrix,
    reconstruct,
)

__version__ = "0.1.0"

"""Multivariate link signatures from Seifert data, with a splice calculus."""

from .errors import (
    BoundaryCharacter,
    ExpressionError,
    GuardViolated,
    InvalidFamily,
    InvalidParams,
    LevelMismatch,
    MissingBaseEvaluator,
    NotHermitian,
    NotReal,
    NullityUnavailable,
    SpliceSigError,
    UsageError,
)
from .torus import (
    UNIT,
    Angle,
    angle,
    char_power,
    character,
    conjugate_character,
    defect,
    defect1,
    delete_color,
    ind,
    insert_unit,
    is_open,
    log_sum,
    parse_character,
    serialize_character,
)
from .cyclotomic import (
    CyclotomicNumber,
    HermitianMatrix,
    LaurentMatrix,
    LaurentPoly,
    cyclotomic_polynomial,
)
from .ccomplex import SeifertFamily
from .splice import (
    SigFn,
    cable_parallel,
    lt_splice,
    merge_colors,
    satellite,
    splice,
    splice_knot,
    to_levine_tristram,
    with_boundary,
    zero_fn,
)
from .hopf import (
    HopfSpec,
    hopf_nullity,
    hopf_seifert_family,
    hopf_sig_fn,
    hopf_signature,
    hopf_spectrum,
    sigma_k,
    unlink_family,
)
from .cables import (
    CableParams,
    UnivariateReductionInput,
    cable_step,
    default_torus_base,
    hirzebruch,
    tilde_from_multi,
    univariate_reduction,
    weighted_linking,
)
from .fixtures import (
    PiecewiseTable,
    fixture_matrix,
    fixture_names,
    fixture_sig,
    fixture_table,
)
from .expr import parse as parse_expression
from .expr import parse_file as parse_expression_file

__version__ = "0.1.0"

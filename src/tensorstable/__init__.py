"""Positivity and tensor-stable positivity of qubit maps.

Closed-form criteria for n-tensor-stable positive Pauli maps, reduction of
translated maps to unital form, independent numerical oracles for
cross-validation, and entanglement-depth witnessing of multi-qubit states.
"""

from .criteria import (
    CriterionVerdict,
    depolarizing_pair_positive,
    hyperboloid_point,
    is_2tsp,
    is_3tsp,
    lift_ntsp,
    lift_x_max,
    mu_bound,
    ntsp_necessary,
    ntsp_sufficient_ball,
    squared_map_choi,
    squared_map_choi_eigs,
)
from .linalg import (
    SIGMA,
    ConvergenceError,
    HermitianOperator,
    OracleConfig,
    block_positivity_min,
    hermitian_spectrum,
    kron,
    partial_transpose,
    psd_verdict,
)
from .maps import (
    ClassificationReport,
    GeneralQubitMap,
    PauliDiagonalMap,
    PauliMap,
    choi,
    classify,
    compose,
    lambda_to_q,
    map_from_choi,
    map_from_json,
    map_to_json,
    max_entangled_projector,
    tensor_apply,
)
from .nonunital import (
    NonUnitalFamilyMap,
    ReductionResult,
    classify_nonunital_positive,
    ghz_output_conditions,
    is_2tsp_nonunital,
    reduce_to_unital,
)
from .oracles import (
    RegionScanReport,
    decomposability_fixtures,
    min_output_eig,
    region_scan,
)
from .witness import (
    DepthVerdict,
    MultiQubitState,
    ThresholdResult,
    build_state,
    depth_witness,
    ghz_variants,
    threshold_search,
)

__version__ = "0.1.0"

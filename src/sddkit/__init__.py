"""Toolkit for symmetric diagonally dominant positive matrices.

Dense kernels, the extremal reference family alpha*I + ell*ones, graph-limit
combinatorics for signless Laplacians, inequality certificates, and the
degree-sequence moment-matching estimator with a Lipschitz error certificate.
"""

from .matcore import (
    AsymmetricMatrixError,
    DominanceReport,
    EigenConvergenceError,
    MatrixError,
    MatrixFormatError,
    SingularBlockError,
    SingularMatrixError,
    SymMatrix,
    classify,
    delta,
    eigen_sym,
    inf_norm,
    inverse_dense,
    load_matrix,
    save_matrix,
    symmetrize,
)
from .sform import (
    SForm,
    sform_dense,
    sform_eigenvalues,
    sform_inf_norm_inverse,
    sform_inverse,
)
from .graphlimit import (
    BipartiteComponent,
    BipartitionSummary,
    GraphFormatError,
    LoopGraph,
    NonBipartiteComponent,
    analyze_bipartition,
    incidence,
    limit_closed_form,
    limit_inf_norm,
    limit_numeric,
    limit_u_route,
    load_graph,
    save_graph,
    signless_laplacian,
)

from .bounds import (
    BoundReport,
    SuiteRecord,
    XiResult,
    adjugate_bound,
    block_det_ratio,
    condition_bound,
    conjecture_search,
    det_lower_bound,
    det_ratio_lu,
    det_upper_bound_balanced,
    eig_interval_check,
    hadamard_sanity,
    lower_bound_trivial,
    main_bound,
    spectral_route_bound,
    varah_bound,
    verify_suite,
    xi_functional,
)
from .retina import (
    ConsistencySummary,
    DomainError,
    MleTrial,
    RetinaProblem,
    RetinaSolution,
    consistency_experiment,
    f_map,
    jacobian,
    residual,
    sample_degrees,
    solve_retina,
)

__version__ = "0.1.0"

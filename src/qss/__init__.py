"""Secret sharing on qudit graph states over prime fields.

Rank algebra decides which player sets can read a classical or quantum
secret encoded in a graph state; a dense state-vector simulator provides
the independent ground truth at small sizes.
"""

from .fqlinalg import (
    batch_border_indicators_mod,
    batch_rank_mod,
    inv_mod,
    is_prime,
    kernel_basis_mod,
    rank_mod,
    reduced_column_echelon_mod,
    require_prime,
    rref_mod,
    solve_affine_mod,
)
from .multigraph import (
    DealerGraph,
    Multigraph,
    Multiset,
    cut_matrix,
    delete_vertex,
    induced_subgraph,
    local_complement,
    neighbors_multiset,
    parse_graph,
    random_graph,
    rs747_fixture,
    serialize_graph,
)
from .access import (
    AccessVerdict,
    classify,
    cutrank,
    dealer_kernel_witness,
    min_support_kernel_element,
    pi_classical,
    quantum_derivative,
    verify_witness_pair,
    witness_C,
    witness_D,
)
from .search import (
    SchemeReport,
    SearchResult,
    TrialSummary,
    exhaustive_search,
    is_scheme,
    random_trials,
    scheme_k,
    sufficient_condition_check,
)
from .bounds import (
    asymptotic_lower_bound,
    emit_curve,
    entropy,
    finite_inequality_holds,
    finite_lower_bound,
    random_threshold_alpha,
)
from .oracle import (
    DecodeParams,
    StateVector,
    WeylOperator,
    apply_weyl,
    classical_measure_decode,
    cq_encode,
    cq_round,
    decode_params,
    encode_decode_variants,
    graph_state,
    info_leak,
    measure_weyl,
    mub_vector,
    qq_decode_bell,
    qq_encode,
    reduced_density,
    schmidt_rank,
    stabilizer_generator,
)

__version__ = "0.1.0"

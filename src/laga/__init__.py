"""laga: exact algebra workbench for layered graphs.

Builds layered graphs (Boolean lattices, subspace lattices, custom),
computes the bigraded quotient algebras attached to them with exact
rational or prime-field arithmetic, and reconstructs graphs from algebra
data alone, certifying every success with a graph isomorphism check.
"""

from .balgebra import (
    BElement,
    b_dimension,
    b_hilbert_table,
    component,
    degree2_product,
    element,
    gr_quadratic_space,
    iso_condition_check,
    k_stats,
    kappa_combinatorial,
    kappa_kernel,
    kappa_of_element,
    kappa_profile,
    quadratic_dual_check,
    relation_space,
    vertex_element,
)
from .errors import (
    AmbientMismatch,
    BudgetExceeded,
    DimensionMismatch,
    EdgeLevelMismatch,
    EmptySuccessor,
    KOutOfRange,
    LagaError,
    LevelMismatch,
    MixedLevels,
    MultipleMinimal,
    NonNestingViolated,
    NotUniform,
    ReconstructionFailed,
    UnsupportedField,
    VerificationFailed,
)
from .fields import GF, QQ, FieldSpec
from .graphs import (
    ClassPartition,
    LayeredGraph,
    V,
    are_isomorphic,
    build_boolean,
    build_complete_layered,
    build_graph,
    build_subspace_lattice,
    check_identities,
    class_partition,
    from_json,
    from_json_dict,
    gaussian_binomial,
    is_atomic_lattice,
    is_non_nesting,
    is_uniform,
    restrict,
    successors,
    to_dot,
    to_json,
    to_json_dict,
    upper_part,
)
from .gralgebra import (
    FreeElement,
    HilbertTable,
    distinguished_path,
    e_tilde,
    enumerate_B_basis,
    gr_dimension,
    gr_hilbert_table,
    in_relation_span,
    is_quadratic_to_degree,
    leading_part,
    monomial_m,
    normalize,
    pair_weight,
    sequence_monomial,
    skeleton,
    to_pair_sequence,
    word_weight,
    words_of_bidegree,
)
from .linalg import (
    DEFAULT_BUDGET,
    Subspace,
    enumerate_rays,
    enumeration_budget,
    full_space,
    kernel,
    left_kernel,
    rank,
    rref,
    span,
    zero_space,
)
from .randomgraphs import random_layered_graph, random_uniform_graph
from .reconstruct import (
    AlgebraView,
    UpperBasis,
    algebra_view,
    intersection_size,
    kappa_view,
    outdegree_multiset,
    reconstruct_boolean,
    reconstruct_nonnesting,
    reconstruct_subspace,
    reconstruction_report,
    upper_vertex_like_basis,
    view_from_json_dict,
    view_to_json_dict,
)

__version__ = "0.1.0"

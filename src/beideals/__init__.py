"""Binomial edge ideals: lex Groebner bases via admissible paths, Frobenius
splitting certificates, and Betti-table invariants of the square-free
initial ideals, all over exact coefficient fields."""

from .betti import (
    BettiTable,
    BettiTables,
    FptReport,
    betti_table,
    betti_tables,
    fpt_squarefree,
    homological_summary,
    projective_dimension,
    regularity,
    render_betti,
)
from .classify import (
    CSV_COLUMNS,
    ClassificationRow,
    RunConfig,
    classify_graph,
    classify_range,
    graph_id,
    rows_to_csv,
    rows_to_json,
    violations,
)
from .edgeideals import (
    FedderCertificate,
    GroebnerElement,
    NotClosedError,
    WeightVector,
    admissible_groebner_basis,
    edge_binomial,
    edge_ideal_generators,
    fedder_check,
    fedder_witness,
    find_weight_vector,
    groebner_ideal_basis,
    initial_by_weight,
    initial_ideal_generators,
    pair_power_product,
    path_monomial,
    plucker_relation,
    swap_congruence_holds,
)
from .fields import GF, QQ, PrimeField, RationalField
from .graphs import (
    AdmissiblePath,
    Graph,
    LimitExceededError,
    admissible_paths,
    adjacency_code,
    canonical_form,
    canonical_graph,
    enumerate_connected_graphs,
    find_closed_labeling,
    graph_from_json_dict,
    is_closed_with_labeling,
    is_connected,
    is_path_graph,
    relabel,
)
from .groebner import (
    IdealBasis,
    buchberger,
    colon_contains,
    divmod_basis,
    frobenius_power,
    is_groebner_basis,
    normal_form,
    not_in_bracket_m,
    s_polynomial,
)
from .polys import (
    Monomial,
    PolyContext,
    Polynomial,
    format_monomial,
    format_poly,
    lex_compare,
    parse_poly,
)
from .simplicial import SimplicialComplex, krull_dim, stanley_reisner

# Listed explicitly: dir() would also export the submodule names.
__all__ = [
    "BettiTable", "BettiTables", "FptReport", "betti_table", "betti_tables", "fpt_squarefree",
    "homological_summary", "projective_dimension", "regularity", "render_betti",
    "CSV_COLUMNS", "ClassificationRow", "RunConfig", "classify_graph", "classify_range",
    "graph_id", "rows_to_csv", "rows_to_json", "violations",
    "FedderCertificate", "GroebnerElement", "NotClosedError", "WeightVector",
    "admissible_groebner_basis", "edge_binomial", "edge_ideal_generators",
    "fedder_check", "fedder_witness", "find_weight_vector", "groebner_ideal_basis",
    "initial_by_weight", "initial_ideal_generators", "pair_power_product",
    "path_monomial", "plucker_relation", "swap_congruence_holds",
    "GF", "QQ", "PrimeField", "RationalField",
    "AdmissiblePath", "Graph", "LimitExceededError", "admissible_paths",
    "adjacency_code", "canonical_form", "canonical_graph", "enumerate_connected_graphs",
    "find_closed_labeling", "graph_from_json_dict", "is_closed_with_labeling",
    "is_connected", "is_path_graph", "relabel",
    "IdealBasis", "buchberger", "colon_contains", "divmod_basis", "frobenius_power",
    "is_groebner_basis", "normal_form", "not_in_bracket_m", "s_polynomial",
    "Monomial", "PolyContext", "Polynomial", "format_monomial", "format_poly",
    "lex_compare", "parse_poly",
    "SimplicialComplex", "krull_dim", "stanley_reisner",
]

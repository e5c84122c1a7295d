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
    find_weight_vector,
    initial_ideal_generators,
    plucker_relation,
)
from .fields import GF, QQ, PrimeField, RationalField
from .graphs import (
    Graph,
    LimitExceededError,
    admissible_paths,
    adjacency_code,
    canonical_form,
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
    frobenius_power,
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
    parse_poly,
)

# Listed explicitly: dir() would also export the submodule names.
__all__ = [
    "BettiTable", "BettiTables", "FptReport", "betti_table", "betti_tables", "fpt_squarefree",
    "homological_summary", "projective_dimension", "regularity", "render_betti",
    "CSV_COLUMNS", "ClassificationRow", "RunConfig", "classify_graph", "classify_range",
    "graph_id", "rows_to_csv", "rows_to_json", "violations",
    "FedderCertificate", "GroebnerElement", "NotClosedError", "WeightVector",
    "admissible_groebner_basis", "edge_binomial", "edge_ideal_generators",
    "fedder_check", "find_weight_vector", "initial_ideal_generators", "plucker_relation",
    "GF", "QQ", "PrimeField", "RationalField",
    "Graph", "LimitExceededError", "admissible_paths",
    "adjacency_code", "canonical_form", "enumerate_connected_graphs",
    "find_closed_labeling", "graph_from_json_dict", "is_closed_with_labeling",
    "is_connected", "is_path_graph", "relabel",
    "IdealBasis", "buchberger", "frobenius_power", "normal_form", "not_in_bracket_m",
    "s_polynomial",
    "Monomial", "PolyContext", "Polynomial", "format_monomial", "format_poly", "parse_poly",
]

"""Betti numbers of edge ideals of weighted oriented crown graphs.

Closed-form multigraded, graded, and total Betti numbers for the crown
and the other generalized-crown shapes, cross-checked against a
brute-force simplicial-homology oracle that works for arbitrary monomial
ideals.
"""

from .multidegree import (
    Multidegree,
    VariableSet,
    binomial,
    divides,
    gcd,
    lcm,
    lcm_of,
    quotient,
    xy_variables,
)
from .ideals import (
    MonomialIdeal,
    colon_by_monomial,
    contains,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    is_dominant,
    lcm_lattice,
    minimalize,
    scale,
)
from .graphs import (
    FAMILIES,
    WeightedOrientedGraph,
    complete_bipartite,
    crown,
    edge_ideal,
    generalized_crown,
    induced_subgraph,
    theta,
    unbalanced_crown,
)
from .homology import (
    BettiTable,
    FieldSpec,
    SimplicialComplexOnVars,
    multigraded_betti,
    reduced_homology_ranks,
    upper_koszul_complex,
)
from .splitting import (
    check_splitting_lemma_hypotheses,
    crown_splitting,
    mapping_cone_upper_bound,
    taylor_betti_dominant,
    verify_betti_splitting,
)
from .render import (
    graded_report,
    report_text,
    table_from_json_dict,
    table_to_json_dict,
)
from .formulas import (
    FamilyTopBetti,
    enumerate_M,
    enumerate_N,
    family_top_betti,
    graded_betti_formula,
    multigraded_betti_formula,
    regularity_formula,
    shape_betti_formula,
    shape_entry_count,
    shape_graded_formula,
    total_betti_closed_form,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"

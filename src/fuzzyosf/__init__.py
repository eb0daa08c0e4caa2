"""Graded order-sorted feature terms.

Sort hierarchies carry subsumption degrees in [0, 1]; record-like terms over
those hierarchies normalize, unify, and compare with degrees computed by
min/max arithmetic.  A finite model layer interprets terms as graded sets and
cross-checks the algebra's laws on randomized instances.
"""

import types

from .lattice import (
    BOT,
    TOP,
    CycleDetected,
    DegreeOutOfRange,
    DroppedEdge,
    DuplicateName,
    NotALattice,
    OntologyError,
    SignatureMismatch,
    SortGraph,
    SortLattice,
    UnknownFeature,
    UnknownSort,
    build_similarity,
    enrich_from_similarity,
    format_ontology,
    load_ontology,
)
from .terms import (
    Clause,
    EqualityConstraint,
    FeatureConstraint,
    NotNormalTerm,
    NotRooted,
    NotSolved,
    OsfGraph,
    SortConstraint,
    Term,
    TermSyntaxError,
    canonical_form,
    check_normal,
    clause_to_term,
    format_clause,
    format_term,
    graph_equivalent,
    graph_isomorphic,
    graph_to_dot,
    graph_to_term,
    parse_clause,
    parse_term,
    term_to_clause,
    term_to_graph,
)
from .normalize import Inconsistent, Normalized, UnifyResult, normalize, unify
from .subsumption import (
    SubsumptionWitness,
    crisp_subsumes,
    fuzzy_subsumption_degree,
    subsumption_witness,
)
from .semantics import (
    CanonicalAlgebra,
    Interpretation,
    Morphism,
    TheoremReport,
    approximation_degree,
    best_denotation,
    check_theorems,
    denote,
    find_morphism,
    generated_subalgebra,
    load_interpretation,
    morphism_max_beta,
    satisfaction_degree,
    satisfies,
    validate_interpretation,
)

__version__ = "0.1.0"

# Every name imported above, and nothing else: the package's public surface.
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, types.ModuleType)
)

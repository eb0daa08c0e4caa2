"""Graded unification of feature terms.

Unification conjoins the constraint forms of the two terms with an equality
between their roots and normalizes.  An inconsistent result is the bottom
term at degree 1 (failure is certain).  Otherwise the solved part, with each
equality class renamed to a fresh representative, rebuilds the unifier term;
the degree to which each input subsumes the unifier is

    beta_i = min over tags X of term_i of degree(class sort of X, sort of X in term_i)

and the unification degree is ``min(beta1, beta2)``.  Classes whose members
are all top-sorted contribute nothing (degree 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import SortLattice, TOP
from .normalize import Inconsistent, normalize
from .terms import (
    Clause,
    EqualityConstraint,
    FeatureConstraint,
    SortConstraint,
    Term,
    assert_normal,
    clause_to_term,
    fresh_tags,
    rename_term,
    term_sorts,
    term_tags,
    term_to_clause,
)
from .graphs import graph_equivalent, term_to_graph


@dataclass
class UnifyResult:
    """Outcome of unifying two terms.

    ``unifier`` is None exactly when the terms are incompatible (bottom);
    then every beta is 1.  ``tag_classes`` maps each fresh representative to
    the original tags it stands for (after collision renaming of the second
    term, whose renames are listed in ``renamed``).
    """

    unifier: Term | None
    beta1: float
    beta2: float
    beta: float
    tag_classes: dict[str, tuple[str, ...]]
    renamed: dict[str, str]

    @property
    def is_bottom(self) -> bool:
        return self.unifier is None


def _disjoint_rename(t1: Term, t2: Term) -> tuple[Term, dict[str, str]]:
    tags1 = set(term_tags(t1))
    tags2 = term_tags(t2)
    clash = [tag for tag in tags2 if tag in tags1]
    if not clash:
        return t2, {}
    taken = tags1 | set(tags2)
    mapping: dict[str, str] = {}
    for tag in clash:
        candidate = tag
        while candidate in taken:
            candidate = candidate + "_"
        mapping[tag] = candidate
        taken.add(candidate)
    return rename_term(t2, mapping), mapping


def unify(t1: Term, t2: Term, lattice: SortLattice) -> UnifyResult:
    """Unify two normal terms over a sort lattice."""
    assert_normal(t1, lattice.graph)
    assert_normal(t2, lattice.graph)

    t2r, renamed = _disjoint_rename(t1, t2)
    constraints = list(term_to_clause(t1).constraints)
    constraints += term_to_clause(t2r).constraints
    constraints.append(EqualityConstraint(t1.tag, t2r.tag))
    combined = Clause(tuple(constraints), root=t1.tag)

    nf = normalize(combined, lattice)
    if isinstance(nf, Inconsistent):
        return UnifyResult(
            unifier=None, beta1=1.0, beta2=1.0, beta=1.0, tag_classes={}, renamed=renamed
        )

    # normalize's partition (tags missing from rep_of are their own
    # representatives), with fresh class names in first-encounter order of
    # the combined clause.
    rep_of = {member: rep for rep, member in nf.equalities}
    tag_order = combined.tags()
    fresh = fresh_tags(set(tag_order), prefix="_Z")
    members: dict[str, list[str]] = {}
    for tag in tag_order:
        members.setdefault(rep_of.get(tag, tag), []).append(tag)
    class_name: dict[str, str] = {}
    tag_classes: dict[str, tuple[str, ...]] = {}
    for rep, group in members.items():
        name = next(fresh)
        class_name[rep] = name
        tag_classes[name] = tuple(group)

    def z(tag: str) -> str:
        return class_name[rep_of.get(tag, tag)]

    class_sort: dict[str, str] = {}
    renamed_constraints = []
    for c in nf.solved.constraints:
        if isinstance(c, SortConstraint):
            class_sort[z(c.tag)] = c.sort
            renamed_constraints.append(SortConstraint(z(c.tag), c.sort))
        else:
            assert isinstance(c, FeatureConstraint)
            renamed_constraints.append(FeatureConstraint(z(c.tag), c.feature, z(c.target)))
    for name in tag_classes:
        if name not in class_sort:
            class_sort[name] = TOP
            renamed_constraints.append(SortConstraint(name, TOP))

    root = z(t1.tag)
    unifier = clause_to_term(Clause(tuple(renamed_constraints), root=root))

    def beta_against(t: Term, rename: dict[str, str]) -> float:
        beta = 1.0
        for tag, sort in term_sorts(t).items():
            zsort = class_sort[z(rename.get(tag, tag))]
            d = lattice.degree(zsort, sort)
            if d < beta:
                beta = d
        return beta

    beta1 = beta_against(t1, {})
    beta2 = beta_against(t2, renamed)
    return UnifyResult(
        unifier=unifier,
        beta1=beta1,
        beta2=beta2,
        beta=min(beta1, beta2),
        tag_classes=tag_classes,
        renamed=renamed,
    )


def mutual_subsumption_via_unify(
    t1: Term, t2: Term, lattice: SortLattice
) -> tuple[int, float] | None:
    """Compare two terms through their unifier.

    Returns (index of the more specific term, unification degree) when the
    unifier is equivalent to one input (index 1 wins ties, i.e. equivalent
    terms report as 1), or None when the terms are incomparable or
    incompatible.
    """
    result = unify(t1, t2, lattice)
    if result.is_bottom:
        return None
    assert result.unifier is not None
    gu = term_to_graph(result.unifier)
    if graph_equivalent(gu, term_to_graph(t1)):
        return 1, result.beta
    if graph_equivalent(gu, term_to_graph(t2)):
        return 2, result.beta
    return None

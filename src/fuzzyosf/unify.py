"""Graded unification of feature terms.

Unification conjoins the constraint forms of the two terms with an equality
between their roots and solves them with :func:`normalize`'s union-find
engine, fed straight from one walk of each term.  An inconsistent result is
the bottom term at degree 1 (failure is certain).  Otherwise each class of
tags gets a fresh name and the solved classes rebuild the unifier term; the
degree to which each input subsumes the unifier is

    beta_i = min over tags X of term_i of degree(class sort of X, sort of X in term_i)

and the unification degree is ``min(beta1, beta2)``.  Classes whose members
are all top-sorted contribute nothing (degree 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import SortLattice, TOP
from .normalize import _Collapse, _Solver
from .terms import Term, _expand, _gate, fresh_tags


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


def _disjoint_rename(tags1: dict[str, str], tags2: dict[str, str]) -> dict[str, str]:
    """Renames of the second term's tags that clash with the first's: each
    clashing tag takes ``_`` suffixes until its name is unused."""
    clash = [tag for tag in tags2 if tag in tags1]
    taken = tags1.keys() | tags2.keys()
    mapping: dict[str, str] = {}
    for tag in clash:
        candidate = tag
        while candidate in taken:
            candidate = candidate + "_"
        mapping[tag] = candidate
        taken.add(candidate)
    return mapping


def _feed(
    solver: _Solver, root: str, sorts: dict[str, str], structured: dict,
    rename: dict[str, str], order: dict[str, None],
) -> None:
    """Hand a term's constraints to the solver in :func:`term_to_clause`
    order (per structured occurrence its sort unless top, then its features;
    last ``X:top`` for every tag never sorted), noting tags in the order that
    clause first mentions them: the root, then each feature's target."""
    find = solver.find
    order[rename.get(root, root)] = None
    for tag, args in structured.items():
        sort = sorts[tag]
        tag = rename.get(tag, tag)
        if sort != TOP:
            solver.add_sort(find(tag), sort)
        for f, child in args:
            target = rename.get(child.tag, child.tag)
            order[target] = None
            solver.add_feat(find(tag), f, target)
            if solver.pending:
                solver.drain()
    for tag, sort in sorts.items():
        if sort == TOP:
            solver.add_sort(find(rename.get(tag, tag)), TOP)


def unify(t1: Term, t2: Term, lattice: SortLattice) -> UnifyResult:
    """Unify two normal terms over a sort lattice."""
    sorts1, structured1 = _gate(t1, lattice.graph)
    sorts2, structured2 = _gate(t2, lattice.graph)
    renamed = _disjoint_rename(sorts1, sorts2)

    solver = _Solver(lattice)
    order: dict[str, None] = {}  # tags of the combined clause, first mention first
    try:
        _feed(solver, t1.tag, sorts1, structured1, {}, order)
        _feed(solver, t2.tag, sorts2, structured2, renamed, order)
        solver.pending.append((t1.tag, renamed.get(t2.tag, t2.tag)))
        solver.drain()
    except _Collapse:
        return UnifyResult(
            unifier=None, beta1=1.0, beta2=1.0, beta=1.0, tag_classes={}, renamed=renamed
        )

    # Fresh class names in first-mention order of the classes' tags.
    find = solver.find
    classes = solver.classes(order)
    class_name = dict(zip(classes, fresh_tags(order.keys(), prefix="_Z")))
    class_sort = {class_name[rep]: sort for rep, sort in solver.sorts.items()}
    out = {
        class_name[rep]: [(f, class_name[find(target)]) for f, target in feats.items()]
        for rep, feats in solver.feats.items()
    }
    unifier = _expand(class_name[find(t1.tag)], class_sort, out)

    def beta_against(sorts: dict[str, str], rename: dict[str, str]) -> float:
        beta = 1.0
        for tag, sort in sorts.items():
            d = lattice.degree(class_sort[class_name[find(rename.get(tag, tag))]], sort)
            if d < beta:
                beta = d
        return beta

    beta1 = beta_against(sorts1, {})
    beta2 = beta_against(sorts2, renamed)
    return UnifyResult(
        unifier=unifier,
        beta1=beta1,
        beta2=beta2,
        beta=min(beta1, beta2),
        tag_classes={class_name[rep]: tuple(tags) for rep, tags in classes.items()},
        renamed=renamed,
    )

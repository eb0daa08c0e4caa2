"""Graded unification of feature terms.

Unification conjoins the constraint forms of the two terms with an equality
between their roots and solves them with :func:`normalize`'s union-find
engine.  The two gated walks number the tags and fill the solver's tables:
a normal term on its own fires no rule, so one root equality and one drain
do all the solving.  An inconsistent result is the bottom term at degree 1
(failure is certain).  Otherwise each class of tags gets a fresh name and
the solved classes rebuild the unifier term; the degree to which each input
subsumes the unifier is

    beta_i = min over tags X of term_i of degree(class sort of X, sort of X in term_i)

and the unification degree is ``min(beta1, beta2)``.  Classes whose members
are all top-sorted contribute nothing (degree 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .lattice import SortLattice
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


def unify(t1: Term, t2: Term, lattice: SortLattice) -> UnifyResult:
    """Unify two normal terms over a sort lattice."""
    sorts1, structured1 = _gate(t1, lattice.graph)
    sorts2, structured2 = _gate(t2, lattice.graph)
    renamed = _disjoint_rename(sorts1, sorts2)

    # Tags are numbered term 1 first, then term 2, each in walk order.  A normal
    # term has one structured occurrence per tag, distinct features per node and
    # no bot, so on its own it fires no rule: it goes straight into the tables.
    n1 = len(sorts1)
    number1 = dict(zip(sorts1, range(n1)))
    number2 = dict(zip(sorts2, range(n1, n1 + len(sorts2))))
    names = [*sorts1, *(renamed.get(tag, tag) for tag in sorts2)]
    own = [*sorts1.values(), *sorts2.values()]  # each tag's sort in its own term
    solver = _Solver(lattice, names)
    solver.sort[:] = own
    # Class names follow the combined clause's first mentions of the tags:
    # each root, then each feature's target, structured tag by structured tag.
    mention = []
    for number, structured, root in ((number1, structured1, 0), (number2, structured2, n1)):
        mention.append(root)
        for tag, args in structured.items():
            edges = solver.feats[number[tag]] = {}
            for f, child in args:
                edges[f] = target = number[child.tag]
                mention.append(target)

    solver.pending.append((0, n1))
    try:
        solver.drain()
    except _Collapse:
        return UnifyResult(
            unifier=None, beta1=1.0, beta2=1.0, beta=1.0, tag_classes={}, renamed=renamed
        )

    # Classes are numbered, and get fresh names, in first-mention order.
    roots = solver.roots()
    sort, feats = solver.sort, solver.feats
    cls: dict[int, int] = {}
    reps: list[int] = []
    members: list[list[str]] = []
    for x in dict.fromkeys(mention):
        rep = roots[x]
        k = cls.get(rep)
        if k is None:
            cls[rep] = len(reps)
            reps.append(rep)
            members.append([names[x]])
        else:
            members[k].append(names[x])
    class_names = list(islice(fresh_tags(set(names), prefix="_Z"), len(reps)))
    class_of = [cls[rep] for rep in roots]
    nodes = []
    for name, rep in zip(class_names, reps):
        out = feats[rep]
        nodes.append((name, sort[rep], [(f, class_of[x]) for f, x in out.items()] if out else ()))
    unifier = _expand(0, nodes)

    # Each tag's degree, term 1's tags first, each term's in walk order.
    degrees = list(map(lattice.degree, map(sort.__getitem__, roots), own))
    beta1, beta2 = min(degrees[:n1]), min(degrees[n1:])
    return UnifyResult(
        unifier=unifier,
        beta1=beta1,
        beta2=beta2,
        beta=min(beta1, beta2),
        tag_classes=dict(zip(class_names, map(tuple, members))),
        renamed=renamed,
    )

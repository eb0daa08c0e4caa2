"""Graded unification of feature terms.

Unification conjoins the constraint forms of the two terms with an equality
between their roots and solves them with :func:`normalize`'s union-find
engine.  Each term comes from its gate as a numbered record (tags, sorts and
edges): the parser's, when the term was parsed over the lattice's signature
and not gated since, else a fresh walk.  The two records, the second shifted
past the first, are the solver's tables; a normal term on its own fires no
rule, so one root equality and one drain do all the solving.  An
inconsistent result is the bottom term at degree 1 (failure is certain).
Otherwise each class of tags gets a fresh name and the solved classes
rebuild the unifier term; the degree to which each input subsumes the
unifier is

    beta_i = min over tags X of term_i of degree(class sort of X, sort of X in term_i)

and the unification degree is ``min(beta1, beta2)``.  Classes whose members
are all top-sorted contribute nothing (degree 1).
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _disjoint_rename(tags1: list[str], tags2: list[str]) -> dict[str, str]:
    """Renames of the second term's tags that clash with the first's: each
    clashing tag takes ``_`` suffixes until its name is unused."""
    taken = set(tags1)
    clash = [tag for tag in tags2 if tag in taken]
    taken.update(tags2)
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
    tags1, own1, edges1 = _gate(t1, lattice.graph)
    tags2, own2, edges2 = _gate(t2, lattice.graph)
    renamed = _disjoint_rename(tags1, tags2)

    # Tags are numbered term 1 first, then term 2, each in walk order.  A normal
    # term has one structured occurrence per tag, distinct features per node and
    # no bot, so on its own it fires no rule: its record goes straight into the
    # tables, term 2's shifted past term 1's.
    n1 = len(tags1)
    names = tags1 + [renamed.get(tag, tag) for tag in tags2] if renamed else tags1 + tags2
    solver = _Solver(lattice, names)
    solver.sort = sort = own1 + own2
    feats = solver.feats
    # Class names follow the combined clause's first mentions of the tags:
    # each root, then each feature's target, node by node in preorder.
    mention = [0]
    for x, out in edges1.items():
        feats[x] = out
        mention += out.values()
    mention.append(n1)
    for x, out in edges2.items():
        for f, y in out.items():
            out[f] = y + n1
        feats[x + n1] = out
        mention += out.values()

    solver.pending.append((0, n1))
    try:
        solver.drain()
    except _Collapse:
        return UnifyResult(
            unifier=None, beta1=1.0, beta2=1.0, beta=1.0, tag_classes={}, renamed=renamed
        )

    # Classes get fresh names in first-mention order; each class's features
    # then point at class roots, and the unifier expands from the tables.
    roots = solver.roots()
    fresh = fresh_tags(set(names), prefix="_Z")
    class_name: list[str | None] = [None] * len(names)  # per class root
    classes: dict[str, list[str]] = {}  # each class's members, in first-mention order
    for x in dict.fromkeys(mention):
        rep = roots[x]
        name = class_name[rep]
        if name is None:
            name = class_name[rep] = next(fresh)
            classes[name] = [names[x]]
            out = feats[rep]
            if out:
                for f, y in out.items():
                    out[f] = roots[y]
        else:
            classes[name].append(names[x])
    unifier = _expand(roots[0], class_name, sort, feats)

    # Each tag's degree, term 1's tags first, each term's in walk order; a tag
    # whose class kept its own sort has degree 1 by reflexivity.
    degree = lattice.degree
    degrees = [1.0 if s == t else degree(s, t) for s, t in zip(map(sort.__getitem__, roots), own1 + own2)]
    beta1, beta2 = min(degrees[:n1]), min(degrees[n1:])
    return UnifyResult(
        unifier=unifier,
        beta1=beta1,
        beta2=beta2,
        beta=min(beta1, beta2),
        tag_classes={name: tuple(members) for name, members in classes.items()},
        renamed=renamed,
    )

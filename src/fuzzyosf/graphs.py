"""Rooted feature graphs: the pointed-record view of terms.

A feature graph has tag-named nodes labeled with sorts and feature-labeled
edges, all nodes reachable from a root.  Terms, solved rooted clauses, and
graphs are three presentations of the same structure; this module holds the
term <-> graph bijection plus canonical forms, equivalence and rendering.
A term's sorts and edges come from the walk that checks its normal form
(``terms._walk``); here they are only re-keyed.  Feature application and sort
membership as a model, with "trivial" elements for the top-sorted targets a
graph does not mention, live in :class:`fuzzyosf.semantics.CanonicalAlgebra`,
which builds from a graph or straight from a solved clause.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import TOP, SortGraph
from .terms import Term, _expand, _gate


@dataclass
class OsfGraph:
    """A rooted, sort-labeled, feature-edged graph.

    ``out`` keeps edge order per node (feature names unique per node).
    Equality (``==``) is representation equality; use
    :func:`graph_isomorphic` or :func:`graph_equivalent` for the semantic
    relations.
    """

    root: str
    sorts: dict[str, str]
    out: dict[str, tuple[tuple[str, str], ...]]


# -- bijections --------------------------------------------------------------


def term_to_graph(t: Term) -> OsfGraph:
    """Graph of a normal term: one node per tag, edges from the structured occurrence."""
    return _graph(t, None)


def _graph(t: Term, signature: SortGraph | None) -> OsfGraph:
    """The graph of ``t``, normal over ``signature``, keyed depth-first."""
    sorts, structured = _gate(t, signature)
    ordered: dict[str, str] = {}
    out: dict[str, tuple[tuple[str, str], ...]] = {}
    walk = [t.tag]
    while walk:
        tag = walk.pop()
        if tag in ordered:
            continue
        ordered[tag] = sorts[tag]
        edges = out[tag] = tuple((f, child.tag) for f, child in structured.get(tag, ()))
        for _, target in reversed(edges):
            walk.append(target)
    return OsfGraph(root=t.tag, sorts=ordered, out=out)


def graph_to_term(g: OsfGraph) -> Term:
    """Term of a graph: depth-first, each node expanded at first encounter."""
    return _expand(g.root, g.sorts, g.out)


# -- canonical form and equivalence -------------------------------------------


def canonical_form(g: OsfGraph) -> OsfGraph:
    """Strip redundant top leaves: non-root, top-labeled, no out-edges, one in-edge.

    Removing one such node can expose another (its parent may become a
    leaf), so stripping runs to a fixpoint; the result is independent of
    removal order because removability only grows as the fringe peels.  A
    removed leaf has no out-edges, so no in-degree ever changes: one pass
    counts them, and a worklist peels each parent whose out-degree drops to 0.
    """
    sorts = g.sorts
    indeg = dict.fromkeys(sorts, 0)
    parent: dict[str, str] = {}
    for n, edges in g.out.items():
        for _, target in edges:
            indeg[target] += 1
            parent[target] = n
    outdeg = {n: len(edges) for n, edges in g.out.items()}
    peelable = {n for n in sorts if n != g.root and sorts[n] == TOP and indeg[n] == 1}
    doomed = [n for n in peelable if not outdeg.get(n)]
    for n in doomed:  # the loop also visits what it appends
        up = parent[n]
        outdeg[up] -= 1
        if outdeg[up] == 0 and up in peelable:
            doomed.append(up)
    gone = set(doomed)
    out = {n: tuple((f, t) for f, t in e if t not in gone) for n, e in g.out.items() if n not in gone}
    return OsfGraph(g.root, {n: s for n, s in sorts.items() if n not in gone}, out)


def graph_isomorphic(g0: OsfGraph, g1: OsfGraph) -> bool:
    """Rooted isomorphism up to tag renaming: same sorts, same feature shape.

    Features are matched as sets per node (edge order is presentation, not
    substance); the witness map must be a bijection.
    """
    fwd: dict[str, str] = {g0.root: g1.root}
    bwd: dict[str, str] = {g1.root: g0.root}
    queue = [(g0.root, g1.root)]
    while queue:
        a, b = queue.pop()
        if g0.sorts[a] != g1.sorts[b]:
            return False
        ea = dict(g0.out.get(a, ()))
        eb = dict(g1.out.get(b, ()))
        if set(ea) != set(eb):
            return False
        for f in ea:
            ta, tb = ea[f], eb[f]
            sa, sb = fwd.get(ta), bwd.get(tb)
            if sa is None and sb is None:
                fwd[ta] = tb
                bwd[tb] = ta
                queue.append((ta, tb))
            elif sa != tb or sb != ta:
                return False
    return len(fwd) == len(g0.sorts) and len(bwd) == len(g1.sorts)


def graph_equivalent(g0: OsfGraph, g1: OsfGraph) -> bool:
    """Equality of canonical forms, up to tag renaming."""
    return graph_isomorphic(canonical_form(g0), canonical_form(g1))


def graph_to_dot(g: OsfGraph) -> str:
    """GraphViz rendering; the root is drawn with a double ellipse."""
    lines = ["digraph term {", "  rankdir=LR;"]
    for node, sort in g.sorts.items():
        extra = ", peripheries=2" if node == g.root else ""
        lines.append(f'  "{node}" [label="{node}: {sort}"{extra}];')
    for node, edges in g.out.items():
        for f, target in edges:
            lines.append(f'  "{node}" -> "{target}" [label="{f}"];')
    lines.append("}")
    return "\n".join(lines)

"""Term subsumption: witness maps and graded degrees.

``t0`` is subsumed by ``t1`` (t0 is the more specific term) when there is a
tag mapping ``h`` from t1's tags into t0's that sends root to root and
commutes with every feature edge of t1.  The check first completes t0 with
fresh top-sorted nodes at every position t1 demands that t0 lacks (a tag
of t1 with sort s that lands on such a node scores degree(top, s), which is
0 unless s is top), then takes

    degree = min over tags X of t1 of  degree(sort_t0(h(X)), sort_t1(X))

with min over no tags = 1.  A shared-tag (coreference) demand in t1 that t0
cannot honor admits no witness at all: the graded degree is 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import SortLattice, TOP
from .terms import Term, _gate, fresh_tags
from .graphs import OsfGraph, _graph


@dataclass
class SubsumptionWitness:
    """A witness map with its graded degree and the per-tag contributions.

    ``mapping`` sends each tag of the more general term to the tag of the
    more specific (possibly completed) term it lands on; ``per_tag`` records
    (specific sort, general sort, degree) per mapped tag.
    """

    mapping: dict[str, str]
    degree: float
    per_tag: dict[str, tuple[str, str, float]]


def _find_witness(
    root0: str, sorts0: dict[str, str], args0: dict, g1: OsfGraph
) -> dict[str, str] | None:
    """Map g1's nodes into t0, completed with fresh top nodes where g1
    demands an edge t0 lacks; None on a coreference conflict.

    t0 is read as :func:`_gate` returns it (``sorts0``, ``args0``).  Each
    node's arguments are indexed by feature on its first visit (a normal t0
    has each feature at most once per node), and a completion edge joins the
    index, so the fresh nodes are the mapped tags that ``sorts0`` does not hold.
    """
    fresh = fresh_tags(sorts0, prefix="_T")
    index: dict[str, dict[str, str]] = {}

    mapping: dict[str, str] = {g1.root: root0}
    queue = [g1.root]
    while queue:
        n1 = queue.pop()
        n0 = mapping[n1]
        for f, m1 in g1.out.get(n1, ()):
            edges0 = index.get(n0)
            if edges0 is None:
                edges0 = index[n0] = {g: child.tag for g, child in args0.get(n0, ())}
            m0 = edges0.get(f)
            if m0 is None:
                m0 = edges0[f] = next(fresh)
            known = mapping.get(m1)
            if known is None:
                mapping[m1] = m0
                queue.append(m1)
            elif known != m0:
                return None
    return mapping


def subsumption_witness(t0: Term, t1: Term, lattice: SortLattice) -> SubsumptionWitness | None:
    """Witness after top-completion of t0; None only on a coreference conflict."""
    sorts0, args0 = _gate(t0, lattice.graph)
    g1 = _graph(t1, lattice.graph)
    mapping = _find_witness(t0.tag, sorts0, args0, g1)
    if mapping is None:
        return None
    per_tag: dict[str, tuple[str, str, float]] = {}
    degree = 1.0
    for n1 in g1.sorts:
        s0 = sorts0.get(mapping[n1], TOP)
        s1 = g1.sorts[n1]
        d = lattice.degree(s0, s1)
        per_tag[n1] = (s0, s1, d)
        if d < degree:
            degree = d
    return SubsumptionWitness(mapping=mapping, degree=degree, per_tag=per_tag)


def fuzzy_subsumption_degree(t0: Term, t1: Term, lattice: SortLattice) -> float:
    """Degree to which t0 is subsumed by t1 (0 when no witness exists)."""
    w = subsumption_witness(t0, t1, lattice)
    return 0.0 if w is None else w.degree


def crisp_subsumes(t0: Term, t1: Term, lattice: SortLattice) -> bool:
    """Support-level subsumption: holds iff the graded degree is positive."""
    return fuzzy_subsumption_degree(t0, t1, lattice) > 0.0

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


def _find_witness(tags0: list[str], edges0: dict, g1: OsfGraph) -> dict[str, int] | None:
    """Map g1's nodes to t0's tag numbers, completing t0 with fresh top nodes
    where g1 demands an edge t0 lacks; None on a coreference conflict.

    t0 is the record :func:`_gate` returns (``tags0``, ``edges0``), which the
    caller owns: a completion edge joins its node's edges, and a fresh node
    takes the next number, its name appended to ``tags0``.
    """
    fresh = fresh_tags(set(tags0), prefix="_T")
    mapping: dict[str, int] = {g1.root: 0}
    queue = [g1.root]
    while queue:
        n1 = queue.pop()
        x0 = mapping[n1]
        for f, m1 in g1.out.get(n1, ()):
            out0 = edges0.setdefault(x0, {})
            m0 = out0.get(f)
            if m0 is None:
                m0 = out0[f] = len(tags0)
                tags0.append(next(fresh))
            known = mapping.get(m1)
            if known is None:
                mapping[m1] = m0
                queue.append(m1)
            elif known != m0:
                return None
    return mapping


def subsumption_witness(t0: Term, t1: Term, lattice: SortLattice) -> SubsumptionWitness | None:
    """Witness after top-completion of t0; None only on a coreference conflict."""
    tags0, sorts0, edges0 = _gate(t0, lattice.graph)
    g1 = _graph(t1, lattice.graph)
    n0 = len(tags0)
    found = _find_witness(tags0, edges0, g1)
    if found is None:
        return None
    per_tag: dict[str, tuple[str, str, float]] = {}
    degree = 1.0
    for n1, s1 in g1.sorts.items():
        x0 = found[n1]
        s0 = sorts0[x0] if x0 < n0 else TOP
        d = lattice.degree(s0, s1)
        per_tag[n1] = (s0, s1, d)
        if d < degree:
            degree = d
    mapping = {n1: tags0[x0] for n1, x0 in found.items()}
    return SubsumptionWitness(mapping=mapping, degree=degree, per_tag=per_tag)


def fuzzy_subsumption_degree(t0: Term, t1: Term, lattice: SortLattice) -> float:
    """Degree to which t0 is subsumed by t1 (0 when no witness exists)."""
    w = subsumption_witness(t0, t1, lattice)
    return 0.0 if w is None else w.degree


def crisp_subsumes(t0: Term, t1: Term, lattice: SortLattice) -> bool:
    """Support-level subsumption: holds iff the graded degree is positive."""
    return fuzzy_subsumption_degree(t0, t1, lattice) > 0.0

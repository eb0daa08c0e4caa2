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

Both terms are read as the numbered records of their normal-form gate
(``terms._gate``); tag names come back only in the result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import SortLattice, TOP
from .terms import Term, _gate, fresh_tags


@dataclass
class SubsumptionWitness:
    """A witness map with its graded degree and the per-tag contributions.

    ``mapping`` sends each tag of the more general term to the tag of the
    more specific (possibly completed) term it lands on; ``per_tag`` records
    (specific sort, general sort, degree) per mapped tag, in ``mapping``'s
    order.
    """

    mapping: dict[str, str]
    degree: float
    per_tag: dict[str, tuple[str, str, float]]


def _find_witness(tags0: list[str], edges0: dict, edges1: dict) -> dict[int, int] | None:
    """Map t1's tag numbers to t0's, root first, in the order the search
    reaches them, completing t0 with fresh top nodes where t1 demands an edge
    t0 lacks; None on a coreference conflict.

    Both are :func:`_gate` records.  t0's (``tags0``, ``edges0``) is the
    caller's: a completion edge joins its node's edges, and a fresh node takes
    the next number, its ``_T`` name appended to ``tags0``.
    """
    fresh = None  # the names to avoid are tags0 as the first completion finds it
    mapping = {0: 0}
    queue = [0]
    while queue:
        x1 = queue.pop()
        out1 = edges1.get(x1)
        if out1 is None:
            continue
        out0 = edges0.setdefault(mapping[x1], {})
        for f, y1 in out1.items():
            y0 = out0.get(f)
            if y0 is None:
                if fresh is None:
                    fresh = fresh_tags(set(tags0), prefix="_T")
                y0 = out0[f] = len(tags0)
                tags0.append(next(fresh))
            known = mapping.get(y1)
            if known is None:
                mapping[y1] = y0
                queue.append(y1)
            elif known != y0:
                return None
    return mapping


def subsumption_witness(t0: Term, t1: Term, lattice: SortLattice) -> SubsumptionWitness | None:
    """Witness after top-completion of t0; None only on a coreference conflict."""
    tags0, sorts0, edges0 = _gate(t0, lattice.graph)
    tags1, sorts1, edges1 = _gate(t1, lattice.graph)
    found = _find_witness(tags0, edges0, edges1)
    if found is None:
        return None
    sorts0 += [TOP] * (len(tags0) - len(sorts0))  # the completion nodes
    per_tag = {}
    for x1, x0 in found.items():
        s0, s1 = sorts0[x0], sorts1[x1]
        per_tag[tags1[x1]] = (s0, s1, lattice.degree(s0, s1))
    mapping = {tags1[x1]: tags0[x0] for x1, x0 in found.items()}
    degree = min(d for _, _, d in per_tag.values())  # the root is always mapped
    return SubsumptionWitness(mapping=mapping, degree=degree, per_tag=per_tag)


def fuzzy_subsumption_degree(t0: Term, t1: Term, lattice: SortLattice) -> float:
    """Degree to which t0 is subsumed by t1 (0 when no witness exists)."""
    w = subsumption_witness(t0, t1, lattice)
    return 0.0 if w is None else w.degree


def crisp_subsumes(t0: Term, t1: Term, lattice: SortLattice) -> bool:
    """Support-level subsumption: holds iff the graded degree is positive."""
    return fuzzy_subsumption_degree(t0, t1, lattice) > 0.0

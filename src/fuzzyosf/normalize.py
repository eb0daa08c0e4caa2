"""Constraint normalization: rewriting clauses to solved form.

Four rewrite rules drive a clause to either a solved form (per tag at most
one sort constraint, at most one value per feature, no equalities) or an
explicit inconsistency:

* sort intersection — two sorts on one tag collapse to their GLB;
* inconsistent sort — a bot-sorted tag collapses the whole clause;
* feature functionality — two values for one feature become an equality;
* tag elimination — an equality substitutes one tag for the other everywhere
  else (applicable only when the tags differ).

The engine (:func:`normalize`, and ``unify`` on the same solver) is a
deterministic union-find strategy on tag-numbered tables (after Aït-Kaci and
Di Cosmo, 1993): equalities merge eagerly, feature merges queue behind them,
sort intersections fold as constraints land.  The tests check it against a
small-step reference engine that fires one rule instance at a time, in a
random order, and reaches the same normal form in every order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Union

from .lattice import BOT, SortLattice
from .terms import Clause, Constraint, FeatureConstraint, SortConstraint


@dataclass
class Inconsistent:
    """Normalization collapsed the clause; ``tag`` is the first witness."""

    tag: str
    trace: list[str] = field(default_factory=list)


@dataclass
class Normalized:
    """Solved constraints plus the equality bindings that were eliminated."""

    solved: Clause
    equalities: tuple[tuple[str, str], ...]  # (representative, member) pairs
    trace: list[str] = field(default_factory=list)


NormalForm = Union[Inconsistent, Normalized]


class _Collapse(Exception):
    def __init__(self, tag: int):
        self.tag = tag


class _Solver:
    """The union-find engine behind :func:`normalize` and ``unify``.

    Every table is a list indexed by tag number; ``names`` gives each
    number's tag.  Tags join classes through ``parent``, which :meth:`find`
    walks with path halving, and ``rank``, which :meth:`drain` unions by (on
    equal ranks the first root wins, so representatives follow insertion
    order).  A class carries at most one sort (``sort``) and one value per
    feature (``feats``, feature to tag number), both at the class's root.
    A caller may fill these tables up front; constraints land through
    :meth:`add_sort` and :meth:`add_feats`; equalities queue on ``pending``
    and :meth:`drain` merges them, queueing the feature merges they force.
    A bot sort raises ``_Collapse``.  With ``trace`` set, every rule firing
    is logged.
    """

    def __init__(self, lattice: SortLattice, names: list[str], trace: bool = False):
        self.lattice = lattice
        self.trace = trace
        self.names = names
        self.parent = list(range(len(names)))
        self.rank = [0] * len(names)
        self.sort: list[str | None] = [None] * len(names)
        self.feats: list[dict[str, int] | None] = [None] * len(names)
        self.pending: deque[tuple[int, int]] = deque()
        self.log: list[str] = []

    def find(self, x: int) -> int:
        """The root of ``x``'s class."""
        parent = self.parent
        up = parent[x]
        while up != x:
            grand = parent[up]
            parent[x] = grand
            x, up = grand, parent[grand]
        return x

    def roots(self) -> list[int]:
        """Every tag's class root, by tag number (most parents are roots already)."""
        parent, find = self.parent, self.find
        return [up if parent[up] == up else find(up) for up in parent]

    def add_sort(self, rep: int, sort: str) -> None:
        cur = self.sort[rep]
        if cur is not None:
            meet = cur if cur == sort else self.lattice.glb(cur, sort)
            if self.trace:
                self.log.append(f"sort-intersection: {self.names[rep]} : glb({cur}, {sort}) = {meet}")
            sort = meet
        if sort == BOT:
            if self.trace:
                self.log.append(f"inconsistent-sort: {self.names[rep]} is {BOT}")
            raise _Collapse(rep)
        self.sort[rep] = sort

    def add_feats(self, rep: int, edges: dict[str, int]) -> None:
        """Add ``edges`` to ``rep``'s class; a class with no features takes the dict."""
        bucket = self.feats[rep]
        if bucket is None:
            self.feats[rep] = edges
            return
        for feature, target in edges.items():
            existing = bucket.setdefault(feature, target)
            if existing != target and self.find(existing) != self.find(target):
                if self.trace:
                    names = self.names
                    forced = f"{names[existing]} = {names[target]}"
                    self.log.append(f"feature-functionality: {names[rep]}.{feature} forces {forced}")
                self.pending.append((existing, target))

    def drain(self) -> None:
        """Merge queued equalities until none is left."""
        pending, find, parent, rank = self.pending, self.find, self.parent, self.rank
        sort, feats = self.sort, self.feats
        while pending:
            x, y = pending.popleft()
            winner = x if parent[x] == x else find(x)
            loser = y if parent[y] == y else find(y)
            if winner == loser:
                continue
            rank_w, rank_l = rank[winner], rank[loser]
            if rank_w < rank_l:
                winner, loser = loser, winner
            elif rank_w == rank_l:
                rank[winner] = rank_w + 1
            parent[loser] = winner
            if self.trace:
                self.log.append(f"tag-elimination: {self.names[loser]} -> {self.names[winner]}")
            lost_sort = sort[loser]
            if lost_sort is not None:
                sort[loser] = None
                self.add_sort(winner, lost_sort)
            lost_feats = feats[loser]
            if lost_feats is not None:
                feats[loser] = None
                self.add_feats(winner, lost_feats)


def normalize(clause: Clause, lattice: SortLattice, trace: bool = False) -> NormalForm:
    """Drive a clause to solved form (or detect inconsistency) in near-linear time.

    Inconsistency is a value, not an error.  The solved part lists sort
    constraints first, then feature constraints, each in first-occurrence
    order of the input; equalities reproduce the union-find partition as
    (representative, member) pairs.
    """
    names = clause.tags()
    number = {tag: x for x, tag in enumerate(names)}
    solver = _Solver(lattice, names, trace)
    find = solver.find
    try:
        for c in clause.constraints:
            if isinstance(c, SortConstraint):
                solver.add_sort(find(number[c.tag]), c.sort)
            elif isinstance(c, FeatureConstraint):
                solver.add_feats(find(number[c.tag]), {c.feature: number[c.target]})
            else:
                solver.pending.append((number[c.left], number[c.right]))
            solver.drain()
    except _Collapse as stop:
        return Inconsistent(tag=names[stop.tag], trace=solver.log)

    roots = solver.roots()
    classes: dict[int, list[int]] = {}
    for x, rep in enumerate(roots):
        classes.setdefault(rep, []).append(x)
    sort, feats = solver.sort, solver.feats
    constraints: list[Constraint] = [
        SortConstraint(names[r], sort[r]) for r in classes if sort[r] is not None
    ]
    constraints += [FeatureConstraint(names[r], f, names[roots[t]])
                    for r in classes if feats[r] for f, t in feats[r].items()]
    equalities = [(names[r], names[x]) for r, members in classes.items() for x in members if x != r]
    root = names[roots[number[clause.root]]] if clause.root in number else clause.root
    return Normalized(
        solved=Clause(tuple(constraints), root=root),
        equalities=tuple(equalities),
        trace=solver.log,
    )


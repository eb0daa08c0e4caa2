"""Constraint normalization: rewriting clauses to solved form.

Four rewrite rules drive a clause to either a solved form (per tag at most
one sort constraint, at most one value per feature, no equalities) or an
explicit inconsistency:

* sort intersection — two sorts on one tag collapse to their GLB;
* inconsistent sort — a bot-sorted tag collapses the whole clause;
* feature functionality — two values for one feature become an equality;
* tag elimination — an equality substitutes one tag for the other everywhere
  else (applicable only when the tags differ).

The production engine (:func:`normalize`, and ``unify`` on the same solver)
is a deterministic union-find strategy on tag-numbered tables (after Aït-Kaci
and Di Cosmo, 1993): equalities merge eagerly, feature merges queue behind
them, sort intersections fold as constraints land.  A small-step engine
(:func:`normalize_small_step`) applies one rule instance at a time in a
seedable random order; it exists so tests can check that every order
reaches the same normal form, and it is not the production path.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Union

from .lattice import BOT, SortLattice
from .terms import (
    Clause,
    Constraint,
    EqualityConstraint,
    FeatureConstraint,
    SortConstraint,
)


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
    :meth:`add_sort` and :meth:`add_feat`; equalities queue on ``pending``
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
            meet = self.lattice.glb(cur, sort)
            if self.trace:
                self.log.append(f"sort-intersection: {self.names[rep]} : glb({cur}, {sort}) = {meet}")
            sort = meet
        if sort == BOT:
            if self.trace:
                self.log.append(f"inconsistent-sort: {self.names[rep]} is {BOT}")
            raise _Collapse(rep)
        self.sort[rep] = sort

    def add_feat(self, rep: int, feature: str, target: int) -> None:
        bucket = self.feats[rep]
        if bucket is None:
            bucket = self.feats[rep] = {}
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
                for feature, target in lost_feats.items():
                    self.add_feat(winner, feature, target)


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
                solver.add_feat(find(number[c.tag]), c.feature, number[c.target])
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


# -- small-step engine (test instrumentation) --------------------------------


def step_bound(clause: Clause) -> int:
    """Upper bound on small-step rule applications: |constraints| + |tags|^2."""
    return len(clause.constraints) + len(clause.tags()) ** 2


def normalize_small_step(
    clause: Clause,
    lattice: SortLattice,
    rng: random.Random | None = None,
    max_steps: int | None = None,
) -> tuple[NormalForm, int]:
    """Apply one applicable rule instance at a time until none remains.

    ``rng`` picks the instance uniformly at random (first instance when
    None).  Returns the normal form and the number of steps taken; raises
    RuntimeError if ``max_steps`` (default: :func:`step_bound`) is exceeded,
    which would falsify the termination bound.
    """
    state: list[Constraint] = list(clause.constraints)
    limit = step_bound(clause) if max_steps is None else max_steps
    steps = 0

    def instances() -> list[tuple[str, tuple]]:
        found: list[tuple[str, tuple]] = []
        for i, c in enumerate(state):
            if isinstance(c, SortConstraint) and c.sort == BOT and len(state) > 1:
                found.append(("inconsistent-sort", (i,)))
        for i, c in enumerate(state):
            if isinstance(c, EqualityConstraint) and c.left != c.right:
                occurs = any(
                    _mentions(other, c.right) for k, other in enumerate(state) if k != i
                )
                if occurs:
                    found.append(("tag-elimination", (i,)))
        by_key: dict[tuple[str, str], list[int]] = {}
        for i, c in enumerate(state):
            if isinstance(c, FeatureConstraint):
                by_key.setdefault((c.tag, c.feature), []).append(i)
        for key, idxs in by_key.items():
            if len(idxs) > 1:
                found.append(("feature-functionality", (idxs[0], idxs[1])))
        by_tag: dict[str, list[int]] = {}
        for i, c in enumerate(state):
            if isinstance(c, SortConstraint):
                by_tag.setdefault(c.tag, []).append(i)
        for tag, idxs in by_tag.items():
            if len(idxs) > 1:
                found.append(("sort-intersection", (idxs[0], idxs[1])))
        return found

    while True:
        found = instances()
        if not found:
            break
        rule, where = found[0] if rng is None else rng.choice(found)
        steps += 1
        if steps > limit:
            raise RuntimeError(
                f"normalization exceeded its step bound ({limit}) on: {clause}"
            )
        if rule == "inconsistent-sort":
            (i,) = where
            state = [state[i]]
        elif rule == "tag-elimination":
            (i,) = where
            eq = state[i]
            assert isinstance(eq, EqualityConstraint)
            state = [
                c if k == i else _substitute(c, eq.right, eq.left)
                for k, c in enumerate(state)
            ]
        elif rule == "feature-functionality":
            i, j = where
            first, second = state[i], state[j]
            assert isinstance(first, FeatureConstraint) and isinstance(second, FeatureConstraint)
            state = [c for k, c in enumerate(state) if k != j]
            state.append(EqualityConstraint(first.target, second.target))
        else:  # sort-intersection
            i, j = where
            a, b = state[i], state[j]
            assert isinstance(a, SortConstraint) and isinstance(b, SortConstraint)
            meet = lattice.glb(a.sort, b.sort)
            state = [c for k, c in enumerate(state) if k != j]
            state[i] = SortConstraint(a.tag, meet)

    bot_tags = [c.tag for c in state if isinstance(c, SortConstraint) and c.sort == BOT]
    if bot_tags:
        return Inconsistent(tag=bot_tags[0]), steps

    solved = [c for c in state if not isinstance(c, EqualityConstraint)]
    equalities = tuple(
        (c.left, c.right) for c in state if isinstance(c, EqualityConstraint)
    )
    return (
        Normalized(solved=Clause(tuple(solved), root=clause.root), equalities=equalities),
        steps,
    )


def _mentions(c: Constraint, tag: str) -> bool:
    if isinstance(c, SortConstraint):
        return c.tag == tag
    if isinstance(c, FeatureConstraint):
        return c.tag == tag or c.target == tag
    return c.left == tag or c.right == tag


def _substitute(c: Constraint, old: str, new: str) -> Constraint:
    if isinstance(c, SortConstraint):
        return SortConstraint(new if c.tag == old else c.tag, c.sort)
    if isinstance(c, FeatureConstraint):
        return FeatureConstraint(
            new if c.tag == old else c.tag,
            c.feature,
            new if c.target == old else c.target,
        )
    return EqualityConstraint(
        new if c.left == old else c.left,
        new if c.right == old else c.right,
    )

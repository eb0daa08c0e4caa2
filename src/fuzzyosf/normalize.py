"""Constraint normalization and graded unification, on one solver.

Four rewrite rules drive a clause to either a solved form (per tag at most
one sort constraint, at most one value per feature, no equalities) or an
explicit inconsistency:

* sort intersection — two sorts on one tag collapse to their GLB;
* inconsistent sort — a bot-sorted tag collapses the whole clause;
* feature functionality — two values for one feature become an equality;
* tag elimination — an equality substitutes one tag for the other everywhere
  else (applicable only when the tags differ).

The engine (:func:`normalize`, and :func:`unify` on the same solver) is a
deterministic union-find strategy on tag-numbered tables (after Aït-Kaci and
Di Cosmo, 1993): equalities merge eagerly, feature merges queue behind them,
sort intersections fold as constraints land.  The tests check it against a
small-step reference engine that fires one rule instance at a time, in a
random order, and reaches the same normal form in every order.

Unification conjoins two terms with an equality between their roots.  Their
gate records, the second shifted past the first, are the solver's tables; a
normal term on its own fires no rule, so one root equality and one drain do
all the solving.  An inconsistent result is the bottom term at degree 1
(failure is certain).  Otherwise the solved classes, freshly named, rebuild
the unifier, and the degree to which each input subsumes it is

    beta_i = min over tags X of term_i of degree(class sort of X, sort of X in term_i)

and the unification degree is ``min(beta1, beta2)``.  Classes whose members
are all top-sorted contribute nothing (degree 1).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from itertools import filterfalse

from .lattice import BOT, SortLattice, _Slots
from .terms import Clause, EqualityConstraint, FeatureConstraint, SortConstraint, Term, _expand, _gate, _new
from .terms import _not_a_constraint


class Inconsistent(_Slots):
    """Normalization collapsed the clause; ``tag`` is the first witness."""

    __match_args__ = __slots__ = ("tag", "trace")

    def __init__(self, tag: str, trace: list[str] | None = None):
        self.tag, self.trace = tag, [] if trace is None else trace


class Normalized(_Slots):
    """Solved constraints plus the eliminated equalities as (representative, member) pairs."""

    __match_args__ = __slots__ = ("solved", "equalities", "trace")

    def __init__(self, solved: Clause, equalities: tuple[tuple[str, str], ...], trace: list[str] | None = None):
        self.solved, self.equalities, self.trace = solved, equalities, [] if trace is None else trace


class _Collapse(Exception):
    def __init__(self, tag: int):
        self.tag = tag


class _Solver:
    """The union-find engine behind :func:`normalize` and :func:`unify`.

    Every table is a list indexed by tag number; ``names`` gives each
    number's tag.  Tags join classes through ``parent``, which :meth:`find`
    walks with path halving, and ``rank``, which :meth:`drain` unions by (on
    equal ranks the first root wins, so representatives follow insertion
    order).  A class carries at most one sort (``sort``) and one value per
    feature (``feats``, feature to tag number), both at the class's root.
    The caller hands over ``sort`` and may fill ``feats``.  :meth:`merge`
    applies sort intersection (through ``meet``, the lattice's ``glb``),
    inconsistent sort (a bot sort raises ``_Collapse``) and feature
    functionality (each pair of values of one feature queues on
    ``pending``); it lands each sort or feature constraint, and after each
    union :meth:`drain` hands it the losing class's sort and features.  With
    ``trace`` set, every rule firing is logged.
    """

    def __init__(self, meet: Callable[[str, str], str], names: list[str], sort: list, trace: bool = False):
        self.meet = meet
        self.trace = trace
        self.names = names
        self.parent = list(range(len(names)))
        self.rank = [0] * len(names)
        self.sort = sort
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

    def merge(self, rep: int, sort: str | None, edges: dict[str, int] | None) -> None:
        """Land a sort and feature edges on ``rep``'s class: meet the sorts
        (sort intersection), collapse on bot (inconsistent sort) and queue a
        pair for each feature both sides carry (feature functionality).  A
        class with no features takes ``edges`` itself."""
        if sort is not None:
            kept = self.sort[rep]
            met = sort if kept is None or kept == sort else self.meet(kept, sort)
            if self.trace and kept is not None:
                self.log.append(f"sort-intersection: {self.names[rep]} : glb({kept}, {sort}) = {met}")
            if met == BOT:
                if self.trace:
                    self.log.append(f"inconsistent-sort: {self.names[rep]} is {BOT}")
                raise _Collapse(rep)
            self.sort[rep] = met
        if edges is not None:
            bucket = self.feats[rep]
            if bucket is None:
                self.feats[rep] = edges
                return
            for feature, target in edges.items():
                existing = bucket.setdefault(feature, target)
                if existing != target:
                    if self.trace and self.find(existing) != self.find(target):
                        forced = f"{self.names[existing]} = {self.names[target]}"
                        self.log.append(f"feature-functionality: {self.names[rep]}.{feature} forces {forced}")
                    self.pending.append((existing, target))

    def drain(self) -> None:
        """Merge queued equalities until none is left.

        Each union hands the loser's sort and features to :meth:`merge` on
        the winner.  A forced pair whose tags already share a class is queued
        anyway, and skipped unlogged when it comes up.
        """
        pending, find, parent, rank = self.pending, self.find, self.parent, self.rank
        sort, feats, merge, trace, names = self.sort, self.feats, self.merge, self.trace, self.names
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
            if trace:
                self.log.append(f"tag-elimination: {names[loser]} -> {names[winner]}")
            lost, lost_feats = sort[loser], feats[loser]
            if lost is not None or lost_feats is not None:
                sort[loser] = feats[loser] = None
                merge(winner, lost, lost_feats)


def normalize(clause: Clause, lattice: SortLattice, trace: bool = False) -> Inconsistent | Normalized:
    """Drive a clause to solved form (or detect inconsistency) in near-linear time.

    Inconsistency is a value, not an error.  The solved part lists sort
    constraints first, then feature constraints, each in first-occurrence
    order of the input; equalities reproduce the union-find partition as
    (representative, member) pairs.  Before solving, the first unknown sort or
    feature in constraint order raises UnknownSort or UnknownFeature, and the
    first item that is not a constraint raises TypeError.
    """
    # One pass numbers the tags and looks up each name (an unknown one raises):
    # a step is a tag number, a sort, feature or None, and a target or None.
    sort_names, feature_names = lattice.graph._sort_names, lattice.graph._feature_names
    number: dict[str, int] = {}
    steps = []
    for c in clause.constraints:
        if isinstance(c, SortConstraint):
            steps.append((number.setdefault(c.tag, len(number)), sort_names[c.sort], None))
        elif isinstance(c, FeatureConstraint):
            x = number.setdefault(c.tag, len(number))
            steps.append((x, feature_names[c.feature], number.setdefault(c.target, len(number))))
        elif isinstance(c, EqualityConstraint):
            x = number.setdefault(c.left, len(number))
            steps.append((x, None, number.setdefault(c.right, len(number))))
        else:
            raise _not_a_constraint(c)
    names = list(number)
    solver = _Solver(lattice.glb, names, [None] * len(names), trace)
    find, merge, pending = solver.find, solver.merge, solver.pending
    try:
        for x, name, y in steps:
            if y is None:
                merge(find(x), name, None)
            elif name is None:
                pending.append((x, y))
            else:
                merge(find(x), None, {name: y})
            if pending:
                solver.drain()
    except _Collapse as stop:
        return Inconsistent(names[stop.tag], solver.log)

    roots = solver.roots()
    classes: dict[int, list[int]] = {}
    for x, rep in enumerate(roots):
        classes.setdefault(rep, []).append(x)
    sort, feats = solver.sort, solver.feats
    constraints = [_new(SortConstraint, (names[r], sort[r])) for r in classes if sort[r] is not None]
    constraints += [_new(FeatureConstraint, (names[r], f, names[roots[t]]))
                    for r in classes if feats[r] for f, t in feats[r].items()]
    equalities = [(names[r], names[x]) for r, members in classes.items() for x in members if x != r]
    root = names[roots[number[clause.root]]] if clause.root in number else clause.root
    return Normalized(_new(Clause, (tuple(constraints), root)), tuple(equalities), solver.log)


class UnifyResult(_Slots):
    """Outcome of unifying two terms.

    ``unifier`` is None exactly when the terms are incompatible (bottom);
    then every beta is 1.  ``tag_classes`` maps each fresh representative to
    the original tags it stands for (after collision renaming of the second
    term, whose renames are listed in ``renamed``).
    """

    __match_args__ = __slots__ = ("unifier", "beta1", "beta2", "beta", "tag_classes", "renamed")

    def __init__(self, unifier: Term | None, beta1: float, beta2: float, beta: float,
                 tag_classes: dict[str, tuple[str, ...]], renamed: dict[str, str]):
        self.unifier, self.beta1, self.beta2, self.beta = unifier, beta1, beta2, beta
        self.tag_classes, self.renamed = tag_classes, renamed

    @property
    def is_bottom(self) -> bool:
        return self.unifier is None


def _disjoint_rename(tags1: list[str], tags2: list[str]) -> dict[str, str]:
    """Renames of the second term's tags that clash with the first's: each
    clashing tag takes ``_`` suffixes until its name is unused.  A used name
    may point ahead, past used names only, and each search leaves every name
    it passed pointing at the unused one it found."""
    taken = set(tags1)
    if taken.isdisjoint(tags2):
        return {}
    clash = [tag for tag in tags2 if tag in taken]
    taken.update(tags2)
    mapping: dict[str, str] = {}
    ahead: dict[str, str] = {}
    for tag in clash:
        candidate = tag + "_"
        if candidate in taken:
            passed = [tag]
            while candidate in taken:
                passed.append(candidate)
                candidate = ahead.get(candidate) or candidate + "_"
            for name in passed:
                ahead[name] = candidate
        mapping[tag] = candidate
        taken.add(candidate)
    return mapping


_CLASS_NAMES: list[str] = []  # _Z0, _Z1, ...: unify's class names, as many as it has needed so far


def unify(t1: Term, t2: Term, lattice: SortLattice) -> UnifyResult:
    """Unify two normal terms over a sort lattice."""
    global _CLASS_NAMES
    tags1, own1, edges1 = _gate(t1, lattice.graph)
    tags2, own2, edges2 = _gate(t2, lattice.graph)
    renamed = _disjoint_rename(tags1, tags2)

    # Tags are numbered term 1 first, then term 2, each in walk order.  A normal
    # term has one structured occurrence per tag, distinct features per node and
    # no bot, so on its own it fires no rule: its record goes straight into the
    # tables, term 2's shifted past term 1's.
    n1 = len(tags1)
    names = tags1 + [renamed.get(tag, tag) for tag in tags2] if renamed else tags1 + tags2
    sort = own1 + own2
    solver = _Solver(lattice.glb, names, sort)
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
        return UnifyResult(None, 1.0, 1.0, 1.0, {}, renamed)

    # Classes, by root in first-mention order, take the names _Z0, _Z1, ...
    # in turn, less any input tag (only one that contains "_Z" can be one);
    # each class's features then point at class roots, and the unifier
    # expands from the tables.
    roots = solver.roots()
    members: dict[int, list[str]] = {}
    for x in dict.fromkeys(mention):
        members.setdefault(roots[x], []).append(names[x])
    for rep in members:
        out = feats[rep]
        if out:
            for f, y in out.items():
                out[f] = roots[y]
    taken = set(names) if "_Z" in "".join(names) else ()
    need, table = len(members) + len(taken), _CLASS_NAMES  # a table is replaced, never changed
    if len(table) < need:
        table = _CLASS_NAMES = [*table, *map("_Z{}".format, range(len(table), need))]
    class_name = dict(zip(members, filterfalse(taken.__contains__, table) if taken else table))
    unifier = _expand(roots[0], class_name, sort, feats)

    # Each tag's degree, term 1's tags first, each term's in walk order; a tag
    # whose class kept its own sort has degree 1 by reflexivity.
    class_sorts = map(sort.__getitem__, roots)  # zip(own1, ...) stops short of term 2's tags
    beta1 = beta2 = 1.0
    for own, s in zip(own1, class_sorts):
        if s != own:
            d = lattice.degree(s, own)
            if d < beta1:
                beta1 = d
    for own, s in zip(own2, class_sorts):
        if s != own:
            d = lattice.degree(s, own)
            if d < beta2:
                beta2 = d
    tag_classes = dict(zip(class_name.values(), map(tuple, members.values())))
    return UnifyResult(unifier, beta1, beta2, min(beta1, beta2), tag_classes, renamed)

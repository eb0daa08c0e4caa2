"""Weighted sort hierarchies: graded subsumption, max-min closure, and GLBs.

A sort hierarchy is a finite set of sort names partially ordered by a graded
subsumption relation.  Declared edges ``(sub, super, degree)`` with degree in
(0, 1] form a DAG; the full relation is the max-min reflexive-transitive
closure of those edges, extended with two implicit bounds: ``bot`` lies below
every sort and ``top`` above every sort, both at degree 1, without any
materialized edges.  Degrees only ever combine through ``min`` (along a path)
and ``max`` (across paths), so every derived degree is one of the declared
edge degrees or 0/1 — comparisons stay exact.  A closure row holds only the
positive degrees from its source, so it costs the sorts above the source and
their out-edges, not the whole hierarchy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

BOT = "bot"
TOP = "top"

_SORT_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_FEATURE_RE = _SORT_RE


class OntologyError(Exception):
    """Base class for errors in sort-hierarchy construction or queries."""


class DuplicateName(OntologyError):
    """A sort or feature name was declared twice, or the namespaces collide."""


class DegreeOutOfRange(OntologyError):
    """A degree fell outside its legal range ((0, 1] for edges, [0, 1] for sims)."""


class CycleDetected(OntologyError):
    """The declared edges (plus implicit bounds) admit a directed cycle."""

    def __init__(self, cycle: list[str]):
        self.cycle = list(cycle)
        super().__init__("subsumption cycle: " + " -> ".join(self.cycle))


class NotALattice(OntologyError):
    """Two sorts have no unique greatest lower bound."""

    def __init__(self, s: str, t: str, maximal: list[str]):
        self.pair = (s, t)
        self.maximal = list(maximal)
        super().__init__(
            f"no unique greatest lower bound for ({s}, {t}); "
            f"maximal common lower bounds: {', '.join(self.maximal)}"
        )


class UnknownSort(OntologyError):
    """A sort name is not part of the hierarchy."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown sort: {name}")


class UnknownFeature(OntologyError):
    """A feature name is not part of the signature."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown feature: {name}")


class SignatureMismatch(OntologyError):
    """A term refers to sorts or features outside the signature."""


class SortGraph:
    """The declared fragment of a sort hierarchy: names plus weighted edges.

    Construction runs the linear structural checks (name syntax and
    uniqueness, degree ranges, acyclicity including the implicit bot/top
    bounds).  The unique-GLB property is checked separately by
    :meth:`SortLattice.validate`, because it is quadratic in the number of
    branching sorts.
    """

    def __init__(
        self,
        sorts: list[str],
        features: list[str],
        edges: list[tuple[str, str, float]],
    ):
        declared = list(sorts)
        for name in (BOT, TOP):
            if name not in declared:
                declared.append(name)
        seen: set[str] = set()
        for name in declared:
            if not _SORT_RE.match(name):
                raise OntologyError(f"bad sort name: {name!r}")
            if name in seen:
                raise DuplicateName(f"sort declared twice: {name}")
            seen.add(name)
        self.sorts: list[str] = declared

        feats: set[str] = set()
        for name in features:
            if not _FEATURE_RE.match(name):
                raise OntologyError(f"bad feature name: {name!r}")
            if name in feats:
                raise DuplicateName(f"feature declared twice: {name}")
            if name in seen:
                raise DuplicateName(f"name used as both sort and feature: {name}")
            feats.add(name)
        self.features: list[str] = list(features)
        self._feature_set = feats

        self._index: dict[str, int] = {name: i for i, name in enumerate(self.sorts)}
        n = len(self.sorts)
        combined: dict[tuple[int, int], float] = {}
        for sub, sup, degree in edges:
            if sub not in self._index:
                raise UnknownSort(sub)
            if sup not in self._index:
                raise UnknownSort(sup)
            if isinstance(degree, bool) or not (
                isinstance(degree, (int, float)) and 0.0 < degree <= 1.0
            ):
                raise DegreeOutOfRange(
                    f"edge degree must lie in (0, 1]: {sub} -> {sup} @ {degree!r}"
                )
            if sub == sup:
                raise CycleDetected([sub, sup])
            if sup == BOT:
                # sub <= bot plus the implicit bot <= sub would force sub = bot.
                raise CycleDetected([BOT, sub, BOT])
            if sub == TOP:
                raise CycleDetected([TOP, sup, TOP])
            key = (self._index[sub], self._index[sup])
            if key not in combined or degree > combined[key]:
                combined[key] = float(degree)

        self.edges: list[tuple[str, str, float]] = [
            (self.sorts[i], self.sorts[j], d) for (i, j), d in combined.items()
        ]
        self._succ: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        self._pred: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for (i, j), d in combined.items():
            self._succ[i].append((j, d))
            self._pred[j].append((i, d))

        self._topo: list[int] = self._toposort()

    def _toposort(self) -> list[int]:
        n = len(self.sorts)
        indeg = [0] * n
        for i in range(n):
            for j, _ in self._succ[i]:
                indeg[j] += 1
        order = [i for i in range(n) if indeg[i] == 0]
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for v, _ in self._succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    order.append(v)
        if len(order) < n:
            leftover = {i for i in range(n) if indeg[i] > 0}
            start = min(leftover)
            trail, node = [], start
            on_trail: set[int] = set()
            while node not in on_trail:
                on_trail.add(node)
                trail.append(node)
                node = next(v for v, _ in self._succ[node] if v in leftover)
            cycle = trail[trail.index(node) :] + [node]
            raise CycleDetected([self.sorts[i] for i in cycle])
        return order

    def has_sort(self, name: str) -> bool:
        return name in self._index

    def has_feature(self, name: str) -> bool:
        return name in self._feature_set

    def to_dot(self) -> str:
        lines = ["digraph sorts {", "  rankdir=BT;"]
        for name in self.sorts:
            lines.append(f'  "{name}";')
        for sub, sup, d in self.edges:
            lines.append(f'  "{sub}" -> "{sup}" [label="{d:g}"];')
        lines.append("}")
        return "\n".join(lines)


class SortLattice:
    """Query layer over a :class:`SortGraph`: closure degrees and GLBs.

    Closure degrees are computed lazily, one source at a time: a DFS finds the
    sorts above the source, one relaxation pass over just those in
    topological order fills a dict of the positive degrees — O(a log a + e)
    per distinct source for a sorts above it with e out-edges among them,
    memoized.
    GLBs live on the crisp support, as bit vectors (Aït-Kaci, Boyer, Lincoln
    & Nasr, TOPLAS 1989): each sort's down-set is an ``int`` over a linear
    extension with ``bot`` at bit 0, two sorts' common lower bounds are the
    AND, and the GLB exists iff the sort at its highest bit has exactly that
    down-set.  ``validate()`` tests only branching pairs and stores nothing.
    """

    def __init__(self, graph: SortGraph):
        self.graph = graph
        self._rows: dict[int, dict[int, float]] = {}
        # Pin bot and top to the ends: graph._topo may put leaves before bot.
        bot, top = graph._index[BOT], graph._index[TOP]
        order = [bot] + [u for u in graph._topo if u != bot and u != top] + [top]
        down = [0] * len(order)
        for bit, u in enumerate(order):
            down[u] = 1 << bit | 1
            for v, _ in graph._pred[u]:
                down[u] |= down[v]
        down[top] = (1 << len(order)) - 1
        # As ints, down-sets grow strictly along every edge: a linear extension.
        self._down: list[int] = down
        self._below: dict[str, int] = dict(zip(graph.sorts, down))
        self._bit_sort: list[str] = [graph.sorts[u] for u in order]
        self._bit_below: list[int] = [down[u] for u in order]
        self._validated = False

    # -- closure ---------------------------------------------------------

    def _row(self, src: int) -> dict[int, float]:
        row = self._rows.get(src)
        if row is not None:
            return row
        succ = self.graph._succ
        reach, stack = {src}, [src]
        while stack:
            for v, _ in succ[stack.pop()]:
                if v not in reach:
                    reach.add(v)
                    stack.append(v)
        # Relax the reachable sorts only, by down-set (a topological order);
        # every one of them has a positive degree by the time it is reached.
        row = {src: 1.0}
        for u in sorted(reach, key=self._down.__getitem__):
            du = row[u]
            for v, w in succ[u]:
                d = du if du < w else w
                if d > row.get(v, 0.0):
                    row[v] = d
        self._rows[src] = row
        return row

    def degree(self, s: str, t: str) -> float:
        """Graded subsumption s below t: max over paths of min edge degree."""
        idx = self.graph._index
        if s not in idx:
            raise UnknownSort(s)
        if t not in idx:
            raise UnknownSort(t)
        if s == t:
            return 1.0
        if s == BOT or t == TOP:
            return 1.0
        if s == TOP or t == BOT:
            return 0.0
        i, j = idx[s], idx[t]
        row = self._rows.get(i) or self._row(i)
        return row[j] if j in row else 0.0

    def _above(self, s: str) -> list[tuple[str, float]]:
        """Every ``(t, degree(s, t))`` with a positive degree, in sort order."""
        g = self.graph
        if s == BOT:
            return [(t, 1.0) for t in g.sorts]
        top = g._index[TOP]
        row = self._row(g._index[s])
        return [(g.sorts[j], 1.0 if j == top else row[j]) for j in sorted({*row, top})]

    def closure_pairs(self) -> list[tuple[str, str, float]]:
        """All positive closure entries, including implicit bounds and reflexivity."""
        return [(s, t, d) for s in self.graph.sorts for t, d in self._above(s)]

    # -- crisp support and GLBs ------------------------------------------

    def _maximal(self, common: int) -> list[str]:
        """Sorted names of the maximal sorts in a down-closed bitset."""
        # From the highest bit down: maximal iff below no maximal sort seen.
        out, covered = [], 0
        for bit in range(common.bit_length() - 1, -1, -1):
            if common >> bit & 1 and not covered >> bit & 1:
                out.append(self._bit_sort[bit])
                covered |= self._bit_below[bit]
        return sorted(out)

    def glb(self, s: str, t: str) -> str:
        """Greatest lower bound on the crisp support; raises NotALattice."""
        below = self._below
        if s not in below:
            raise UnknownSort(s)
        if t not in below:
            raise UnknownSort(t)
        common = below[s] & below[t]
        high = common.bit_length() - 1
        if self._bit_below[high] != common:
            raise NotALattice(s, t, self._maximal(common))
        return self._bit_sort[high]

    def glb_all(self, names: list[str]) -> str:
        """Fold glb over a non-empty list of sorts."""
        if not names:
            raise ValueError("glb_all needs at least one sort")
        acc = names[0]
        for name in names[1:]:
            acc = self.glb(acc, name)
        return acc

    def _first_failure(self, indices: list[int] | range) -> tuple[int, int] | None:
        """The first pair of sort ``indices``, in order, with no unique GLB."""
        # If (a, b) has maximal common lower bounds m1 != m2, so has (a', b') for
        # a' <= a, b' <= b minimal above both: incomparable, and each has two
        # declared lower covers, one above m1 and one above m2, so both branch.
        downs = self._down
        by_bit = self._bit_below
        for i, a in enumerate(indices):
            da = downs[a]
            for b in indices[i + 1 :]:
                common = da & downs[b]
                if common != da and common != downs[b] and by_bit[common.bit_length() - 1] != common:
                    return a, b
        return None

    def validate(self) -> "SortLattice":
        """Check that every sort pair has a unique GLB; raises NotALattice.

        Only pairs of sorts with two or more declared subsorts are tested, and
        of those only sorts above a sort other than bot with two or more
        declared supersorts; an invalid hierarchy is rescanned in full to
        report its first failing pair.
        """
        if not self._validated:
            g = self.graph
            # A maximal common lower bound m of a failing pair is not bot and has
            # two declared supersorts: with one, that supersort would lie below
            # both sorts and above m.
            downs = self._down
            bot = g._index[BOT]
            joins = 0
            for u, ups in enumerate(g._succ):
                if len(ups) >= 2 and u != bot:
                    joins |= 1 << downs[u].bit_length() - 1
            branching = [u for u, preds in enumerate(g._pred) if len(preds) >= 2 and downs[u] & joins]
            if self._first_failure(branching) is not None:
                a, b = self._first_failure(range(len(g.sorts)))
                self.glb(g.sorts[a], g.sorts[b])  # raises NotALattice for that pair
            self._validated = True
        return self


# -- similarity enrichment -------------------------------------------------


def build_similarity(pairs: list[tuple[str, str, float]]) -> dict[tuple[str, str], float]:
    """Symmetric similarity table from (a, b, degree) entries.

    Degrees must lie in [0, 1]; sim(a, a), if given, must be 1; conflicting
    degrees for the same unordered pair are an error.
    """
    table: dict[tuple[str, str], float] = {}
    for a, b, d in pairs:
        _add_similarity(table, a, b, d)
    return table


def _add_similarity(table: dict[tuple[str, str], float], a: str, b: str, d: float) -> None:
    if isinstance(d, bool) or not (isinstance(d, (int, float)) and 0.0 <= d <= 1.0):
        raise DegreeOutOfRange(f"similarity degree must lie in [0, 1]: {a} ~ {b} @ {d!r}")
    if a == b and d != 1.0:
        raise DegreeOutOfRange(f"self-similarity must be 1: {a} ~ {a} @ {d!r}")
    for key in ((a, b), (b, a)):
        if key in table and table[key] != float(d):
            raise OntologyError(
                f"conflicting similarity degrees for ({key[0]}, {key[1]}): "
                f"{table[key]:g} vs {d:g}"
            )
        table[key] = float(d)


@dataclass(frozen=True)
class DroppedEdge:
    """A derived edge that was rejected, with the reason why."""

    sub: str
    sup: str
    degree: float
    reason: str  # "self" or "cycle"


def enrich_from_similarity(
    graph: SortGraph, sim: dict[tuple[str, str], float]
) -> tuple[SortGraph, list[DroppedEdge]]:
    """Weave a similarity relation into a crisp hierarchy as graded edges.

    For every crisp ``s below u`` (reflexive-transitive over the declared
    edges) and every ``sim(u, s2) = b > 0`` this derives a candidate edge
    ``(s, s2, b)``.  Candidates are max-combined per pair, then added in
    sorted name order; self-edges and edges that would close a cycle against
    the working graph are dropped and reported.
    """
    for _, _, d in graph.edges:
        if d != 1.0:
            raise ValueError("similarity enrichment requires a crisp hierarchy (all edge degrees 1)")
    for a, b in sim:
        if not graph.has_sort(a) or not graph.has_sort(b):
            raise UnknownSort(a if not graph.has_sort(a) else b)

    idx = graph._index
    n = len(graph.sorts)

    # Crisp down-sets over declared edges only (reflexive; no implicit bounds).
    down = [1 << i for i in range(n)]
    for u in graph._topo:
        for v, _ in graph._pred[u]:
            down[u] |= down[v]

    candidates: dict[tuple[int, int], float] = {}
    for (u, s2), beta in sim.items():
        if beta <= 0.0:
            continue
        j = idx[s2]
        below = down[idx[u]]
        while below:
            i = below.bit_length() - 1
            below ^= 1 << i
            if candidates.get((i, j), 0.0) < beta:
                candidates[(i, j)] = beta

    succ: list[set[int]] = [set(v for v, _ in graph._succ[i]) for i in range(n)]

    def reaches(a: int, b: int) -> bool:
        seen = {a}
        stack = [a]
        while stack:
            u = stack.pop()
            for v in succ[u]:
                if v == b:
                    return True
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return False

    accepted: list[tuple[str, str, float]] = []
    dropped: list[DroppedEdge] = []
    ordered = sorted(candidates.items(), key=lambda kv: (graph.sorts[kv[0][0]], graph.sorts[kv[0][1]]))
    for (i, j), beta in ordered:
        sub, sup = graph.sorts[i], graph.sorts[j]
        if i == j:
            dropped.append(DroppedEdge(sub, sup, beta, "self"))
            continue
        if sup == BOT or sub == TOP or reaches(j, i):
            dropped.append(DroppedEdge(sub, sup, beta, "cycle"))
            continue
        accepted.append((sub, sup, beta))
        succ[i].add(j)

    # SortGraph keeps a repeated edge's larger degree at its first place.
    enriched = SortGraph(
        [s for s in graph.sorts if s not in (BOT, TOP)],
        list(graph.features),
        graph.edges + accepted,
    )
    return enriched, dropped


# -- ontology text format ---------------------------------------------------


def load_ontology(text: str) -> tuple[SortGraph, dict[tuple[str, str], float]]:
    """Parse the line-oriented ontology format.

    Lines: ``sort <name>...``, ``feature <name>...``,
    ``edge <sub> <sup> <degree>``, ``sim <a> <b> <degree>``; ``#`` starts a
    comment; blank lines are ignored.  Sorts referenced by edges or sims are
    declared implicitly.  Every error names the line of the offending item;
    for a cycle, that is the line of its first declared edge.
    """
    sorts: dict[str, None] = {BOT: None, TOP: None}
    features: dict[str, None] = {}
    edge_line: dict[tuple[str, str], int] = {}
    edges: list[tuple[str, str, float]] = []
    sim: dict[tuple[str, str], float] = {}

    def fail(lineno: int, msg: str, kind: type[OntologyError] = OntologyError) -> None:
        raise kind(f"line {lineno}: {msg}")

    def add_sort(lineno: int, name: str) -> None:
        if not _SORT_RE.match(name):
            fail(lineno, f"bad sort name: {name!r}")
        if name in features:
            fail(lineno, f"name used as both sort and feature: {name}", DuplicateName)
        sorts[name] = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "sort":
            if len(parts) < 2:
                fail(lineno, "expected: sort <name>...")
            for name in parts[1:]:
                if name in (BOT, TOP):
                    fail(lineno, f"{name} is implicit and cannot be declared")
                add_sort(lineno, name)
        elif kind == "feature":
            if len(parts) < 2:
                fail(lineno, "expected: feature <name>...")
            for name in parts[1:]:
                if not _FEATURE_RE.match(name):
                    fail(lineno, f"bad feature name: {name!r}")
                if name in sorts:
                    fail(lineno, f"name used as both sort and feature: {name}", DuplicateName)
                features[name] = None
        elif kind == "edge":
            if len(parts) != 4:
                fail(lineno, "expected: edge <sub> <sup> <degree>")
            try:
                d = float(parts[3])
            except ValueError:
                fail(lineno, f"bad degree: {parts[3]!r}")
            if not 0.0 < d <= 1.0:
                fail(lineno, f"edge degree must lie in (0, 1]: {parts[3]}")
            add_sort(lineno, parts[1])
            add_sort(lineno, parts[2])
            edge_line.setdefault((parts[1], parts[2]), lineno)
            edges.append((parts[1], parts[2], d))
        elif kind == "sim":
            if len(parts) != 4:
                fail(lineno, "expected: sim <a> <b> <degree>")
            try:
                d = float(parts[3])
            except ValueError:
                fail(lineno, f"bad degree: {parts[3]!r}")
            if not 0.0 <= d <= 1.0:
                fail(lineno, f"sim degree must lie in [0, 1]: {parts[3]}")
            add_sort(lineno, parts[1])
            add_sort(lineno, parts[2])
            try:
                _add_similarity(sim, parts[1], parts[2], d)
            except OntologyError as err:
                err.args = (f"line {lineno}: {err}",)
                raise
        else:
            fail(lineno, f"unknown directive: {kind!r}")

    try:
        graph = SortGraph(
            [s for s in sorts if s not in (BOT, TOP)], list(features), edges
        )
    except CycleDetected as err:
        steps = zip(err.cycle, err.cycle[1:])
        first = next(edge_line[step] for step in steps if step in edge_line)
        err.args = (f"line {first}: {err}",)
        raise
    return graph, sim


def format_ontology(
    graph: SortGraph, sim: dict[tuple[str, str], float] | None = None
) -> str:
    """Render a hierarchy back into the line-oriented ontology format."""
    lines = []
    for s in graph.sorts:
        if s not in (BOT, TOP):
            lines.append(f"sort {s}")
    for f in graph.features:
        lines.append(f"feature {f}")
    for sub, sup, d in graph.edges:
        lines.append(f"edge {sub} {sup} {d:g}")
    if sim:
        for (a, b), d in sorted(sim.items()):
            if a <= b:
                lines.append(f"sim {a} {b} {d:g}")
    return "\n".join(lines) + "\n"

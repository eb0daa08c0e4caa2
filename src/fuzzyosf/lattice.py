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
from collections.abc import Iterable, Iterator
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


class _Names(dict):
    """Names of one kind, each mapped to itself so that parsed terms share the
    signature's strings; another name raises ``unknown`` or, if None, is kept."""

    def __init__(self, unknown: type[OntologyError] | None = None, names: Iterable[str] = ()):
        super().__init__(zip(names, names))
        self.unknown = unknown

    def __missing__(self, name: str) -> str:
        if self.unknown is None:
            return name
        raise self.unknown(name)


def _bits(x: int) -> Iterator[int]:
    """The set bits of a bitset, highest first."""
    while x:
        bit = x.bit_length() - 1
        yield bit
        x ^= 1 << bit


class SortGraph:
    """The declared fragment of a sort hierarchy: names plus weighted edges.

    Construction runs the linear structural checks (name syntax and
    uniqueness, degree ranges, acyclicity including the implicit bot/top
    bounds).  The unique-GLB property is checked separately by
    :meth:`SortLattice.validate`, because it is quadratic in the sorts above
    two join sorts.
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
        index: dict[str, int] = {}
        for name in declared:
            if not isinstance(name, str) or not _SORT_RE.match(name):
                raise OntologyError(f"bad sort name: {name!r}")
            if name in index:
                raise DuplicateName(f"sort declared twice: {name}")
            index[name] = len(index)
        feats: set[str] = set()
        for name in features:
            if not isinstance(name, str) or not _FEATURE_RE.match(name):
                raise OntologyError(f"bad feature name: {name!r}")
            if name in feats:
                raise DuplicateName(f"feature declared twice: {name}")
            if name in index:
                raise DuplicateName(f"name used as both sort and feature: {name}")
            feats.add(name)
        checked: list[tuple[str, str, float]] = []
        for sub, sup, degree in edges:
            if sub not in index:
                raise UnknownSort(sub)
            if sup not in index:
                raise UnknownSort(sup)
            if isinstance(degree, bool) or not (isinstance(degree, (int, float)) and 0.0 < degree <= 1.0):
                raise DegreeOutOfRange(f"edge degree must lie in (0, 1]: {sub} -> {sup} @ {degree!r}")
            checked.append((sub, sup, float(degree)))
            if sub == sup or sup == BOT or sub == TOP:
                break  # _build raises this edge's cycle before any later error
        self._build(index, list(features), checked)

    def _build(
        self, index: dict[str, int], features: list[str], edges: list[tuple[str, str, float]]
    ) -> None:
        """Build the tables from checked names, numbered with bot and top last,
        and checked edges; a repeated edge keeps its largest degree at its first place."""
        self._index = index
        self.sorts: list[str] = list(index)
        self.features: list[str] = features
        self._sort_names = _Names(UnknownSort, index)
        self._feature_names = _Names(UnknownFeature, features)
        bot, top = index[BOT], index[TOP]
        combined: dict[tuple[int, int], float] = {}
        for sub, sup, degree in edges:
            key = i, j = index[sub], index[sup]
            if i == j:
                raise CycleDetected([sub, sup])
            if j == bot:
                # sub <= bot plus the implicit bot <= sub would force sub = bot.
                raise CycleDetected([BOT, sub, BOT])
            if i == top:
                raise CycleDetected([TOP, sup, TOP])
            if combined.get(key, 0.0) < degree:
                combined[key] = degree

        sorts = self.sorts
        self.edges = [(sorts[i], sorts[j], d) for (i, j), d in combined.items()]
        self._succ: list[list[tuple[int, float]]] = [[] for _ in sorts]
        indeg = [0] * len(sorts)
        for (i, j), d in combined.items():
            self._succ[i].append((j, d))
            indeg[j] += 1
        self._topo: list[int] = self._toposort(indeg)

    def _toposort(self, indeg: list[int]) -> list[int]:
        n = len(self.sorts)
        order = [i for i in range(n) if indeg[i] == 0]
        for u in order:  # grows as it goes
            for v, _ in self._succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    order.append(v)
        if len(order) < n:
            # Walk along successors that are left; a sort with none reaches no
            # cycle, so drop it and step back.
            leftover = {i for i in range(n) if indeg[i] > 0}
            trail, node = [], min(leftover)
            on_trail: set[int] = set()
            while node not in on_trail:
                step = next((v for v, _ in self._succ[node] if v in leftover), None)
                if step is None:
                    leftover.discard(node)
                    node = trail.pop() if trail else min(leftover)
                    on_trail.discard(node)
                else:
                    on_trail.add(node)
                    trail.append(node)
                    node = step
            cycle = trail[trail.index(node) :] + [node]
            raise CycleDetected([self.sorts[i] for i in cycle])
        return order

    def to_dot(self) -> str:
        lines = ["digraph sorts {", "  rankdir=BT;"]
        for name in self.sorts:
            lines.append(f'  "{name}";')
        for sub, sup, d in self.edges:
            lines.append(f'  "{sub}" -> "{sup}" [label="{_fmt(d)}"];')
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
    down-set.  ``validate()`` reads only the pairs of sorts above two join
    sorts, once.
    :meth:`glb` and :meth:`degree` are the only query bodies, and the solver
    calls them too: their index lookups are their name checks, so a subclass
    that wraps the two methods sees every query.
    """

    def __init__(self, graph: SortGraph):
        self.graph = graph
        self._rows: dict[int, dict[int, float]] = {}
        # Pin bot and top to the ends: graph._topo may put leaves before bot.
        bot, top = graph._index[BOT], graph._index[TOP]
        order = [bot] + [u for u in graph._topo if u != bot and u != top] + [top]
        # Each down-set starts at its full width: an int that grew by pushes
        # would leave a heap hole too small for the wider ints after it.
        down = [0] * len(order)
        for bit, u in enumerate(order):
            down[u] = 1 << bit | 1
        for u in order:
            for v, _ in graph._succ[u]:
                down[v] |= down[u]
        down[top] = (1 << len(order)) - 1
        # As ints, down-sets grow strictly along every edge: a linear extension.
        self._down: list[int] = down
        self._order: list[int] = order  # the sort number at each bit
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
        """Graded subsumption s below t: max over paths of min edge degree;
        raises UnknownSort for the first name outside the signature."""
        idx = self.graph._index
        try:
            i, j = idx[s], idx[t]
        except KeyError:
            raise UnknownSort(s if s not in idx else t) from None
        if s == t or s == BOT or t == TOP:
            return 1.0
        if s == TOP or t == BOT:
            return 0.0
        row = self._rows.get(i) or self._row(i)
        return row.get(j, 0.0)

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
        down, order = self._down, self._order
        out, covered = [], 0
        for bit in _bits(common):
            if not covered >> bit & 1:
                u = order[bit]
                out.append(self.graph.sorts[u])
                covered |= down[u]
        return sorted(out)

    def glb(self, s: str, t: str) -> str:
        """Greatest lower bound on the crisp support; raises UnknownSort for the
        first name outside the signature and NotALattice where there is none."""
        idx, down = self.graph._index, self._down
        try:
            common = down[idx[s]] & down[idx[t]]
        except KeyError:
            raise UnknownSort(s if s not in idx else t) from None
        high = self._order[common.bit_length() - 1]
        if down[high] != common:
            raise NotALattice(s, t, self._maximal(common))
        return self.graph.sorts[high]

    def _meet(self, sorts: Iterable[str]) -> str:
        """The highest sort in the AND of the down-sets of ``sorts`` (one or
        more): on a validated lattice, their meet."""
        index, down = self.graph._index, self._down
        common = -1
        for s in sorts:
            common &= down[index[s]]
        return self.graph.sorts[self._order[common.bit_length() - 1]]

    def _certified(self, positive: dict[str, float]) -> bool:
        """Whether two linear checks prove a model's element free of gaps;
        only a validated lattice certifies.

        ``positive`` maps the element's positive sorts (top included) to their
        degrees.  Edge check: each declared edge ``u -> v`` at degree w out of
        a positive sort has ``d(v) >= min(d(u), w)``.  By induction along a
        best path, this gives every closure pair's bound, so every sort above
        a positive sort is positive.  Meet check: the meet of all the positive
        sorts is positive.  It lies below the meet of any two of them, which
        is therefore positive too.  Conversely, a valid element has a least
        positive sort (two minimal ones would meet at a positive sort below
        both), so only an element with a gap fails here.
        """
        g = self.graph
        for s, ds in positive.items():
            for v, w in g._succ[g._index[s]]:
                if positive.get(g.sorts[v], 0.0) < (ds if ds < w else w):
                    return False
        return self._validated and self._meet(positive) in positive

    def validate(self) -> "SortLattice":
        """Check that every sort pair has a unique GLB; raises NotALattice.

        Both sorts of a failing pair lie above two join sorts, so one scan of
        the pairs of those sorts, in declaration order, meets the first
        failing pair.
        """
        if not self._validated:
            g = self.graph
            # A maximal common lower bound m of a failing pair is a join sort:
            # not bot, with two declared supersorts; with one, that supersort
            # would lie below both sorts and above m.
            down, order = self._down, self._order
            bot = g._index[BOT]
            joins = 0
            for u, ups in enumerate(g._succ):
                if len(ups) >= 2 and u != bot:
                    joins |= 1 << down[u].bit_length() - 1
            above = [u for u, du in enumerate(down) if (x := du & joins) & (x - 1)]
            for i, a in enumerate(above):
                da = down[a]
                for b in above[i + 1 :]:
                    common = da & down[b]
                    if common != da and common != down[b] and down[order[common.bit_length() - 1]] != common:
                        raise NotALattice(g.sorts[a], g.sorts[b], self._maximal(common))
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
                f"{_fmt(table[key])} vs {_fmt(d)}"
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
    idx = graph._index
    for a, b in sim:
        if a not in idx or b not in idx:
            raise UnknownSort(a if a not in idx else b)

    # Reachability in the working graph, reflexive, without implicit bounds:
    # down[u] holds the sorts that reach u and up[u] those u reaches.
    down = [1 << i for i in range(len(graph.sorts))]
    up = list(down)
    for u in graph._topo:
        for v, _ in graph._succ[u]:
            down[v] |= down[u]
    for u in reversed(graph._topo):
        for v, _ in graph._succ[u]:
            up[u] |= up[v]

    candidates: dict[tuple[int, int], float] = {}
    for (u, s2), beta in sim.items():
        if beta <= 0.0:
            continue
        j = idx[s2]
        for i in _bits(down[idx[u]]):
            if candidates.get((i, j), 0.0) < beta:
                candidates[(i, j)] = beta

    accepted: list[tuple[str, str, float]] = []
    dropped: list[DroppedEdge] = []
    ordered = sorted(candidates.items(), key=lambda kv: (graph.sorts[kv[0][0]], graph.sorts[kv[0][1]]))
    for (i, j), beta in ordered:
        sub, sup = graph.sorts[i], graph.sorts[j]
        if i == j:
            dropped.append(DroppedEdge(sub, sup, beta, "self"))
            continue
        if sup == BOT or sub == TOP or up[j] >> i & 1:
            dropped.append(DroppedEdge(sub, sup, beta, "cycle"))
            continue
        accepted.append((sub, sup, beta))
        # Update only the sorts whose reachability changes (Italiano, TCS 1986).
        sources, targets = down[i] & ~down[j], up[j] & ~up[i]
        for k in _bits(sources):
            up[k] |= up[j]
        for k in _bits(targets):
            down[k] |= down[i]

    # SortGraph keeps a repeated edge's larger degree at its first place.
    enriched = SortGraph(
        [s for s in graph.sorts if s not in (BOT, TOP)],
        list(graph.features),
        graph.edges + accepted,
    )
    return enriched, dropped


# -- ontology text format ---------------------------------------------------


def _read_degree(field: str) -> float:
    """A degree field in ASCII float syntax without ``_``; ValueError otherwise."""
    if field.isascii() and "_" not in field:
        return float(field)
    raise ValueError(field)


def _fmt(degree: float) -> str:
    """A degree as ``%g`` where that reads back as the same float, else its repr."""
    text = f"{degree:g}"
    return text if float(text) == degree else repr(degree)


def load_ontology(text: str) -> tuple[SortGraph, dict[tuple[str, str], float]]:
    """Parse the line-oriented ontology format.

    Lines: ``sort <name>...``, ``feature <name>...``,
    ``edge <sub> <sup> <degree>``, ``sim <a> <b> <degree>``; ``#`` starts a
    comment; blank lines are ignored.  Sorts referenced by edges or sims are
    declared implicitly.  Every error names the line of the offending item;
    for a cycle, that is the line of its first declared edge.  Each line is
    checked once, and the checked names and edges go to the graph's builder.
    """
    # Sorts numbered at their first mention; bot and top move last at the end.
    index: dict[str, int] = {BOT: -1, TOP: -1}
    features: dict[str, None] = {}
    edges: list[tuple[str, str, float]] = []
    sim: dict[tuple[str, str], float] = {}
    degrees: dict[str, float] = {}  # each degree field read once

    def fail(lineno: int, msg: str, kind: type[OntologyError] = OntologyError) -> None:
        raise kind(f"line {lineno}: {msg}")

    def new_sort(lineno: int, name: str) -> None:
        if not _SORT_RE.match(name):
            fail(lineno, f"bad sort name: {name!r}")
        if name in features:
            fail(lineno, f"name used as both sort and feature: {name}", DuplicateName)
        index[name] = len(index) - 2

    def read(lineno: int, field: str) -> float:
        try:
            d = degrees[field] = _read_degree(field)
        except ValueError:
            fail(lineno, f"bad degree: {field!r}")
        return d

    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "edge":
            if len(parts) != 4:
                fail(lineno, "expected: edge <sub> <sup> <degree>")
            _, sub, sup, field = parts
            d = degrees[field] if field in degrees else read(lineno, field)
            if not 0.0 < d <= 1.0:
                fail(lineno, f"edge degree must lie in (0, 1]: {field}")
            if sub not in index:
                new_sort(lineno, sub)
            if sup not in index:
                new_sort(lineno, sup)
            edges.append((sub, sup, d))
        elif kind == "sort":
            if len(parts) < 2:
                fail(lineno, "expected: sort <name>...")
            for name in parts[1:]:
                if name not in index:
                    new_sort(lineno, name)
                elif name in (BOT, TOP):
                    fail(lineno, f"{name} is implicit and cannot be declared")
        elif kind == "feature":
            if len(parts) < 2:
                fail(lineno, "expected: feature <name>...")
            for name in parts[1:]:
                if not _FEATURE_RE.match(name):
                    fail(lineno, f"bad feature name: {name!r}")
                if name in index:
                    fail(lineno, f"name used as both sort and feature: {name}", DuplicateName)
                features[name] = None
        elif kind == "sim":
            if len(parts) != 4:
                fail(lineno, "expected: sim <a> <b> <degree>")
            _, a, b, field = parts
            d = degrees[field] if field in degrees else read(lineno, field)
            if not 0.0 <= d <= 1.0:
                fail(lineno, f"sim degree must lie in [0, 1]: {field}")
            if a not in index:
                new_sort(lineno, a)
            if b not in index:
                new_sort(lineno, b)
            try:
                _add_similarity(sim, a, b, d)
            except OntologyError as err:
                err.args = (f"line {lineno}: {err}",)
                raise
        else:
            fail(lineno, f"unknown directive: {kind!r}")

    del index[BOT], index[TOP]
    index.update({BOT: len(index), TOP: len(index) + 1})
    graph = SortGraph.__new__(SortGraph)
    try:
        graph._build(index, list(features), edges)
    except CycleDetected as err:
        # Read the lines again for the first one that declares a step.
        first = {tuple(line.split("#", 1)[0].split()[:3]): n for n, line in reversed(list(enumerate(lines, 1)))}
        steps = (("edge", sub, sup) for sub, sup in zip(err.cycle, err.cycle[1:]))
        err.args = (f"line {next(first[step] for step in steps if step in first)}: {err}",)
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
        lines.append(f"edge {sub} {sup} {_fmt(d)}")
    if sim:
        for (a, b), d in sorted(sim.items()):
            if a <= b:
                lines.append(f"sim {a} {b} {_fmt(d)}")
    return "\n".join(lines) + "\n"

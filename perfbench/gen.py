"""Seeded input generators for the benchmark, with their own expectations.

Everything here is independent of ``fuzzyosf``: the generators keep their own
model of each hierarchy, term, clause and interpretation they write as text,
and compute the answers the program must give (GLBs, closure degrees,
unification classes and degrees, subsumption witnesses, denotations) from
that model.  The same ``random.Random`` seed always yields byte-identical
texts.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field

BOT = "bot"
TOP = "top"
EDGE_DEGREES = (1.0, 1.0, 1.0, 0.9, 0.8, 0.75, 0.6, 0.5, 0.3)
MEMBER_DEGREES = (1.0, 1.0, 0.9, 0.7, 0.5)


# -- sort hierarchies ----------------------------------------------------------


class Hierarchy:
    """A weighted sort DAG whose indices are a topological order (parents first).

    ``down[i]`` is the crisp down-set of sort ``i`` as an int bitset; it backs
    the generator's own GLB.  ``up(i)`` is sort ``i``'s max-min closure row,
    restricted to its ancestors.
    """

    def __init__(self, names: list[str], features: list[str], parents: list[list[tuple[int, float]]]):
        self.names = names
        self.features = features
        self.parents = parents
        self.index = {name: i for i, name in enumerate(names)}
        self.children: list[list[int]] = [[] for _ in names]
        for i, ps in enumerate(parents):
            for p, _ in ps:
                assert p < i, "parents must precede their children"
                self.children[p].append(i)
        self.down = [0] * len(names)
        for i in range(len(names) - 1, -1, -1):
            bits = 1 << i
            for c in self.children[i]:
                bits |= self.down[c]
            self.down[i] = bits
        self._up: dict[int, dict[int, float]] = {}

    def text(self) -> str:
        lines = ["# generated sort hierarchy"]
        for k in range(0, len(self.names), 16):
            lines.append("sort " + " ".join(self.names[k : k + 16]))
        lines.append("feature " + " ".join(self.features))
        for i, ps in enumerate(self.parents):
            for p, d in ps:
                lines.append(f"edge {self.names[i]} {self.names[p]} {d!r}")
        return "\n".join(lines) + "\n"

    def up(self, i: int) -> dict[int, float]:
        row = self._up.get(i)
        if row is None:
            row = {i: 1.0}
            heap = [-i]
            while heap:
                u = -heapq.heappop(heap)
                du = row[u]
                for p, w in self.parents[u]:
                    d = du if du < w else w
                    if p not in row:
                        row[p] = d
                        heapq.heappush(heap, -p)
                    elif d > row[p]:
                        row[p] = d
            self._up[i] = row
        return row

    def degree(self, s: str, t: str) -> float:
        """Graded subsumption of sort ``s`` below ``t``, bounds included."""
        if s == t or s == BOT or t == TOP:
            return 1.0
        if s == TOP or t == BOT:
            return 0.0
        return self.up(self.index[s]).get(self.index[t], 0.0)

    def glb(self, i: int, j: int) -> int | None:
        """Index of the GLB of two sorts, or None when it is ``bot``."""
        common = self.down[i] & self.down[j]
        if not common:
            return None
        top = (common & -common).bit_length() - 1
        if self.down[top] != common:
            raise AssertionError(f"generated hierarchy has no unique glb for {i}, {j}")
        return top

    def depth(self, i: int) -> int:
        d = 0
        while self.parents[i]:
            i = self.parents[i][0][0]
            d += 1
        return d

    def walk(self, rng: random.Random, i: int, steps: int, upward: bool) -> int:
        for _ in range(steps):
            nxt = [p for p, _ in self.parents[i]] if upward else self.children[i]
            if not nxt:
                break
            i = rng.choice(nxt)
        return i

    def disjoint_from(self, rng: random.Random, i: int) -> int:
        """A random sort whose GLB with ``i`` is ``bot``."""
        while True:
            j = rng.randrange(len(self.names))
            if not self.down[i] & self.down[j]:
                return j


def make_hierarchy(
    rng: random.Random, n_sorts: int, n_features: int, roots: int = 3, second_share: float = 0.2
) -> Hierarchy:
    """A random weighted tree where a share of sorts also get a second parent.

    Sort ``i`` hangs below a uniformly drawn earlier sort.  A second parent is
    a sibling of the tree parent; both must lie in the pure tree part (no
    sort above them has two parents), and each unordered sibling pair
    receives at most one shared child.  Then the only incomparable pairs with
    a common lower bound are such sibling pairs, and their GLB is the shared
    child, so every GLB is unique.
    """
    parents: list[list[tuple[int, float]]] = []
    tree_parent: list[int] = []
    pure: list[bool] = []
    kids: dict[int, list[int]] = {-1: []}
    used_pairs: set[frozenset[int]] = set()
    for i in range(n_sorts):
        p1 = -1 if i < roots else rng.randrange(i)
        tree_parent.append(p1)
        kids.setdefault(p1, []).append(i)
        kids[i] = []
        ps = [] if p1 < 0 else [(p1, rng.choice(EDGE_DEGREES))]
        if p1 >= 0 and pure[p1] and rng.random() < second_share:
            siblings = [
                c for c in kids[tree_parent[p1]]
                if c != p1 and pure[c] and frozenset((p1, c)) not in used_pairs
            ]
            if siblings:
                p2 = rng.choice(siblings)
                used_pairs.add(frozenset((p1, p2)))
                ps.append((p2, rng.choice(EDGE_DEGREES)))
        pure.append(len(ps) < 2 and (p1 < 0 or pure[p1]))
        parents.append(ps)
    names = [f"s{i}" for i in range(n_sorts)]
    features = [f"f{k}" for k in range(n_features)]
    return Hierarchy(names, features, parents)


def deep_hierarchy() -> Hierarchy:
    """The few sorts of ``deep_terms``: ``ab`` below ``a`` (0.5) and ``b``; ``c`` apart."""
    names = ["s", "a", "b", "c", "ab"]
    parents = [[], [], [], [], [(1, 0.5), (2, 1.0)]]
    return Hierarchy(names, ["f", "g"], parents)


# -- term shapes -------------------------------------------------------------------


@dataclass
class Shape:
    """A rooted term as the generator sees it: node sorts and functional edges.

    Node 0 is the root; ``edges[n]`` maps feature index to target node in the
    order the text lists them.
    """

    sorts: list[int]
    edges: list[dict[int, int]] = field(default_factory=list)

    def reachable(self) -> list[int]:
        seen = {0}
        order = [0]
        for n in order:
            for m in self.edges[n].values():
                if m not in seen:
                    seen.add(m)
                    order.append(m)
        return order

    def text(self, prefix: str, h: Hierarchy) -> str:
        """Explicitly tagged term text; each node is structured at first encounter."""
        out: list[str] = []
        expanded: set[int] = set()
        stack: list[object] = [0]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            tag = f"{prefix}{item}"
            if item in expanded:
                out.append(tag)
                continue
            expanded.add(item)
            out.append(f"{tag}: {h.names[self.sorts[item]]}")
            args = list(self.edges[item].items())
            if args:
                stack.append(")")
                for k in range(len(args) - 1, -1, -1):
                    f, target = args[k]
                    stack.append(target)
                    stack.append((", " if k else "") + f"{h.features[f]} -> ")
                stack.append("(")
        return "".join(out)


def random_shape(rng: random.Random, h: Hierarchy, n_nodes: int, pool: list[int], extra: float = 0.2) -> Shape:
    """A spanning tree over ``n_nodes`` plus ``extra`` * n back or cross edges."""
    shape = Shape([rng.choice(pool) for _ in range(n_nodes)], [{} for _ in range(n_nodes)])
    n_feat = len(h.features)
    for n in range(1, n_nodes):
        while True:
            p = rng.randrange(n)
            free = [f for f in range(n_feat) if f not in shape.edges[p]]
            if free:
                shape.edges[p][rng.choice(free)] = n
                break
    for _ in range(int(extra * n_nodes)):
        u = rng.randrange(n_nodes)
        free = [f for f in range(n_feat) if f not in shape.edges[u]]
        if free:
            shape.edges[u][rng.choice(free)] = rng.randrange(n_nodes)
    return shape


def chain(n: int, sort: int) -> Shape:
    """``n`` tags, each the first feature's value of the one before."""
    return Shape([sort] * n, [{0: i + 1} for i in range(n - 1)] + [{}])


def ring(n: int, sort: int) -> Shape:
    """A chain of ``n`` tags whose last tag points back to the first."""
    return Shape([sort] * n, [{0: (i + 1) % n} for i in range(n)])


# -- unification pairs -----------------------------------------------------------------


@dataclass
class UnifyCase:
    left: str
    right: str
    bottom: bool
    beta1: float
    beta2: float
    classes: int


def derive_pair(rng: random.Random, h: Hierarchy, t1: Shape, sideways: float) -> Shape:
    """A second term from ``t1``: same edges (a few dropped), sorts moved along
    the hierarchy, a few fresh leaves; with probability ``sideways`` one node
    takes a random sort, which usually makes the pair clash."""
    n1 = len(t1.sorts)
    sorts = []
    for s in t1.sorts:
        r = rng.random()
        if r < 0.35:
            s = h.walk(rng, s, rng.randint(1, 3), upward=True)
        elif r < 0.65:
            s = h.walk(rng, s, rng.randint(1, 3), upward=False)
        sorts.append(s)
    edges = [{f: m for f, m in es.items() if rng.random() > 0.1} for es in t1.edges]
    t2 = Shape(sorts, edges)
    if rng.random() < sideways:
        t2.sorts[rng.choice(t2.reachable())] = rng.randrange(len(h.names))
    for n in rng.sample(range(n1), k=max(1, n1 // 8)):
        free = [f for f in range(len(h.features)) if f not in t1.edges[n] and f not in t2.edges[n]]
        if free:
            t2.edges[n][rng.choice(free)] = len(t2.sorts)
            t2.sorts.append(rng.randrange(len(h.names)))
            t2.edges.append({})
    return t2


def expect_unify(h: Hierarchy, t1: Shape, t2: Shape) -> tuple[bool, float, float, int]:
    """(bottom, beta1, beta2, classes) for a pair built by :func:`derive_pair`.

    Node ``i`` of ``t2`` merges with node ``i`` of ``t1`` when both exist,
    because their edges agree; ``t2``'s fresh leaves stay singletons.
    """
    present = set(t2.reachable())
    n1 = len(t1.sorts)
    cls = list(t1.sorts)
    for i in present:
        if i < n1:
            g = h.glb(t1.sorts[i], t2.sorts[i])
            if g is None:
                return True, 1.0, 1.0, 0
            cls[i] = g
    names = h.names
    beta1 = min(h.degree(names[cls[i]], names[t1.sorts[i]]) for i in range(n1))
    beta2 = min(
        h.degree(names[cls[i] if i < n1 else t2.sorts[i]], names[t2.sorts[i]]) for i in present
    )
    return False, beta1, beta2, n1 + sum(1 for i in present if i >= n1)


def unify_case(rng: random.Random, h: Hierarchy, lo: int, hi: int, sideways: float) -> UnifyCase:
    pool = list(range(len(h.names)))
    t1 = random_shape(rng, h, rng.randint(lo, hi), pool)
    t2 = derive_pair(rng, h, t1, sideways)
    bottom, b1, b2, classes = expect_unify(h, t1, t2)
    return UnifyCase(t1.text("A", h), t2.text("B", h), bottom, b1, b2, classes)


# -- subsumption -----------------------------------------------------------------------


def expect_witness(h: Hierarchy, spec: Shape, general: Shape) -> float | None:
    """Degree of the witness mapping ``general`` into top-completed ``spec``.

    Missing edges of ``spec`` are completed with fresh top nodes; a node of
    ``general`` demanded at two different places admits no witness (None).
    """
    sorts0: dict[object, str] = {i: h.names[s] for i, s in enumerate(spec.sorts)}
    out0: dict[object, dict[int, object]] = {i: dict(es) for i, es in enumerate(spec.edges)}
    mapping: dict[int, object] = {0: 0}
    queue = [0]
    while queue:
        n1 = queue.pop()
        n0 = mapping[n1]
        for f, m1 in general.edges[n1].items():
            m0 = out0.setdefault(n0, {}).get(f)
            if m0 is None:
                m0 = ("fresh", len(sorts0))
                sorts0[m0] = TOP
                out0[n0][f] = m0
            known = mapping.get(m1)
            if known is None:
                mapping[m1] = m0
                queue.append(m1)
            elif known != m0:
                return None
    return min(h.degree(sorts0[mapping[n]], h.names[general.sorts[n]]) for n in mapping)


def specialise(rng: random.Random, h: Hierarchy, concept: Shape) -> Shape:
    """A specific term below ``concept``: sorts moved down, a few extra leaves,
    and sometimes a dropped edge (found, degree 0) or a split coreference
    (no witness)."""
    spec = Shape(
        [h.walk(rng, s, rng.randint(0, 3), upward=False) for s in concept.sorts],
        [dict(es) for es in concept.edges],
    )
    r = rng.random()
    linked = [(u, f) for u, es in enumerate(spec.edges) for f in es]
    if r < 0.15 and linked:
        u, f = rng.choice(linked)
        del spec.edges[u][f]
    elif r < 0.3:
        seen: set[int] = set()
        for u, f in linked:
            v = spec.edges[u][f]
            if v in seen and v != 0:
                spec.edges[u][f] = len(spec.sorts)
                spec.sorts.append(spec.sorts[v])
                spec.edges.append({})
                break
            seen.add(v)
    for n in range(len(concept.sorts)):
        free = [f for f in range(len(h.features)) if f not in spec.edges[n]]
        if free and rng.random() < 0.3:
            spec.edges[n][rng.choice(free)] = len(spec.sorts)
            spec.sorts.append(rng.randrange(len(h.names)))
            spec.edges.append({})
    return spec


def concept_pool(h: Hierarchy) -> list[int]:
    """Sorts near the top (depth at most 1), so concepts have many instances."""
    return [i for i in range(len(h.names)) if h.depth(i) <= 1]


# -- raw clauses ---------------------------------------------------------------------


@dataclass
class ClauseCase:
    text: str
    inconsistent: bool
    sorts: list[str]  # the expected class sorts, sorted, when consistent
    features: int  # the expected number of feature constraints, when consistent


def raw_clause(
    rng: random.Random, h: Hierarchy, base: Shape, inconsistent: bool, noise: float = 0.3
) -> ClauseCase:
    """The constraints of ``base`` plus redundant ones that normalize away:
    ancestor sorts on a node, alias tags joined by an equality or by a second
    value of a feature (sometimes with a copied edge that cascades), and,
    when ``inconsistent``, one sort disjoint from its node's sort."""
    names, feats = h.names, h.features
    n = len(base.sorts)
    atoms = [f"N{i}:{names[s]}" for i, s in enumerate(base.sorts)]
    into: dict[int, tuple[int, int]] = {}
    for u, es in enumerate(base.edges):
        for f, v in es.items():
            atoms.append(f"N{u}.{feats[f]} = N{v}")
            into.setdefault(v, (u, f))
    for i in range(n):
        if rng.random() < noise:
            atoms.append(f"N{i}:{names[h.walk(rng, base.sorts[i], rng.randint(1, 2), upward=True)]}")
        if rng.random() < noise:
            alias = f"M{i}"
            atoms.append(f"{alias}:{names[h.walk(rng, base.sorts[i], rng.randint(0, 2), upward=True)]}")
            if i in into and rng.random() < 0.5:
                u, f = into[i]
                atoms.append(f"N{u}.{feats[f]} = {alias}")
            else:
                atoms.append(f"{alias} = N{i}")
            if base.edges[i] and rng.random() < 0.5:
                f, v = rng.choice(sorted(base.edges[i].items()))
                atoms.append(f"{alias}.{feats[f]} = M{v}" if v != i else f"{alias}.{feats[f]} = {alias}")
                atoms.append(f"M{v} = N{v}")
    if inconsistent:
        i = rng.randrange(n)
        atoms.append(f"N{i}:{names[h.disjoint_from(rng, base.sorts[i])]}")
    rng.shuffle(atoms)
    n_edges = sum(len(es) for es in base.edges)
    return ClauseCase(" & ".join(atoms), inconsistent, sorted(names[s] for s in base.sorts), n_edges)


# -- interpretations ---------------------------------------------------------------


@dataclass
class Model:
    """A valid interpretation: each element is ``base`` to degree ``level``
    and belongs to every ancestor of its base to the min of that and the
    closure degree."""

    elements: list[str]
    base: list[int]
    level: list[float]
    image: list[list[int]]  # image[feature][element]

    def member(self, h: Hierarchy, sort: str, e: int) -> float:
        if sort == TOP:
            return 1.0
        d = h.up(self.base[e]).get(h.index[sort], 0.0) if sort != BOT else 0.0
        return min(d, self.level[e])

    def text(self, h: Hierarchy) -> str:
        lines = ["# generated interpretation"]
        for k in range(0, len(self.elements), 16):
            lines.append("elem " + " ".join(self.elements[k : k + 16]))
        for e, name in enumerate(self.elements):
            for s, d in sorted(h.up(self.base[e]).items()):
                lines.append(f"deg {h.names[s]} {name} {min(d, self.level[e])!r}")
        for f, row in enumerate(self.image):
            default = max(set(row), key=row.count)
            lines.append(f"fun {h.features[f]} * {self.elements[default]}")
            for e, img in enumerate(row):
                if img != default:
                    lines.append(f"fun {h.features[f]} {self.elements[e]} {self.elements[img]}")
        return "\n".join(lines) + "\n"


def make_model(rng: random.Random, h: Hierarchy, n_elements: int, plant: list[Shape]) -> Model:
    """Random memberships and feature images, with one instance of each shape
    in ``plant`` (while elements last) laid out on elements of its own."""
    elements = [f"e{k}" for k in range(n_elements)]
    base = [rng.randrange(len(h.names)) for _ in elements]
    level = [rng.choice(MEMBER_DEGREES) for _ in elements]
    image = [
        [rng.randrange(n_elements) if rng.random() < 0.7 else 0 for _ in elements]
        for _ in h.features
    ]
    free = list(range(n_elements))
    rng.shuffle(free)
    for shape in plant:
        if len(free) < len(shape.sorts):
            break
        at = {n: free.pop() for n in range(len(shape.sorts))}
        for n, e in at.items():
            base[e] = h.walk(rng, shape.sorts[n], rng.randint(0, 2), upward=False)
            for f, m in shape.edges[n].items():
                image[f][e] = at[m]
    return Model(elements, base, level, image)


def expect_denotation(h: Hierarchy, model: Model, concept: Shape, e: int) -> float:
    """Best degree of element ``e`` under ``concept``, by forcing tag values."""
    forced: dict[int, int] = {}
    value = 1.0
    stack = [(0, e)]
    while stack:
        n, d = stack.pop()
        prev = forced.get(n)
        if prev is not None:
            if prev != d:
                return 0.0
            continue
        forced[n] = d
        value = min(value, model.member(h, h.names[concept.sorts[n]], d))
        if value == 0.0:
            return 0.0
        for f, child in concept.edges[n].items():
            stack.append((child, model.image[f][d]))
    return value


def coprime_ring_sizes(rng: random.Random, near_n: int, near_m: int) -> tuple[int, int, int]:
    """Ring sizes n, m near the targets whose gcd is a drawn g (so gcd(n, m) = g)."""
    g = rng.randrange(100, 200)
    k1 = max(2, round(near_n / g))
    k2 = max(k1 + 1, round(near_m / g))
    while math.gcd(k1, k2) != 1:
        k2 += 1
    return g * k1, g * k2, g

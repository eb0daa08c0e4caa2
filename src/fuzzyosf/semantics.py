"""Finite graded models: interpretations, denotation, morphisms, and the
self-check harness.

An interpretation gives every sort a graded membership function over a
finite domain and every feature a total function on that domain.  Validity:

1. top holds of everything at 1 and bot of nothing;
2. membership respects graded subsumption — being s0 to degree d forces
   being s1 to at least ``min(d, degree(s0, s1))``;
3. jointly positive sorts have a positive GLB (memberships are consistent
   with the lattice's meets);
4. features are total.

Terms denote graded sets: the degree of ``d`` under an assignment is the
min of the coreference checks, the sort memberships, and the feature-image
chain.  Clause satisfaction thresholds the same data.  Structure-preserving
maps between models (graded morphisms) carry solutions from one model to
another; the harness checks all of these interlocking claims on both fixed
sample models and randomized ones.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType

from .lattice import BOT, TOP, NotALattice, OntologyError, SortGraph, SortLattice
from .lattice import _Slots, _fmt, _read_degree
from .terms import (
    Clause,
    EqualityConstraint,
    FeatureConstraint,
    OsfGraph,
    SortConstraint,
    Term,
    _not_a_constraint,
    _solved_structure,
    graph_to_term,
    parse_clause,
    parse_term,
    term_tags,
    term_to_clause,
    term_to_graph,
)
from .normalize import Inconsistent, normalize
from .subsumption import fuzzy_subsumption_degree


class Interpretation:
    """A finite graded model: elements, sort membership table, total features.

    ``sort_table`` holds explicit degrees per (sort, element); lookups
    default to 0, except top (always 1) and bot (always 0).  ``features``
    maps (feature, element) to an element and must be total over
    ``feature_names``.  Both tables are read-only views of copies taken at
    construction, when each element's positive sorts are indexed; build a
    new model to change them.
    """

    def __init__(
        self,
        elements: list[str],
        sort_table: dict[tuple[str, str], float],
        features: dict[tuple[str, str], str],
        feature_names: list[str],
    ):
        self.elements: list[str] = list(elements)
        self._sort_table = dict(sort_table)
        self._features = dict(features)
        self.sort_table = MappingProxyType(self._sort_table)
        self.features = MappingProxyType(self._features)
        self.feature_names: list[str] = list(feature_names)
        self._positive: dict[str, dict[str, float]] = {e: {TOP: 1.0} for e in self.elements}
        for (s, e), d in self._sort_table.items():
            if d > 0.0 and s != TOP and s != BOT and e in self._positive:
                self._positive[e][s] = d

    def sort_degree(self, sort: str, element) -> float:
        if sort == TOP:
            return 1.0
        if sort == BOT:
            return 0.0
        return self._sort_table.get((sort, element), 0.0)

    def positive_sorts(self, element) -> dict[str, float]:
        return self._positive[element]

    def feature_image(self, feature: str, element):
        return self._features[(feature, element)]

    def is_trivial(self, element) -> bool:
        return False


def validate_interpretation(model: Interpretation, lattice: SortLattice) -> list[str]:
    """All validity violations, exhaustively (empty list means valid).

    Each element is decided on its own: one that the lattice certifies
    (``SortLattice._certified``) has no gap, so only the others are scanned.
    """
    problems: list[str] = []
    if not model.elements:
        problems.append("domain is empty")
    domain = set(model.elements)
    index = lattice.graph._index
    for (s, e), d in model.sort_table.items():
        if s not in index:
            problems.append(f"unknown sort in table: {s}")
            continue
        if e not in domain:
            problems.append(f"degree given for unknown element: {e}")
            continue
        if not 0.0 <= d <= 1.0:
            problems.append(f"degree out of range: {s}({e}) = {d!r}")
        if s == TOP and d != 1.0:
            problems.append(f"top must hold of {e} at 1, not {_fmt(d)}")
        if s == BOT and d != 0.0:
            problems.append(f"bot must hold of {e} at 0, not {_fmt(d)}")

    for f in model.feature_names:
        for e in model.elements:
            img = model.features.get((f, e))
            if img is None:
                problems.append(f"feature {f} is undefined at {e}")
            elif img not in domain:
                problems.append(f"feature {f} maps {e} outside the domain: {img}")
    declared = set(model.feature_names)
    for (f, e) in model.features:
        if f not in declared:
            problems.append(f"feature value given for undeclared feature: {f}")
        elif e not in domain:
            problems.append(f"feature {f} defined at unknown element: {e}")

    if problems:
        return problems

    # Both conditions below bind only where a sort holds positively.  Every
    # table sort is known here, so the scans read each element's positive
    # sorts by sort number.  The scan keeps domain order; it covers every
    # element of an unvalidated lattice.
    failing = [
        (e, dict(sorted(model.positive_sorts(e).items(), key=lambda sd: index[sd[0]])))
        for e in model.elements
        if not lattice._certified(model.positive_sorts(e))
    ]

    # Graded-subsumption compatibility (condition on every sort pair).  All
    # degrees lie in [0, 1] here, so pairs with degree(s0, s1) = 0 hold.
    above: dict[str, list[tuple[str, float]]] = {}
    for e, positive in failing:
        for s0, d0 in positive.items():
            if s0 not in above:
                above[s0] = lattice._above(s0)
            for s1, d in above[s0]:
                bound = min(d0, d)
                if bound > positive.get(s1, 0.0):
                    problems.append(
                        f"membership gap: {s0}({e})={_fmt(d0)} and "
                        f"degree({s0},{s1})={_fmt(d)} force "
                        f"{s1}({e}) >= {_fmt(bound)}, found {_fmt(model.sort_degree(s1, e))}"
                    )
    # Meet consistency: jointly positive sorts need a positive meet.
    for e, positive in failing:
        for s0, s1 in itertools.combinations(positive, 2):
            try:
                meet = lattice.glb(s0, s1)
            except NotALattice as err:
                problems.append(str(err))
                continue
            if meet not in positive:
                problems.append(
                    f"meet gap: {s0} and {s1} both hold of {e} but "
                    f"glb {meet} does not"
                )
    return problems


# -- interpretation text format ----------------------------------------------


def load_interpretation(text: str, graph: SortGraph) -> Interpretation:
    """Parse the line-oriented interpretation format.

    Lines: ``elem <name>...``, ``deg <sort> <elem> <degree>``,
    ``fun <feature> <elem> <elem>`` and the default form
    ``fun <feature> * <elem>`` (image for every element not given one).
    Elements are declared before they are used; unstated degrees are 0;
    top/bot rows are implied and cannot be stated.
    """
    elements: dict[str, None] = {}
    sort_table: dict[tuple[str, str], float] = {}
    explicit: dict[tuple[str, str], str] = {}
    defaults: dict[str, str] = {}

    def fail(lineno: int, msg: str) -> None:
        raise ValueError(f"line {lineno}: {msg}")

    sort_names, feature_names = graph._index, graph._feature_names
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "fun":
            if len(parts) != 4:
                fail(lineno, "expected: fun <feature> <elem|*> <elem>")
            _, f, e, img = parts
            if f not in feature_names:
                fail(lineno, f"unknown feature: {f}")
            if e != "*" and e not in elements:
                fail(lineno, f"undeclared element: {e}")
            if img not in elements:
                fail(lineno, f"undeclared element: {img}")
            table, key = (defaults, f) if e == "*" else (explicit, (f, e))
            old = table.get(key, img)
            if old != img:
                fail(lineno, f"conflicting images for ({f}, {e}): {old} vs {img}")
            table[key] = img
        elif kind == "deg":
            if len(parts) != 4:
                fail(lineno, "expected: deg <sort> <elem> <degree>")
            _, s, e, value = parts
            if s not in sort_names:
                fail(lineno, f"unknown sort: {s}")
            if s in (BOT, TOP):
                fail(lineno, f"{s} rows are implied and cannot be stated")
            if e not in elements:
                fail(lineno, f"undeclared element: {e}")
            try:
                d = _read_degree(value)
            except ValueError:
                fail(lineno, f"bad degree: {value!r}")
            if not 0.0 <= d <= 1.0:
                fail(lineno, f"degree must lie in [0, 1]: {value}")
            old = sort_table.get((s, e), d)
            if old != d:
                fail(lineno, f"conflicting degrees for ({s}, {e}): {_fmt(old)} vs {_fmt(d)}")
            sort_table[(s, e)] = d
        elif kind == "elem":
            if len(parts) < 2:
                fail(lineno, "expected: elem <name>...")
            for name in parts[1:]:
                elements[name] = None
        else:
            fail(lineno, f"unknown directive: {kind!r}")

    features: dict[tuple[str, str], str] = {}
    for f in graph.features:
        default = defaults.get(f)
        for e in elements:
            img = explicit.get((f, e), default)
            if img is not None:
                features[(f, e)] = img
    return Interpretation(
        elements=list(elements),
        sort_table=sort_table,
        features=features,
        feature_names=list(graph.features),
    )


# -- term-shaped models --------------------------------------------------------


class CanonicalAlgebra:
    """The model a solved clause (or graph) freely generates.

    Elements are the clause's tags; a tag belongs to sort s to the degree
    its label is graded below s.  Features are total: a missing edge yields
    a trivial element — a nested ``("~", feature, parent)`` key — that
    belongs only to top and never constrains anything.
    """

    def __init__(self, sorts: dict[str, str], out: dict[str, tuple], lattice: SortLattice):
        self.node_sorts = dict(sorts)
        self.node_out = {n: dict(e) for n, e in out.items()}  # feature -> target
        self.lattice = lattice
        self.elements: list[str] = list(self.node_sorts)
        self.feature_names: list[str] = list(lattice.graph.features)

    @classmethod
    def from_graph(cls, g: OsfGraph, lattice: SortLattice) -> "CanonicalAlgebra":
        return cls(g.sorts, g.out, lattice)

    @classmethod
    def from_clause(cls, clause: Clause, lattice: SortLattice) -> "CanonicalAlgebra":
        sorts, out = _solved_structure(clause)
        for tag in clause.tags():
            sorts.setdefault(tag, TOP)
        return cls(sorts, out, lattice)

    def sort_degree(self, sort: str, element) -> float:
        if isinstance(element, tuple):
            return 1.0 if sort == TOP else 0.0
        return self.lattice.degree(self.node_sorts[element], sort)

    def positive_sorts(self, element) -> dict[str, float]:
        if isinstance(element, tuple):
            return {TOP: 1.0}
        return dict(self.lattice._above(self.node_sorts[element]))

    def feature_image(self, feature: str, element):
        edges = {} if isinstance(element, tuple) else self.node_out.get(element, {})
        target = edges.get(feature)
        return ("~", feature, element) if target is None else target

    def is_trivial(self, element) -> bool:
        return isinstance(element, tuple)


# -- denotation and satisfaction -----------------------------------------------


def denote(t: Term, model, alpha: dict[str, object]) -> float:
    """Degree of the root's image under a total assignment.

    Raises ValueError naming the first tag, in first-occurrence order, that
    ``alpha`` does not bind.
    """
    for tag in term_tags(t):
        if alpha.get(tag) is None:
            raise ValueError(f"assignment missing tag {tag}")
    element = alpha[t.tag]
    return _denotation(t, model, element, model.sort_degree(t.sort, element), alpha)


def best_denotation(t: Term, model, element) -> float:
    """Max over assignments of the element's degree — computed by forcing.

    Feature images force every tag's assignment; a tag demanded at two
    different elements admits no assignment, so the degree is 0.  A root
    held at 0, or without arguments, answers from its own degree.
    """
    sd = model.sort_degree(t[1], element)  # fields by position: a parsed root has four
    if sd == 0.0 or not t[2]:
        return sd if sd < 1.0 else 1.0
    return _denotation(t, model, element, sd, None)


def _denotation(t: Term, model, element, sd: float, alpha: dict[str, object] | None) -> float:
    """The min of sort degrees along ``t``'s feature images from ``element``,
    at whose root ``t`` holds to degree ``sd``.

    ``alpha``, when given, binds every tag; without it, the first image a
    tag meets binds it.  A tag met at an element other than its binding
    makes the degree 0.
    """
    value = sd if sd < 1.0 else 1.0
    if value == 0.0 or not t[2]:
        return value
    binding: dict[str, object] = {t[0]: element} if alpha is None else alpha
    image = model.feature_image
    stack = [(child, image(f, element)) for f, child in t[2]]
    while stack:
        node, d = stack.pop()
        bound = binding.get(node[0])
        if bound is None:
            binding[node[0]] = bound = d
        if bound != d:
            return 0.0
        sd = model.sort_degree(node[1], d)
        if sd < value:
            value = sd
            if value == 0.0:
                return 0.0
        for f, child in node[2]:
            stack.append((child, image(f, d)))
    return value


def satisfies(clause: Clause, model, alpha: dict[str, object], beta: float) -> bool:
    """Threshold satisfaction; every clause holds at degree 0 or below."""
    if beta <= 0.0:
        return True
    return satisfaction_degree(clause, model, alpha) >= beta


def satisfaction_degree(clause: Clause, model, alpha: dict[str, object]) -> float:
    """The largest degree at which the assignment satisfies the clause."""
    value = 1.0
    for c in clause.constraints:
        if isinstance(c, SortConstraint):
            d = model.sort_degree(c.sort, alpha[c.tag])
            if d < value:
                value = d
        elif isinstance(c, FeatureConstraint):
            if model.feature_image(c.feature, alpha[c.tag]) != alpha[c.target]:
                return 0.0
        elif isinstance(c, EqualityConstraint):
            if alpha[c.left] != alpha[c.right]:
                return 0.0
        else:
            raise _not_a_constraint(c)
        if value == 0.0:
            return 0.0
    return value


def generated_subalgebra(model: Interpretation, seeds: list[str]) -> Interpretation:
    """The least feature-closed submodel containing the seeds."""
    kept: dict[str, None] = {}
    queue = list(seeds)
    for e in queue:  # breadth first: the loop also visits what it appends
        if e in kept:
            continue
        kept[e] = None
        for f in model.feature_names:
            queue.append(model.feature_image(f, e))
    elements = [e for e in model.elements if e in kept]
    sort_table = {
        (s, e): d for (s, e), d in model.sort_table.items() if e in kept
    }
    features = {
        (f, e): img for (f, e), img in model.features.items() if e in kept
    }
    return Interpretation(
        elements=elements,
        sort_table=sort_table,
        features=features,
        feature_names=list(model.feature_names),
    )


# -- graded morphisms -----------------------------------------------------------


class Morphism(_Slots):
    """A feature-commuting map between models and the best degree it works at.

    ``max_beta`` is 1 when no sort membership drops across the map, 0 when
    some membership drops to 0 (the map exists but works at no positive
    degree), otherwise the least degree it drops to.
    """

    __match_args__ = __slots__ = ("mapping", "max_beta")

    def __init__(self, mapping: dict, max_beta: float):
        self.mapping, self.max_beta = mapping, max_beta


def morphism_max_beta(model_from, model_to, mapping) -> float:
    """Best degree for a given feature-commuting map (1 if nothing drops).

    A membership can drop only where it is positive in the source, so only
    each source element's positive sorts are read.
    """
    worst = 1.0
    for e, img in mapping.items():
        for s, fd in model_from.positive_sorts(e).items():
            td = model_to.sort_degree(s, img)
            if fd > td and td < worst:
                worst = td
    return worst


def find_morphism(model_from, model_to, anchor: tuple) -> Morphism | None:
    """The unique graded morphism with ``anchor[0] -> anchor[1]``, if any.

    The map is forced along feature images from the anchor, so it covers the
    subalgebra the anchor generates.  Returns None when the forced images
    conflict (no feature-commuting map exists at all); otherwise the map with
    its best degree, which may be 0.
    """
    d0, d1 = anchor
    mapping: dict = {d0: d1}
    queue = [d0]
    while queue:
        e = queue.pop()
        if model_from.is_trivial(e):
            continue
        img = mapping[e]
        for f in model_from.feature_names:
            e2 = model_from.feature_image(f, e)
            i2 = model_to.feature_image(f, img)
            prev = mapping.get(e2)
            if prev is None:
                mapping[e2] = i2
                queue.append(e2)
            elif prev != i2:
                return None
    return Morphism(mapping=mapping, max_beta=morphism_max_beta(model_from, model_to, mapping))


def approximation_degree(g0: OsfGraph, g1: OsfGraph, lattice: SortLattice) -> float:
    """Degree to which g0 approximates g1 (g1 construed as the more specific)."""
    return fuzzy_subsumption_degree(graph_to_term(g1), graph_to_term(g0), lattice)


# -- random model generators (used by the harness) -------------------------------


DEGREE_PALETTE = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]


def random_lattice(rng: random.Random, max_sorts: int, max_features: int) -> SortLattice:
    """A random valid lattice: a forest of sorts, sometimes with extra edges.

    Forests are always lattices (incomparable sorts meet at bot); extra
    cross edges are kept only if ``SortLattice.validate`` still passes.
    """
    n = rng.randint(1, max_sorts)
    names = [f"s{i}" for i in range(n)]
    edges: list[tuple[str, str, float]] = []
    for i in range(1, n):
        if rng.random() < 0.8:
            parent = names[rng.randrange(i)]
            edges.append((names[i], parent, rng.choice(DEGREE_PALETTE)))
    features = [f"f{i}" for i in range(rng.randint(1, max_features))]
    graph = SortGraph(names, features, edges)
    lattice = SortLattice(graph).validate()

    extras = rng.randint(0, 2)
    for _ in range(extras):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        if i < j:
            i, j = j, i
        candidate = edges + [(names[i], names[j], rng.choice(DEGREE_PALETTE))]
        try:
            trial_graph = SortGraph(names, features, candidate)
            trial = SortLattice(trial_graph).validate()
        except OntologyError:
            continue
        edges = candidate
        graph, lattice = trial_graph, trial
    return lattice


def random_interpretation(
    rng: random.Random, lattice: SortLattice, max_domain: int
) -> Interpretation:
    """A valid interpretation built from per-element principal sorts.

    Element d gets a principal sort p and a cap c; its membership in s is
    ``min(c, degree(p, s))``.  Graded-subsumption compatibility follows from
    max-min transitivity, and meets stay positive because p lies below every
    sort d belongs to.
    """
    sorts = [s for s in lattice.graph.sorts if s != BOT]
    principals = [
        (f"d{i}", rng.choice(sorts), rng.choice(DEGREE_PALETTE))
        for i in range(rng.randint(1, max_domain))
    ]
    elements = [e for e, _, _ in principals]
    return _random_model(rng, lattice, elements, _principal_table(lattice, principals))


def _principal_table(
    lattice: SortLattice, principals: list[tuple[str, str, float]]
) -> dict[tuple[str, str], float]:
    """The sort table of elements given as ``(element, principal sort, cap)``.

    The element holds each sort s other than top and bot at
    ``min(cap, degree(principal, s))``, where that is positive.
    """
    table: dict[tuple[str, str], float] = {}
    for e, principal, cap in principals:
        for s, d in lattice._above(principal):
            if s != TOP and s != BOT:
                table[(s, e)] = min(cap, d)
    return table


def random_repaired_interpretation(
    rng: random.Random, lattice: SortLattice, max_domain: int
) -> Interpretation:
    """A valid interpretation of irregular shape.

    Each element seeds one positively held sort, scatters independent random
    degrees across sorts above it, then one monotone raising pass enforces
    graded-subsumption compatibility.  All positive sorts sit above the seed,
    so every pairwise meet also sits above the seed and the raising pass has
    made it positive — meets stay consistent without any dropping.
    """
    m = rng.randint(1, max_domain)
    elements = [f"d{i}" for i in range(m)]
    plain = [s for s in lattice.graph.sorts if s not in (TOP, BOT)]
    table: dict[tuple[str, str], float] = {}
    for e in elements:
        if not plain:
            break
        seed_sort = rng.choice(plain)
        table[(seed_sort, e)] = rng.choice(DEGREE_PALETTE)
        for s in plain:
            if s != seed_sort and lattice.degree(seed_sort, s) > 0.0 and rng.random() < 0.5:
                table[(s, e)] = rng.choice(DEGREE_PALETTE)

    # One raising pass reaches the fixpoint: when s0 raises s1 after s1's
    # turn, s0 also raises each s2 above s1 to min(d0, degree(s0, s2)), and
    # degree(s0, s2) >= min(degree(s0, s1), degree(s1, s2)) (max-min
    # transitivity), so s1's new degree has nothing left to pass on.
    for e in elements:
        for s0 in plain:
            d0 = table.get((s0, e), 0.0)
            if d0 <= 0.0:
                continue
            for s1, d in lattice._above(s0):
                bound = min(d0, d)
                if s1 != TOP and bound > table.get((s1, e), 0.0):
                    table[(s1, e)] = bound
    return _random_model(rng, lattice, elements, table)


def _random_model(
    rng: random.Random, lattice: SortLattice, elements: list[str], table: dict
) -> Interpretation:
    """The model with this sort table and a random total feature table."""
    features: dict[tuple[str, str], str] = {}
    for f in lattice.graph.features:
        for e in elements:
            features[(f, e)] = rng.choice(elements)
    return Interpretation(
        elements=elements,
        sort_table=table,
        features=features,
        feature_names=list(lattice.graph.features),
    )


def random_normal_term(rng: random.Random, lattice: SortLattice, max_tags: int) -> Term:
    """A random normal term: tree-shaped with back-references (cycles allowed).

    Bare references only point at tags already introduced, so the term is in
    the canonical presentation where the structured occurrence comes first.
    """
    sorts = [s for s in lattice.graph.sorts if s != BOT]
    features = lattice.graph.features
    placed: list[str] = []
    budget = rng.randint(1, max_tags)

    def gen(depth: int) -> Term:
        nonlocal budget
        tag = f"T{len(placed)}"
        placed.append(tag)
        budget -= 1
        args: list[tuple[str, Term]] = []
        k = rng.randint(0, len(features))
        for f in rng.sample(features, k):
            if budget > 0 and depth < max_tags and rng.random() < 0.6:
                args.append((f, gen(depth + 1)))
            elif rng.random() < 0.5:
                args.append((f, Term(rng.choice(placed), TOP, ())))
        return Term(tag, rng.choice(sorts), tuple(args))

    return gen(0)


def random_clause(rng: random.Random, lattice: SortLattice, max_tags: int) -> Clause:
    """An unstructured random clause: duplicate sorts/features and equalities."""
    n = rng.randint(1, max_tags)
    tags = [f"X{i}" for i in range(n)]
    sorts = [s for s in lattice.graph.sorts if s != BOT]
    features = lattice.graph.features
    constraints = []
    for _ in range(rng.randint(1, 2 * max_tags)):
        kind = rng.random()
        if kind < 0.45:
            constraints.append(SortConstraint(rng.choice(tags), rng.choice(sorts)))
        elif kind < 0.85:
            constraints.append(
                FeatureConstraint(rng.choice(tags), rng.choice(features), rng.choice(tags))
            )
        else:
            constraints.append(EqualityConstraint(rng.choice(tags), rng.choice(tags)))
    return Clause(tuple(constraints))


# -- the harness ------------------------------------------------------------------


class CheckResult(_Slots):
    __match_args__ = __slots__ = ("name", "cases", "failures")

    def __init__(self, name: str, cases: int = 0, failures: list[str] | None = None):
        self.name, self.cases, self.failures = name, cases, [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def case(self, failure: str | bool | None) -> bool:
        """Count one case and say whether it failed: ``failure`` is its
        message if it did, else false (``cond and message`` reads both)."""
        self.cases += 1
        if failure:
            self.failures.append(failure)
        return bool(failure)


class TheoremReport(_Slots):
    __match_args__ = __slots__ = ("checks", "seed")

    def __init__(self, checks: list[CheckResult] | None = None, seed: int = 0):
        self.checks, self.seed = [] if checks is None else checks, seed

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            if c.passed:
                lines.append(f"[ok]   {c.name} ({c.cases} cases)")
            else:
                lines.append(f"[FAIL] {c.name} ({len(c.failures)} failures / {c.cases} cases)")
                for f in c.failures[:3]:
                    lines.append(f"       {f}")
        verdict = "all checks passed" if self.passed else "CHECKS FAILED"
        lines.append(f"{verdict} (seed {self.seed})")
        return "\n".join(lines)


def _all_assignments(tags: list[str], elements: list[str]):
    """Every total assignment of elements to tags, or none when there are
    more than 200 of them (elements^tags), which keeps exhaustive checks small."""
    if len(elements) ** len(tags) > 200:
        return
    for combo in itertools.product(elements, repeat=len(tags)):
        yield dict(zip(tags, combo))


def check_theorems(
    seed: int = 0,
    max_domain: int = 4,
    max_sorts: int = 5,
    max_features: int = 2,
    rounds: int = 40,
) -> TheoremReport:
    """Run every semantic self-check; see the module docstring for the claims."""
    import random  # only the harness draws; the annotations that name it are never evaluated

    from . import samples

    rng = random.Random(seed)
    report = TheoremReport(seed=seed)

    def check(name: str) -> CheckResult:
        result = CheckResult(name=name)
        report.checks.append(result)
        return result

    movie = samples.movie_lattice()
    interp = samples.movie_interpretation()

    # ---- fixed checks on the sample model --------------------------------

    problems = validate_interpretation(interp, movie)
    check("sample interpretation is valid").case("; ".join(problems))

    c = check("sample denotation degrees")
    t_thriller = parse_term("X: thriller(directed_by -> Y: director)", movie.graph)
    degrees = {"halloween": 0.5, "psycho": 1.0, "hitchcock": 0.0, "null": 0.0}
    for element, expected in degrees.items():
        got = best_denotation(t_thriller, interp, element)
        c.case(got != expected and f"best degree at {element}: {got:g} != {expected:g}")
    alpha = {"X": "halloween", "Y": "carpenter"}
    c.case(
        denote(t_thriller, interp, alpha) != 0.5
        and "assignment-level degree at halloween is not 0.5"
    )
    # A term demanding the same feature lead to both a director and a string,
    # through a second tag or through Y again, denotes 0 everywhere (the
    # sorts share no positive member).
    for second in ("Y2", "Y"):
        t = parse_term(f"X: movie(directed_by -> Y: director, directed_by -> {second}: string)", movie.graph)
        for element in interp.elements:
            got = best_denotation(t, interp, element)
            c.case(got != 0.0 and f"clashing term has positive degree at {element}")

    c = check("sample satisfaction thresholds")
    clause = parse_clause("X: thriller", movie.graph)
    for beta, expected in [(0.5, True), (0.6, False), (0.0, True)]:
        got = satisfies(clause, interp, {"X": "halloween"}, beta)
        c.case(got != expected and f"threshold {beta:g}: {got} != {expected}")

    canon = CanonicalAlgebra.from_graph(term_to_graph(t_thriller), movie)
    m = find_morphism(canon, interp, ("X", "halloween"))
    check("sample morphism degree").case(
        (m is None or m.max_beta != 0.5)
        and f"expected max degree 0.5, got {m.max_beta if m else None}"
    )

    c = check("sample generated subalgebra")
    sub = generated_subalgebra(interp, ["halloween"])
    expected = ["halloween", "carpenter", "halloween_title", "null"]
    c.case(sub.elements != expected and f"from halloween: {sub.elements}")
    sub = generated_subalgebra(interp, ["null"])
    c.case(sub.elements != ["null"] and "from null: expected just null")

    broken_table = dict(interp.sort_table)
    broken_table[("thriller", "halloween")] = 0.3  # below the slasher-forced 0.5
    broken = Interpretation(interp.elements, broken_table, interp.features, interp.feature_names)
    check("negative control: corrupted model is flagged").case(
        not validate_interpretation(broken, movie) and "validator accepted a membership gap"
    )

    # ---- randomized checks ------------------------------------------------

    gen_check = check("random interpretations validate")
    deno_check = check("denotation matches satisfaction threshold")
    norm_check = check("normalization preserves solutions on the support")
    canon_check = check("solved clauses hold in their own shape at degree 1")
    extend_check = check("morphisms extend solutions")
    extract_check = check("solutions extract to morphisms")
    via_check = check("denotation equals the anchored morphism degree")
    compose_check = check("morphism composition keeps the min degree")
    sub_check = check("generated subalgebras are transparent")
    final_check = check("principal-sort targets absorb every model")
    approx_check = check("approximation degree agrees across both routes")

    for _ in range(rounds):
        lattice = random_lattice(rng, max_sorts, max_features)
        models = [
            random_interpretation(rng, lattice, max_domain),
            random_repaired_interpretation(rng, lattice, max_domain),
        ]
        for model in models:
            problems = validate_interpretation(model, lattice)
            gen_check.case(problems[0] if problems else None)

        model = models[rng.randrange(len(models))]

        # Denotation vs satisfaction, exact.
        for _ in range(3):
            t = random_normal_term(rng, lattice, 3)
            phi = term_to_clause(t)
            for alpha in _all_assignments(phi.tags(), model.elements):
                lhs = denote(t, model, alpha)
                rhs = satisfaction_degree(phi, model, alpha)
                deno_check.case(lhs != rhs and f"{t}: assignment {alpha}: {lhs:g} != {rhs:g}")

        # Normalization preserves solutions (support level).
        for _ in range(2):
            phi = random_clause(rng, lattice, 3)
            nf = normalize(phi, lattice)
            rebuilt = None if isinstance(nf, Inconsistent) else Clause(
                nf.solved.constraints + tuple(EqualityConstraint(a, b) for a, b in nf.equalities)
            )
            for alpha in _all_assignments(phi.tags(), model.elements):
                before = satisfaction_degree(phi, model, alpha) > 0.0
                after = rebuilt is not None and satisfaction_degree(rebuilt, model, alpha) > 0.0
                norm_check.case(
                    before != after
                    and f"{phi}: assignment {alpha}: {before} vs {after} after normalization"
                )

        # A solved clause holds in its canonical shape at degree 1.
        t = random_normal_term(rng, lattice, 4)
        phi = term_to_clause(t)
        canon = CanonicalAlgebra.from_clause(phi, lattice)
        identity = {tag: tag for tag in phi.tags()}
        canon_check.case(
            satisfaction_degree(phi, canon, identity) != 1.0
            and f"{t} does not hold in its own shape at 1"
        )

        # Extending and composing solutions through morphisms.
        second = random_interpretation(rng, lattice, max_domain)
        d = rng.choice(model.elements)
        sub = generated_subalgebra(model, [d])
        for d2 in second.elements:
            m = find_morphism(sub, second, (d, d2))
            if m is None or m.max_beta <= 0.0:
                continue
            phi = term_to_clause(random_normal_term(rng, lattice, 2))
            tags = phi.tags()
            if len(sub.elements) ** len(tags) > 100:
                break
            for alpha in _all_assignments(tags, sub.elements):
                beta = satisfaction_degree(phi, sub, alpha)
                if beta <= 0.0:
                    continue
                carried = {x: m.mapping[e] for x, e in alpha.items()}
                target = min(beta, m.max_beta)
                extend_check.case(
                    not satisfies(phi, second, carried, target)
                    and f"{phi}: solution at {beta:g} did not carry at {target:g}"
                )
            # Composition: chase a second hop when one exists.
            d3 = rng.choice(second.elements)
            mid = generated_subalgebra(second, [m.mapping[d]])
            m2 = find_morphism(mid, second, (m.mapping[d], d3))
            if m2 is not None and m2.max_beta > 0.0:
                composed = {e: m2.mapping[i] for e, i in m.mapping.items() if i in m2.mapping}
                got = morphism_max_beta(sub, second, composed)
                compose_check.case(
                    got < min(m.max_beta, m2.max_beta)
                    and f"composition degree {got:g} < min({m.max_beta:g}, {m2.max_beta:g})"
                )
            break

        # Extracting solutions: each solution of a solved clause is a morphism.
        phi = term_to_clause(random_normal_term(rng, lattice, 2))
        tags = phi.tags()
        canon = CanonicalAlgebra.from_clause(phi, lattice)
        if len(model.elements) ** len(tags) <= 100:
            for alpha in _all_assignments(tags, model.elements):
                beta = satisfaction_degree(phi, model, alpha)
                if beta <= 0.0:
                    continue
                got = morphism_max_beta(canon, model, dict(alpha))
                extract_check.case(
                    got < beta and f"{phi}: solution at {beta:g} maps at only {got:g}"
                )

        # Denotation equals the anchored morphism's degree.
        t = random_normal_term(rng, lattice, 3)
        canon = CanonicalAlgebra.from_graph(term_to_graph(t), lattice)
        for element in model.elements:
            m = find_morphism(canon, model, (t.tag, element))
            via = m.max_beta if m is not None else 0.0
            direct = best_denotation(t, model, element)
            via_check.case(
                via != direct and f"{t} at {element}: morphism {via:g} != denotation {direct:g}"
            )

        # Subalgebra transparency.
        sub = generated_subalgebra(model, [rng.choice(model.elements)])
        t = random_normal_term(rng, lattice, 2)
        for element in sub.elements:
            sub_check.case(
                best_denotation(t, sub, element) != best_denotation(t, model, element)
                and f"{t} at {element}: subalgebra changed the degree"
            )

        # Weak finality: each element's principal sort, the meet of the sorts
        # it holds, gives a target model that the model maps into.
        # The target's features are built from the map, so it commutes.
        mapping = {e: f"q_{e}" for e in model.elements}
        principals = []
        for e, q in mapping.items():
            principals.append((q, lattice._meet(model.positive_sorts(e)), 1.0))
        names = model.feature_names
        features = {(f, mapping[e]): mapping[model.feature_image(f, e)] for f in names for e in mapping}
        target = Interpretation(list(mapping.values()), _principal_table(lattice, principals), features, names)
        problems = validate_interpretation(target, lattice)
        final_check.case(
            f"target invalid: {problems[0]}" if problems
            else "quotient map works at no positive degree"
            if morphism_max_beta(model, target, mapping) <= 0.0 else None
        )

        # Approximation degree: completion route vs morphism route.
        t0 = random_normal_term(rng, lattice, 3)
        t1 = random_normal_term(rng, lattice, 3)
        g0, g1 = term_to_graph(t0), term_to_graph(t1)
        route_a = approximation_degree(g0, g1, lattice)
        canon0, canon1 = (CanonicalAlgebra.from_graph(g, lattice) for g in (g0, g1))
        m = find_morphism(canon0, canon1, (g0.root, g1.root))
        route_b = m.max_beta if m is not None else 0.0
        approx_check.case(
            route_a != route_b and f"{t0} vs {t1}: completion {route_a:g} != morphism {route_b:g}"
        )

    return report

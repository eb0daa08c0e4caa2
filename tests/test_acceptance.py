"""Acceptance gate: one test per shipping criterion, one printed line each.

Every degree assertion uses exact equality — the whole calculus is min/max
over input degrees, so no tolerance is ever needed.  Randomized criteria run
seeded loops with the advertised instance counts; timing criteria pin their
budgets as constants below.
"""

from __future__ import annotations

import random
import time

import oracles
import strategies
from linecount import line_events
from oracles import canonical_normal_form, clause_constraints, normalize_small_step, step_bound
from fuzzyosf import (
    BOT,
    TOP,
    Clause,
    EqualityConstraint,
    Inconsistent,
    Interpretation,
    NotALattice,
    SortGraph,
    SortLattice,
    Term,
    build_similarity,
    check_normal,
    check_theorems,
    clause_to_term,
    crisp_subsumes,
    enrich_from_similarity,
    find_morphism,
    format_ontology,
    format_term,
    fuzzy_subsumption_degree,
    graph_equivalent,
    graph_to_term,
    load_interpretation,
    load_ontology,
    normalize,
    parse_term,
    subsumption_witness,
    term_to_clause,
    term_to_graph,
    unify,
    validate_interpretation,
)
from fuzzyosf.semantics import random_clause, random_lattice, random_normal_term

# Pinned budgets.  Degrees are exact; only wall-clock envelopes get numbers.
SMALL_UNIFY_BUDGET = 0.010  # seconds, best of 5
CHAIN_UNIFY_BUDGET = 2.0  # seconds, single run on two 10,000-tag chains
QUERY_BUDGET = 0.050  # seconds, one degree query on the 5,000-sort ontology
HARNESS_BUDGET = 60.0  # seconds, full semantic harness
ENRICH_BUDGET = 2.0  # seconds, single run on the 4,000-sort forest
MORPHISM_BUDGET = 0.5  # seconds, find_morphism on the 20,000-element ring model

DAG_COUNT = 1000  # criterion 4
CLAUSE_COUNT = 500  # criterion 5
ORDER_COUNT = 5  # criterion 5: randomized rule orders per clause
ROUNDTRIP_COUNT = 1000  # criterion 6
PAIR_COUNT = 500  # criterion 7


def _report(capsys, line: str) -> None:
    """Print the criterion verdict to the real terminal, bypassing capture."""
    with capsys.disabled():
        print(line, flush=True)


# -- criterion 1: cyclic unification end to end ------------------------------------


def test_criterion_1_cyclic_unification(capsys, chain_lattice, cyclic_pair):
    psi1, psi2 = cyclic_pair
    result = unify(psi1, psi2, chain_lattice)

    expected = parse_term(
        "Z0: q(f -> Z1: s(g -> Z0, h -> Z2: r))", chain_lattice.graph
    )
    assert result.unifier is not None
    assert graph_equivalent(term_to_graph(result.unifier), term_to_graph(expected))
    assert result.beta1 == 0.4
    assert result.beta2 == 0.5
    assert result.beta == 0.4

    best = min(
        _timed(lambda: unify(psi1, psi2, chain_lattice)) for _ in range(5)
    )
    assert best < SMALL_UNIFY_BUDGET, f"unify took {best * 1000:.2f} ms"

    _report(
        capsys,
        f"PASS criterion 1: cyclic unifier at beta1=0.4 beta2=0.5 beta=0.4,"
        f" {best * 1000:.2f} ms",
    )


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


# -- criterion 2: the movie running example ----------------------------------------


def test_criterion_2_movie_example(capsys, movies, movie_terms):
    t1, t2, t3 = movie_terms

    result = unify(t1, t3, movies)
    assert result.unifier is not None
    assert graph_equivalent(term_to_graph(result.unifier), term_to_graph(t2))
    assert result.beta == 0.5

    assert fuzzy_subsumption_degree(t2, t1, movies) == 0.5
    assert fuzzy_subsumption_degree(t1, t2, movies) == 0.0
    witness = subsumption_witness(t1, t2, movies)
    assert witness is None or witness.degree == 0.0

    _report(
        capsys,
        "PASS criterion 2: unify(t1, t3) == t2 at 0.5; t2 under t1 at 0.5,"
        " t1 under t2 at 0",
    )


# -- criterion 3: a feature clash collapses to bottom -------------------------------


def test_criterion_3_clash_collapses_to_bottom(capsys, movies):
    clashing = parse_term(
        "X: movie(directed_by -> Y: director, directed_by -> Y2: string)",
        movies.graph,
    )
    nf = normalize(term_to_clause(clashing), movies)
    assert isinstance(nf, Inconsistent)

    left = parse_term("A: movie(directed_by -> B: director)", movies.graph)
    right = parse_term("A2: movie(directed_by -> B2: string)", movies.graph)
    result = unify(left, right, movies)
    assert result.is_bottom
    assert result.unifier is None
    assert result.beta == 1.0
    assert result.beta1 == 1.0
    assert result.beta2 == 1.0

    _report(capsys, "PASS criterion 3: clash normalizes INCONSISTENT, unifies BOTTOM at beta=1")


# -- criterion 4: lattice laws on random weighted DAGs ------------------------------


def test_criterion_4_lattice_laws(capsys):
    rng = random.Random(20260816)
    lattice_count = 0
    non_lattice_count = 0

    for case in range(DAG_COUNT):
        sorts, edges = strategies.random_dag(rng, max_sorts=12)
        graph = SortGraph(sorts, [], edges)
        lat = SortLattice(graph)
        nodes = [BOT, *sorts, TOP]

        degree = {(a, b): lat.degree(a, b) for a in nodes for b in nodes}

        # Laws, checked on the production closure itself.
        for n in nodes:
            assert degree[(n, n)] == 1.0, (case, n)
            assert degree[(BOT, n)] == 1.0, (case, n)
            assert degree[(n, TOP)] == 1.0, (case, n)
        for a in nodes:
            for b in nodes:
                ab = degree[(a, b)]
                if ab == 0.0:
                    continue
                if a != b:
                    assert degree[(b, a)] == 0.0, (case, a, b)
                for c in nodes:
                    lower = min(ab, degree[(b, c)])
                    assert degree[(a, c)] >= lower, (case, a, b, c)

        # Independent route: brute-force max-min closure must agree exactly.
        table = oracles.closure_table(sorts, edges)
        for pair, value in table.items():
            assert degree[pair] == value, (case, pair)

        # Meets: fuzzy GLB must coincide with the crisp-support GLB.
        downs = oracles.down_sets(sorts, edges)
        try:
            lat.validate()
        except NotALattice as exc:
            non_lattice_count += 1
            s, t = exc.pair
            assert len(oracles.glb_candidates(sorts, edges, s, t, downs)) != 1
            continue
        lattice_count += 1
        for a in nodes:
            for b in nodes:
                candidates = oracles.glb_candidates(sorts, edges, a, b, downs)
                assert len(candidates) == 1, (case, a, b)
                assert lat.glb(a, b) == candidates[0], (case, a, b)

    assert lattice_count + non_lattice_count == DAG_COUNT
    assert lattice_count >= 100, "too few validated lattices to be meaningful"

    _report(
        capsys,
        f"PASS criterion 4: lattice laws on {DAG_COUNT} random DAGs"
        f" ({lattice_count} lattices, {non_lattice_count} rejected), 0 failures",
    )


# -- criterion 5: normalization is confluent up to tag renaming ---------------------


def test_criterion_5_normalization_confluence(capsys):
    rng = random.Random(5150)

    for case in range(CLAUSE_COUNT):
        lattice = random_lattice(rng, 6, 3)
        clause = random_clause(rng, lattice, 10)
        constraints = clause_constraints(clause)
        bound = step_bound(constraints)

        fingerprints = set()
        for order in range(ORDER_COUNT):
            nf, steps = normalize_small_step(
                constraints, lattice.glb, rng=random.Random(case * ORDER_COUNT + order)
            )
            assert steps <= bound, (case, order, steps, bound)
            fingerprints.add(canonical_normal_form(nf))
        assert len(fingerprints) == 1, (case, fingerprints)

        # The eager production engine lands on the same class.
        assert canonical_normal_form(normalize(clause, lattice)) in fingerprints

    _report(
        capsys,
        f"PASS criterion 5: {CLAUSE_COUNT} clauses x {ORDER_COUNT} rule orders"
        f" confluent within the step bound, 0 failures",
    )


# -- criterion 6: term / clause / graph roundtrips are identities --------------------


def test_criterion_6_representation_roundtrips(capsys):
    rng = random.Random(61803)

    for case in range(ROUNDTRIP_COUNT):
        lattice = random_lattice(rng, 8, 3)
        psi = random_normal_term(rng, lattice, 8)
        printed = format_term(psi)

        via_clause = clause_to_term(term_to_clause(psi))
        assert format_term(via_clause) == printed, case

        g = term_to_graph(psi)
        assert format_term(graph_to_term(g)) == printed, case

        g2 = term_to_graph(via_clause)
        assert g2.root == g.root and g2.sorts == g.sorts and g2.out == g.out, case

        assert format_term(parse_term(printed, lattice.graph)) == printed, case

    _report(
        capsys,
        f"PASS criterion 6: term/clause/graph roundtrips identical on"
        f" {ROUNDTRIP_COUNT} random normal terms, 0 failures",
    )


# -- criterion 7: crisp subsumption iff positive fuzzy degree ------------------------


def _generalized(rng: random.Random, lattice: SortLattice, t: Term) -> Term:
    """A random weakening of ``t``: lift sorts upward, drop some features."""
    names = [s for s in lattice.graph.sorts if s != BOT]
    ups: dict[str, list[str]] = {}

    def up(sort: str) -> list[str]:
        if sort not in ups:
            ups[sort] = [x for x in [*names, TOP] if lattice.degree(sort, x) > 0.0]
        return ups[sort]

    def walk(node: Term) -> Term:
        args = tuple((f, walk(sub)) for f, sub in node.args if rng.random() < 0.7)
        sort = rng.choice(up(node.sort)) if rng.random() < 0.8 else node.sort
        return Term(node.tag, sort, args)

    return walk(t)


def test_criterion_7_crisp_fuzzy_bridge(capsys):
    rng = random.Random(7777)
    positives = 0

    for case in range(PAIR_COUNT):
        lattice = random_lattice(rng, 6, 3)
        specific = random_normal_term(rng, lattice, 5)
        if rng.random() < 0.5:
            general = _generalized(rng, lattice, specific)
        else:
            general = random_normal_term(rng, lattice, 5)

        sorts = list(lattice.graph.sorts)
        edges = list(lattice.graph.edges)
        want = oracles.crisp_subsumes(specific, general, sorts, edges)
        positives += want

        assert crisp_subsumes(specific, general, lattice) == want, case
        assert (fuzzy_subsumption_degree(specific, general, lattice) > 0.0) == want, case

    assert positives >= 50, "too few positive cases to be meaningful"
    assert PAIR_COUNT - positives >= 50, "too few negative cases to be meaningful"

    _report(
        capsys,
        f"PASS criterion 7: crisp iff fuzzy-positive on {PAIR_COUNT} pairs"
        f" ({positives} positive), oracle agreed, 0 failures",
    )


# -- criterion 8: the semantic theorem harness --------------------------------------


def test_criterion_8_theorem_harness(capsys):
    start = time.perf_counter()
    report = check_theorems(seed=0, max_domain=4, max_sorts=5, max_features=2)
    elapsed = time.perf_counter() - start

    assert report.passed, report.summary()
    assert elapsed < HARNESS_BUDGET, f"harness took {elapsed:.1f} s"

    names = {c.name for c in report.checks}
    assert "sample denotation degrees" in names
    assert "sample morphism degree" in names
    for c in report.checks:
        assert c.passed, c.name
        assert c.cases > 0, c.name

    _report(
        capsys,
        f"PASS criterion 8: {len(report.checks)} harness checks passed in"
        f" {elapsed:.1f} s",
    )


# -- criterion 9: performance envelope ----------------------------------------------


def _chain_term(prefix: str, depth: int, tail: tuple = ()) -> Term:
    node = Term(f"{prefix}{depth - 1}", "s", tail)
    for i in range(depth - 2, -1, -1):
        node = Term(f"{prefix}{i}", "s", (("f", node),))
    return node


def test_criterion_9_performance_envelope(capsys):
    # Deep unification: two 10,000-tag chains.
    graph = SortGraph(["s"], ["f"], [])
    tiny = SortLattice(graph).validate()
    left = _chain_term("A", 10_000)
    right = _chain_term("B", 10_000)

    start = time.perf_counter()
    result = unify(left, right, tiny)
    chain_elapsed = time.perf_counter() - start

    assert result.unifier is not None
    assert result.beta == 1.0
    assert len(result.tag_classes) == 10_000
    assert chain_elapsed < CHAIN_UNIFY_BUDGET, f"{chain_elapsed:.2f} s"

    # Wide closure: one degree query on a 5,000-sort, 20,000-edge ontology.
    rng = random.Random(99)
    names = [f"z{i}" for i in range(5000)]
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < 20_000:
        i = rng.randrange(4999)
        chosen.add((i, rng.randrange(i + 1, 5000)))
    edges = [
        (names[i], names[j], rng.choice(strategies.DEGREES)) for i, j in chosen
    ]
    big = SortLattice(SortGraph(names, [], edges))

    assert big.degree(names[0], names[-1]) > 0.0  # warm up; ends are connected
    query_elapsed = max(
        _timed(lambda source=source: big.degree(source, names[-1]))
        for source in (names[2], names[4], names[6])
    )
    assert query_elapsed < QUERY_BUDGET, f"{query_elapsed * 1000:.1f} ms"

    _report(
        capsys,
        f"PASS criterion 9: 10,000-tag unify {chain_elapsed:.2f} s;"
        f" 5,000-sort degree query {query_elapsed * 1000:.1f} ms",
    )


def test_criterion_9_line_counts_grow_linearly(capsys):
    # Executed lines, not time, on 1,000-, 2,000- and 4,000-tag chains: unify
    # and subsumption on two chains, normalize on both chains' clauses with
    # their roots equated, and unify of a cycle with a self-loop, which merges
    # every tag into one class; then printing, the normal-form check, both
    # directions of term <-> clause and term <-> graph, and graph equivalence
    # of the two chains.  Counts differ between Python versions, so only their
    # ratios are asserted.
    tiny = SortLattice(SortGraph(["s"], ["f"], [])).validate()
    loop = Term("L", "s", (("f", Term("L", TOP, ())),))
    counts = []
    for n in (1000, 2000, 4000):
        left, right = _chain_term("A", n), _chain_term("B", n)
        cycle = _chain_term("C", n, (("f", Term("C0", TOP, ())),))
        phi = Clause(
            term_to_clause(left).constraints
            + term_to_clause(right).constraints
            + (EqualityConstraint("A0", "B0"),)
        )
        assert len(unify(cycle, loop, tiny).tag_classes) == 1
        g0, g1 = term_to_graph(left), term_to_graph(right)
        counts.append([
            line_events(unify, left, right, tiny),
            line_events(subsumption_witness, left, right, tiny),
            line_events(normalize, phi, tiny),
            line_events(unify, cycle, loop, tiny),
            line_events(format_term, left),
            line_events(check_normal, left),
            line_events(term_to_clause, left),
            line_events(clause_to_term, term_to_clause(left)),
            line_events(term_to_graph, left),
            line_events(graph_to_term, g0),
            line_events(graph_equivalent, g0, g1),
        ])
    for small, large in zip(counts, counts[1:]):
        for a, b in zip(small, large):
            assert b <= 2.3 * a, counts
    _report(
        capsys,
        "PASS criterion 9: unify, subsumption_witness, normalize, a merging cycle"
        " unify, format_term, check_normal, term_to_clause, clause_to_term,"
        " term_to_graph, graph_to_term and graph_equivalent run"
        f" {counts[0]} / {counts[-1]} lines at 1,000 / 4,000 tags",
    )


def test_criterion_9_loading_line_counts_grow_linearly(capsys):
    # Executed lines of load_ontology, of SortGraph given the same sorts and
    # edges, and of load_interpretation, on 1,000, 2,000 and 4,000 sorts: a
    # random tree with one feature and a sim on every tenth sort, and a model
    # with an element per ten sorts, one degree and one image each.
    counts = []
    for n in (1000, 2000, 4000):
        rng = random.Random(n)
        names = [f"s{i}" for i in range(n)]
        edges = [(names[i], names[rng.randrange(i)], rng.choice([0.5, 1.0])) for i in range(1, n)]
        graph = SortGraph(names, ["f"], edges)
        sim = build_similarity([(names[i], names[i + 1], 0.5) for i in range(0, n - 1, 10)])
        elements = [f"e{i}" for i in range(n // 10)]
        model = "elem " + " ".join(elements) + "\n" + "".join(
            f"deg {rng.choice(names)} {e} 0.5\nfun f {e} {rng.choice(elements)}\n" for e in elements
        )
        counts.append([
            line_events(load_ontology, format_ontology(graph, sim)),
            line_events(SortGraph, names, ["f"], edges),
            line_events(load_interpretation, model, graph),
        ])
    for small, large in zip(counts, counts[1:]):
        for a, b in zip(small, large):
            assert b <= 2.3 * a, counts
    _report(
        capsys,
        "PASS criterion 9: load_ontology, SortGraph and load_interpretation run"
        f" {counts[0]} / {counts[-1]} lines at 1,000 / 4,000 sorts",
    )


def _ring_model(n: int, gap: bool = False) -> tuple[SortLattice, Interpretation]:
    """n unrelated sorts s_i and n elements e_i in a ring, f: e_i -> e_{i+1},
    each e_i holding s_i at 0.5; with ``gap``, e0 holds s1 too, and the two
    meet at bot."""
    names = [f"s{i}" for i in range(n)]
    lattice = SortLattice(SortGraph(names, ["f"], [])).validate()
    elements = [f"e{i}" for i in range(n)]
    table = {(names[i], elements[i]): 0.5 for i in range(n)}
    if gap:
        table[("s1", "e0")] = 0.5
    features = {("f", elements[i]): elements[(i + 1) % n] for i in range(n)}
    return lattice, Interpretation(elements, table, features, ["f"])


def test_criterion_9_model_line_counts_grow_linearly(capsys):
    # Executed lines of find_morphism from the ring model into itself, and of
    # validate_interpretation on it, valid and with one meet gap, at 1,000,
    # 2,000 and 4,000 elements and sorts.
    counts = []
    for n in (1000, 2000, 4000):
        lattice, model = _ring_model(n)
        _, broken = _ring_model(n, gap=True)
        assert validate_interpretation(broken, lattice) == [
            "meet gap: s0 and s1 both hold of e0 but glb bot does not"
        ]
        counts.append([
            line_events(find_morphism, model, model, ("e0", "e0")),
            line_events(validate_interpretation, model, lattice),
            line_events(validate_interpretation, broken, lattice),
        ])
    for small, large in zip(counts, counts[1:]):
        for a, b in zip(small, large):
            assert b <= 2.3 * a, counts
    _report(
        capsys,
        "PASS criterion 9: find_morphism and validate_interpretation, valid and with"
        f" a gap, run {counts[0]} / {counts[-1]} lines at 1,000 / 4,000 elements",
    )


def test_criterion_9_morphism_envelope(capsys):
    # The ring model at 20,000 elements and sorts.  A morphism that asks every
    # sort at every element is quadratic: 0.9 s at 2,000 elements here.
    _, model = _ring_model(20_000)
    start = time.perf_counter()
    m = find_morphism(model, model, ("e0", "e0"))
    elapsed = time.perf_counter() - start
    assert (len(m.mapping), m.max_beta) == (20_000, 1.0)
    assert elapsed < MORPHISM_BUDGET, f"find_morphism took {elapsed:.2f} s"
    _report(capsys, f"PASS criterion 9: find_morphism on a 20,000-element ring {elapsed * 1000:.1f} ms")


def test_criterion_9_enrichment_envelope(capsys):
    # A 4,000-sort crisp forest, each sort's parent among the 50 before it,
    # and n // 5 sims: every candidate's cycle test must stay one bit test.
    rng = random.Random(3)
    n = 4000
    names = [f"s{i}" for i in range(n)]
    edges = [(names[i], names[rng.randrange(max(0, i - 50), i)], 1.0) for i in range(1, n)]
    pairs: dict[frozenset[str], tuple[str, str, float]] = {}
    for _ in range(n // 5):
        a, b = rng.sample(names, 2)
        pairs.setdefault(frozenset((a, b)), (a, b, rng.choice([0.3, 0.5, 0.8])))
    graph = SortGraph(names, [], edges)
    sim = build_similarity(list(pairs.values()))

    start = time.perf_counter()
    enriched, dropped = enrich_from_similarity(graph, sim)
    elapsed = time.perf_counter() - start

    added = len(enriched.edges) - len(graph.edges)
    assert (added, len(dropped)) == (102_786, 16_185)
    assert elapsed < ENRICH_BUDGET, f"enrichment took {elapsed:.2f} s"
    _report(
        capsys,
        f"PASS criterion 9: 4,000-sort enrichment {elapsed:.2f} s;"
        f" {added:,} new edges, {len(dropped):,} dropped",
    )

"""Sort hierarchy: closure degrees, meets, validation, enrichment, file format."""

from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from fuzzyosf import (
    BOT,
    TOP,
    CycleDetected,
    DegreeOutOfRange,
    DuplicateName,
    NotALattice,
    OntologyError,
    SortGraph,
    SortLattice,
    UnknownSort,
    build_similarity,
    enrich_from_similarity,
    format_ontology,
    load_ontology,
)


# -- frozen closure values on the chain hierarchy --------------------------------


@pytest.mark.parametrize(
    "sub,sup,expected",
    [
        ("q", "u", 0.7),
        ("s", "v", 0.4),
        ("q", "v", 0.5),
        ("s", "u", 0.7),
        ("q", "t", 0.6),
        ("p", "u", 0.8),
        ("p", "v", 0.4),
        ("q", "s", 0.9),
        ("u", "q", 0.0),
        ("u", "v", 0.0),
    ],
)
def test_chain_closure_degrees(chain_lattice, sub, sup, expected):
    assert chain_lattice.degree(sub, sup) == expected


@pytest.mark.parametrize(
    "left,right,meet",
    [("u", "v", "s"), ("s", "t", "q"), ("r", "s", "p"), ("u", "u", "u"), ("p", "q", BOT)],
)
def test_chain_glbs(chain_lattice, left, right, meet):
    assert chain_lattice.glb(left, right) == meet
    assert chain_lattice.glb(right, left) == meet


def test_bounds_are_implicit(chain_lattice):
    for s in chain_lattice.graph.sorts:
        assert chain_lattice.degree(BOT, s) == 1.0
        assert chain_lattice.degree(s, TOP) == 1.0
        assert chain_lattice.degree(s, s) == 1.0
    assert chain_lattice.degree(TOP, "p") == 0.0
    assert chain_lattice.degree("p", BOT) == 0.0
    assert chain_lattice.glb(TOP, "p") == "p"
    assert chain_lattice.glb(BOT, "p") == BOT


def test_unknown_sort_raises(chain_lattice):
    with pytest.raises(UnknownSort):
        chain_lattice.degree("p", "nosuch")
    with pytest.raises(UnknownSort):
        chain_lattice.glb("nosuch", "p")


def test_closure_pairs_lists_every_positive_degree(chain_lattice):
    table = {(s, t): d for s, t, d in chain_lattice.closure_pairs()}
    assert table[("q", "u")] == 0.7
    assert all(d > 0.0 for d in table.values())
    assert ("u", "q") not in table


# -- construction errors ----------------------------------------------------------


def test_duplicate_sort_rejected():
    with pytest.raises(DuplicateName):
        SortGraph(["a", "a"], [], [])


def test_sort_feature_collision_rejected():
    with pytest.raises(DuplicateName):
        SortGraph(["a"], ["a"], [])


def test_degree_zero_edge_rejected():
    with pytest.raises(DegreeOutOfRange):
        SortGraph(["a", "b"], [], [("a", "b", 0.0)])


def test_degree_above_one_rejected():
    with pytest.raises(DegreeOutOfRange):
        SortGraph(["a", "b"], [], [("a", "b", 1.5)])


@pytest.mark.parametrize("flag", [True, False])
def test_bool_degrees_rejected(flag):
    with pytest.raises(DegreeOutOfRange):
        SortGraph(["a", "b"], [], [("a", "b", flag)])
    with pytest.raises(DegreeOutOfRange):
        build_similarity([("a", "b", flag)])


def test_cycle_detected_with_witness():
    with pytest.raises(CycleDetected) as exc:
        lat = SortLattice(
            SortGraph(
                ["a", "b", "c"], [], [("a", "b", 1.0), ("b", "c", 0.5), ("c", "a", 1.0)]
            )
        )
        lat.degree("a", "b")
    assert set(exc.value.cycle) <= {"a", "b", "c"}


def test_self_edge_rejected():
    with pytest.raises(CycleDetected):
        SortGraph(["a"], [], [("a", "a", 1.0)])


def test_edges_touching_bounds():
    with pytest.raises(CycleDetected):
        SortGraph(["a"], [], [("a", BOT, 1.0)])
    with pytest.raises(CycleDetected):
        SortGraph(["a"], [], [(TOP, "a", 1.0)])
    graph = SortGraph(["a"], [], [(BOT, "a", 1.0), ("a", TOP, 1.0)])
    assert SortLattice(graph).degree("a", TOP) == 1.0


def test_duplicate_edges_keep_the_best():
    graph = SortGraph(["a", "b"], [], [("a", "b", 0.3), ("a", "b", 0.8)])
    assert SortLattice(graph).degree("a", "b") == 0.8


def test_diamond_is_not_a_lattice():
    graph = SortGraph(
        ["a", "b", "c", "d"],
        [],
        [("a", "c", 1.0), ("a", "d", 1.0), ("b", "c", 1.0), ("b", "d", 1.0)],
    )
    with pytest.raises(NotALattice) as exc:
        SortLattice(graph).validate()
    assert set(exc.value.pair) == {"c", "d"}
    assert set(exc.value.maximal) == {"a", "b"}


def test_validate_reports_the_first_pair_in_declaration_order():
    # (e, d), (e, c) and (d, c) all fail; the first in sort-index order is reported.
    graph = SortGraph(
        ["e", "d", "c", "a", "b", "x"],
        [],
        [(a, b, 1.0) for a in "ab" for b in "cde"] + [("x", "e", 1.0), ("x", "c", 0.5)],
    )
    with pytest.raises(NotALattice) as exc:
        SortLattice(graph).validate()
    assert exc.value.pair == ("e", "d")
    assert exc.value.maximal == ["a", "b"]
    assert str(exc.value) == (
        "no unique greatest lower bound for (e, d); maximal common lower bounds: a, b"
    )


def test_validate_reports_the_first_pair_even_past_a_non_branching_sort():
    # e has a single declared subsort, so a scan of branching sorts alone
    # would meet (d, c) first; the reported pair is still (e, d).
    graph = SortGraph(
        ["e", "d", "c", "a", "b"],
        [],
        [(a, b, 1.0) for a in "ab" for b in "cd"] + [("c", "e", 1.0)],
    )
    with pytest.raises(NotALattice) as exc:
        SortLattice(graph).validate()
    assert exc.value.pair == ("e", "d")
    assert exc.value.maximal == ["a", "b"]
    assert str(exc.value) == (
        "no unique greatest lower bound for (e, d); maximal common lower bounds: a, b"
    )


def test_glb_of_a_chain_declared_bottom_up():
    # Leaves declared before the implicit bot come first in the graph's
    # topological order; bot must still sit below them in the bit order.
    lattice = SortLattice(SortGraph(["x", "z"], [], [("x", "z", 1.0)])).validate()
    assert lattice.glb("x", "z") == lattice.glb("z", "x") == "x"
    assert lattice.glb("x", BOT) == lattice.glb(BOT, "z") == BOT
    assert lattice.glb("z", TOP) == "z"


def test_validate_is_idempotent(chain_lattice):
    assert chain_lattice.validate() is chain_lattice


# -- random DAGs vs the brute-force oracle ----------------------------------------


@settings(max_examples=150, deadline=None)
@given(strategies.dags(max_sorts=8))
def test_closure_matches_oracle(dag):
    sorts, edges = dag
    table = oracles.closure_table(sorts, edges)
    lattice = SortLattice(SortGraph(sorts, [], edges))
    for s in [BOT, *sorts, TOP]:
        for t in [BOT, *sorts, TOP]:
            assert lattice.degree(s, t) == table[(s, t)], (s, t)


@st.composite
def bounded_dags(draw, max_sorts: int = 8):
    """Random DAGs plus the shapes a sparse closure row must get right: edges
    into top below 1, edges out of bot, an isolated sort, a diamond whose two
    paths carry unequal degrees, and bot and top declared anywhere."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    sorts, edges = strategies.random_dag(rng, max_sorts=max_sorts)
    for s in sorts:
        if rng.random() < 0.25:
            edges.append((s, TOP, rng.choice(strategies.DEGREES)))
        if rng.random() < 0.25:
            edges.append((BOT, s, rng.choice(strategies.DEGREES)))
    d1, d2 = rng.sample(strategies.DEGREES, 2)
    edges += [("da", "db", 1.0), ("da", "dc", 1.0), ("db", "dd", d1), ("dc", "dd", d2)]
    edges.append(("dd", rng.choice(sorts), rng.choice(strategies.DEGREES)))
    names = [*sorts, "da", "db", "dc", "dd", "iso", BOT, TOP]
    rng.shuffle(names)
    return names, edges


@settings(max_examples=200, deadline=None)
@given(bounded_dags())
def test_sparse_rows_match_the_oracle(dag):
    sorts, edges = dag
    table = oracles.closure_table(sorts, edges)
    graph = SortGraph(sorts, [], edges)
    names = graph.sorts
    lattice = SortLattice(graph)
    assert [lattice.degree(s, t) for s in names for t in names] == [
        table[(s, t)] for s in names for t in names
    ]
    # closure_pairs lists sources, then targets, in declaration order.
    expected = [(s, t, table[(s, t)]) for s in names for t in names if table[(s, t)] > 0.0]
    assert SortLattice(graph).closure_pairs() == expected


def test_closure_pairs_time_is_linear_in_the_rows():
    # A 3,000-sort binary tree: each row holds about a dozen sorts, so a
    # closure that scans the whole hierarchy for every source takes seconds.
    names = [f"n{i}" for i in range(3_000)]
    edges = [(names[i], names[(i - 1) // 2], 1.0) for i in range(1, len(names))]
    lattice = SortLattice(SortGraph(names, [], edges))
    start = time.perf_counter()
    pairs = lattice.closure_pairs()
    assert time.perf_counter() - start < 0.5
    assert pairs[:3] == [("n0", "n0", 1.0), ("n0", TOP, 1.0), ("n1", "n0", 1.0)]
    # Each sort lists itself, its ancestors and top; bot lists all; top itself.
    assert len(pairs) == sum((i + 1).bit_length() + 1 for i in range(3_000)) + 3_002 + 1


@settings(max_examples=150, deadline=None)
@given(strategies.dags(max_sorts=8))
def test_glb_agrees_with_support_oracle(dag):
    sorts, edges = dag
    lattice = SortLattice(SortGraph(sorts, [], edges))
    try:
        lattice.validate()
    except NotALattice as exc:
        left, right = exc.pair
        assert len(oracles.glb_candidates(sorts, edges, left, right)) != 1
        return
    assert oracles.is_lattice(sorts, edges)
    for s in sorts:
        for t in sorts:
            assert [lattice.glb(s, t)] == oracles.glb_candidates(sorts, edges, s, t)


@settings(max_examples=150, deadline=None)
@given(strategies.dags(max_sorts=8))
def test_every_glb_and_failure_matches_the_oracle(dag):
    sorts, edges = dag
    lattice = SortLattice(SortGraph(sorts, [], edges))
    downs = oracles.down_sets(sorts, edges)
    nodes = [BOT, *sorts, TOP]
    for s in nodes:
        for t in nodes:
            candidates = oracles.glb_candidates(sorts, edges, s, t, downs)
            if len(candidates) == 1:
                assert lattice.glb(s, t) == candidates[0], (s, t)
                continue
            with pytest.raises(NotALattice) as exc:
                lattice.glb(s, t)
            assert exc.value.pair == (s, t)
            assert exc.value.maximal == candidates


def _assert_validate_matches_the_oracle(sorts, edges):
    # The first failing pair in declaration order, with its maximal common lower bounds.
    downs = oracles.down_sets(sorts, edges)
    first = None
    for s, t in itertools.combinations(sorts, 2):
        candidates = oracles.glb_candidates(sorts, edges, s, t, downs)
        if len(candidates) != 1:
            first = (s, t), candidates
            break
    lattice = SortLattice(SortGraph(sorts, [], edges))
    if oracles.is_lattice(sorts, edges):
        assert first is None
        assert lattice.validate() is lattice
        return
    with pytest.raises(NotALattice) as exc:
        lattice.validate()
    (s, t), candidates = first
    assert exc.value.pair == (s, t)
    assert exc.value.maximal == candidates
    assert str(exc.value) == (
        f"no unique greatest lower bound for ({s}, {t}); "
        f"maximal common lower bounds: {', '.join(candidates)}"
    )


@settings(max_examples=200, deadline=None)
@given(strategies.dags(max_sorts=9))
def test_validate_verdict_and_first_pair_match_the_oracle(dag):
    _assert_validate_matches_the_oracle(*dag)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([0.3, 0.4, 0.5]))
def test_validate_matches_the_oracle_on_dense_shuffled_dags(seed, edge_prob):
    # Declaring the sorts in random order, not bottom-up, lets the first failing
    # pair involve a sort with fewer than two declared subsorts.
    rng = random.Random(seed)
    sorts, edges = strategies.random_dag(rng, max_sorts=16, edge_prob=edge_prob)
    rng.shuffle(sorts)
    _assert_validate_matches_the_oracle(sorts, edges)


@settings(max_examples=200, deadline=None)
@given(bounded_dags(max_sorts=10))
def test_validate_matches_the_oracle_with_edges_at_the_bounds(dag):
    # Edges out of bot give bot two declared supersorts and edges into top
    # give a sort an extra one; neither may hide or invent a failing pair.
    _assert_validate_matches_the_oracle(*dag)


def test_validate_time_on_a_tree_is_not_quadratic():
    # An 8,000-sort binary tree: about 4,000 sorts branch, but no sort has two
    # declared supersorts, so no pair can fail; a scan of every branching
    # pair takes seconds.
    names = [f"n{i}" for i in range(8_000)]
    edges = [(names[i], names[(i - 1) // 2], 1.0) for i in range(1, len(names))]
    lattice = SortLattice(SortGraph(names, [], edges))
    start = time.perf_counter()
    assert lattice.validate() is lattice
    assert time.perf_counter() - start < 0.25


@settings(max_examples=100, deadline=None)
@given(strategies.lattices(max_sorts=10))
def test_random_lattices_validate(lattice):
    names = [s for s in lattice.graph.sorts if s not in (BOT, TOP)]
    for s in names:
        for t in names:
            meet = lattice.glb(s, t)
            assert lattice.degree(meet, s) > 0.0
            assert lattice.degree(meet, t) > 0.0


# -- similarity enrichment ---------------------------------------------------------


def test_enrichment_grades_a_crisp_taxonomy():
    graph = SortGraph(
        ["car", "bike", "truck", "vehicle"],
        [],
        [("car", "vehicle", 1.0), ("bike", "vehicle", 1.0), ("truck", "vehicle", 1.0)],
    )
    sim = build_similarity([("car", "truck", 0.8), ("car", "bike", 0.4)])
    enriched, dropped = enrich_from_similarity(graph, sim)
    table = {(a, b): d for a, b, d in enriched.edges}
    assert table[("car", "truck")] == 0.8
    assert table[("bike", "car")] == 0.4
    reasons = {(e.sub, e.sup): e.reason for e in dropped}
    assert reasons[("truck", "car")] == "cycle"
    assert reasons[("car", "bike")] == "cycle"
    SortLattice(enriched).validate()


def test_enrichment_max_combines_candidates():
    graph = SortGraph(
        ["a", "b", "c"], [], [("a", "b", 1.0)]
    )
    sim = build_similarity([("b", "c", 0.6), ("a", "c", 0.9)])
    enriched, _ = enrich_from_similarity(graph, sim)
    table = {(x, y): d for x, y, d in enriched.edges}
    # a sits below b, so sim(b, c) also seeds (a, c); the direct 0.9 wins.
    assert table[("a", "c")] == 0.9


def test_enrichment_edges_and_drops_in_order():
    # sim(car, vehicle) re-derives the declared car -> vehicle edge, which keeps
    # degree 1 and its place; (bike, car) and (sedan, bike) are each hit twice.
    graph = SortGraph(
        ["sedan", "car", "bike", "truck", "vehicle"],
        [],
        [
            ("sedan", "car", 1.0),
            ("car", "vehicle", 1.0),
            ("bike", "vehicle", 1.0),
            ("truck", "vehicle", 1.0),
        ],
    )
    sim = build_similarity(
        [
            ("car", "vehicle", 0.6),
            ("car", "truck", 0.8),
            ("car", "bike", 0.4),
            ("sedan", "bike", 0.7),
        ]
    )
    enriched, dropped = enrich_from_similarity(graph, sim)
    assert enriched.sorts == ["sedan", "car", "bike", "truck", "vehicle", BOT, TOP]
    assert enriched.edges == [
        ("sedan", "car", 1.0),
        ("car", "vehicle", 1.0),
        ("bike", "vehicle", 1.0),
        ("truck", "vehicle", 1.0),
        ("bike", "car", 0.6),
        ("bike", "sedan", 0.7),
        ("car", "truck", 0.8),
        ("sedan", "truck", 0.8),
        ("sedan", "vehicle", 0.6),
    ]
    assert [(e.sub, e.sup, e.degree, e.reason) for e in dropped] == [
        ("car", "bike", 0.4, "cycle"),
        ("car", "car", 0.6, "self"),
        ("sedan", "bike", 0.7, "cycle"),
        ("truck", "car", 0.8, "cycle"),
        ("vehicle", "car", 0.6, "cycle"),
    ]


def test_enrichment_requires_crisp_hierarchy():
    graph = SortGraph(["a", "b"], [], [("a", "b", 0.7)])
    with pytest.raises(ValueError):
        enrich_from_similarity(graph, build_similarity([("a", "b", 0.5)]))


def test_similarity_table_rules():
    table = build_similarity([("a", "b", 0.5)])
    assert table[("a", "b")] == table[("b", "a")] == 0.5
    with pytest.raises(DegreeOutOfRange):
        build_similarity([("a", "b", 1.2)])
    with pytest.raises(OntologyError):
        build_similarity([("a", "a", 0.3)])
    with pytest.raises(OntologyError):
        build_similarity([("a", "b", 0.3), ("b", "a", 0.4)])


# -- the file format ---------------------------------------------------------------


ONTOLOGY_TEXT = """\
# two branches
sort a b c
feature f
edge a b 0.5
edge a c 1
sim b c 0.25
"""


def test_load_ontology_roundtrip():
    graph, sim = load_ontology(ONTOLOGY_TEXT)
    assert set(graph.features) == {"f"}
    assert sim[("b", "c")] == 0.25
    again, sim2 = load_ontology(format_ontology(graph, sim))
    assert sorted(again.edges) == sorted(graph.edges)
    assert sim2 == sim
    assert list(again.sorts) == list(graph.sorts)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("sort", "line 1"),
        ("edge a b", "line 1"),
        ("edge a b nope", "bad degree"),
        ("hedge a b 1", "unknown directive"),
        ("sort a\nedge a b 2", "line 2"),
        ("sort top", "line 1: top is implicit"),
        ("sort a\nsort b bot c", "line 2: bot is implicit"),
        ("sort a\nsort Bad", "line 2: bad sort name: 'Bad'"),
        ("sort a\nedge a B 1", "line 2: bad sort name: 'B'"),
        ("feature f\nfeature Bad", "line 2: bad feature name: 'Bad'"),
        ("sort a\nfeature a", "line 2: name used as both sort and feature: a"),
        ("feature a\nsim b a 1", "line 2: name used as both sort and feature: a"),
        ("sort a\nsim a a 0.5", "line 2: self-similarity must be 1"),
        ("sim a b 0.5\n# note\nsim b a 0.6", "line 3: conflicting similarity degrees"),
        ("edge c d 1\nedge b a 1\nedge a b 1", "line 2: subsumption cycle: b -> a -> b"),
        ("sort x\nedge x bot 1", "line 2: subsumption cycle"),
    ],
)
def test_load_ontology_reports_line_numbers(text, fragment):
    with pytest.raises(OntologyError) as exc:
        graph, _ = load_ontology(text)
        SortLattice(graph).validate()
    assert fragment in str(exc.value)


@settings(max_examples=60, deadline=None)
@given(strategies.dags(max_sorts=8))
def test_format_parse_roundtrip_random(dag):
    sorts, edges = dag
    graph = SortGraph(sorts, ["f0"], edges)
    again, _ = load_ontology(format_ontology(graph))
    assert sorted(again.edges) == sorted(graph.edges)
    assert list(again.sorts) == list(graph.sorts)
    assert list(again.features) == ["f0"]


# -- input boundaries ------------------------------------------------------------------


@pytest.mark.parametrize(
    "sorts, features, edges, error, message",
    [
        (["Bad"], [], [], OntologyError, "bad sort name: 'Bad'"),
        (["a"], ["Bad"], [], OntologyError, "bad feature name: 'Bad'"),
        (["a"], ["f", "f"], [], DuplicateName, "feature declared twice: f"),
        (["a"], [], [("zork", "a", 1.0)], UnknownSort, "unknown sort: zork"),
        (["a"], [], [("a", "zork", 1.0)], UnknownSort, "unknown sort: zork"),
    ],
    ids=["bad-sort-name", "bad-feature-name", "duplicate-feature", "unknown-sub", "unknown-sup"],
)
def test_sort_graph_rejects_bad_declarations(sorts, features, edges, error, message):
    with pytest.raises(OntologyError) as exc:
        SortGraph(sorts, features, edges)
    assert (type(exc.value), str(exc.value)) == (error, message)


@pytest.mark.parametrize(
    "text, message",
    [
        ("sort a b\nsim a b high", "line 2: bad degree: 'high'"),
        ("sort a b\nsim a b 1.5", "line 2: sim degree must lie in [0, 1]: 1.5"),
        ("sort a b\nsim a b -0.5", "line 2: sim degree must lie in [0, 1]: -0.5"),
    ],
    ids=["bad-degree", "above-one", "below-zero"],
)
def test_load_ontology_rejects_bad_sim_degrees(text, message):
    with pytest.raises(OntologyError) as exc:
        load_ontology(text)
    assert (type(exc.value), str(exc.value)) == (OntologyError, message)

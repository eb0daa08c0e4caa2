"""Sort hierarchy: closure degrees, meets, validation, enrichment, file format."""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import strategies
from linecount import line_events
from fuzzyosf import lattice
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
    # Each query names the first of its arguments outside the signature.
    cases = [
        (("p", "nosuch"), "nosuch"),
        (("nosuch", "p"), "nosuch"),
        (("nosuch", "other"), "nosuch"),
        (("nosuch", "nosuch"), "nosuch"),
        (("nosuch", BOT), "nosuch"),
        ((BOT, "nosuch"), "nosuch"),
        (("nosuch", TOP), "nosuch"),
        ((TOP, "nosuch"), "nosuch"),
    ]
    for query in (chain_lattice.glb, chain_lattice.degree):
        for args, name in cases:
            with pytest.raises(UnknownSort) as exc:
                query(*args)
            assert exc.value.name == name, (query.__name__, args)


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


def test_cycle_witness_steps_back_from_sorts_that_reach_no_cycle():
    # c, d and y are left over by the topological sort, but they lie above a
    # cycle and reach none; the witness walk drops them and steps back.
    with pytest.raises(CycleDetected) as exc:
        SortGraph(["c", "d", "a", "b"], [], [("c", "d", 1.0), ("a", "b", 1.0), ("b", "a", 1.0), ("a", "c", 1.0)])
    assert exc.value.cycle == ["a", "b", "a"]
    edges = [("p", "q", 1.0), ("q", "p", 1.0), ("p", "x", 1.0), ("x", "y", 1.0), ("x", "z", 1.0), ("z", "p", 1.0)]
    with pytest.raises(CycleDetected) as exc:
        SortGraph(["x", "y", "z", "p", "q"], [], edges)
    assert exc.value.cycle == ["p", "q", "p"]


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


@st.composite
def dags_and_source_orders(draw, max_sorts: int = 10):
    """A random DAG with :func:`bounded_dags`' shapes, a chain, or a stack of
    diamonds (d{i} below l{i} and r{i}, both below d{i+1}), plus every sort as
    a source in a random order, so that each row is asked for with a
    different set of rows memoized before it."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = rng.choice(("dag", "chain", "diamonds"))
    if shape == "dag":
        sorts, edges = draw(bounded_dags(max_sorts=max_sorts))
    elif shape == "chain":
        sorts = [f"c{i}" for i in range(rng.randint(2, max_sorts))]
        edges = [(a, b, rng.choice(strategies.DEGREES)) for a, b in zip(sorts, sorts[1:])]
    else:
        k = rng.randint(1, 3)
        sorts = [f"{p}{i}" for i in range(k) for p in "dlr"] + [f"d{k}"]
        edges = [
            (a, b, rng.choice(strategies.DEGREES))
            for i in range(k)
            for a, b in ((f"d{i}", f"l{i}"), (f"d{i}", f"r{i}"), (f"l{i}", f"d{i + 1}"), (f"r{i}", f"d{i + 1}"))
        ]
    sources = list(dict.fromkeys([BOT, TOP, *sorts]))  # bounded_dags may declare bot and top
    rng.shuffle(sources)
    return sorts, edges, sources


@settings(max_examples=300, deadline=None)
@given(dags_and_source_orders())
def test_degrees_in_any_source_order_match_the_oracle(case):
    sorts, edges, sources = case
    table = oracles.closure_table(sorts, edges)
    graph = SortGraph(sorts, [], edges)
    lattice = SortLattice(graph)
    for s in sources:
        for t in graph.sorts:
            assert lattice.degree(s, t) == table[(s, t)], (s, t)
    names = graph.sorts
    expected = [(s, t, table[(s, t)]) for s in names for t in names if table[(s, t)] > 0.0]
    assert lattice.closure_pairs() == expected


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


@st.composite
def diamond_dags(draw, max_sorts: int = 8):
    """A diamond with chains and fans above it, below a random DAG: join sorts
    ``j1``, ``j2`` below ``c`` and ``d``, a chain above each of ``c`` and ``d``
    whose first sorts ``x`` and ``y`` have one declared subsort each, and a
    fan of sorts above a chain sort, two of them joined again above.  With
    ``m`` between them, ``c`` and ``d`` meet at ``m``; without it, (x, y)
    fails, and declared first, it is the first failing pair though neither
    sort branches."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    sorts, edges = strategies.random_dag(rng, max_sorts=max_sorts)

    def deg() -> float:
        return rng.choice(strategies.DEGREES)

    names = ["j1", "j2", "c", "d"]
    edges += [(j, s, deg()) for j in ("j1", "j2") for s in "cd"]
    if rng.random() < 0.3:
        names.append("m")
        edges += [("j1", "m", deg()), ("j2", "m", deg()), ("m", "c", deg()), ("m", "d", deg())]
    chain = []
    for base, head in (("c", "x"), ("d", "y")):
        below = base
        for k in range(rng.randint(1, 4)):
            name = f"{head}{k}" if k else head
            edges.append((below, name, deg()))
            chain.append(name)
            below = name
    fan = [f"f{k}" for k in range(rng.randint(0, 4))]
    hub = rng.choice(chain)
    edges += [(hub, f, deg()) for f in fan]
    if len(fan) >= 2:
        edges += [(f, "fj", deg()) for f in rng.sample(fan, 2)]
        fan.append("fj")
    # Edges from the diamond's side into the random DAG keep the whole acyclic.
    for s in names + chain + fan:
        if rng.random() < 0.3:
            edges.append((s, rng.choice(sorts), deg()))
    names += chain + fan
    rng.shuffle(names)
    if rng.random() < 0.5:
        names = ["x", "y"] + [s for s in names if s not in ("x", "y")]
    return names + sorts, edges


@example(
    (
        ["x", "y", "c", "d", "j1", "j2"],
        [(j, s, 1.0) for j in ("j1", "j2") for s in "cd"] + [("c", "x", 1.0), ("d", "y", 1.0)],
    )
)
@settings(max_examples=300, deadline=None)
@given(diamond_dags())
def test_validate_matches_the_oracle_with_chains_and_fans_above_diamonds(dag):
    # Only sorts above two join sorts can fail; a chain sort above one
    # diamond side has one declared subsort, yet its pair may come first.
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


def _generated_hierarchy(n: int, seed: int = 7) -> tuple[list[str], list[tuple[str, str, float]]]:
    """The benchmark's ``make_hierarchy`` hierarchy on sorts s0..s(n-1): a random
    tree where about a fifth of the sorts in the pure tree part (no sort above
    with two parents) also get a sibling of their parent as a second parent,
    each sibling pair sharing at most one child, so every GLB is unique."""
    rng = random.Random(seed)
    degrees = (1.0, 1.0, 1.0, 0.9, 0.8, 0.75, 0.6, 0.5, 0.3)
    tree_parent: list[int] = []
    pure: list[bool] = []
    kids: dict[int, list[int]] = {-1: []}
    used: set[frozenset[int]] = set()
    edges = []
    for i in range(n):
        p1 = -1 if i < 3 else rng.randrange(i)
        tree_parent.append(p1)
        kids.setdefault(p1, []).append(i)
        kids[i] = []
        ups = [] if p1 < 0 else [(p1, rng.choice(degrees))]
        if p1 >= 0 and pure[p1] and rng.random() < 0.2:
            siblings = [
                c for c in kids[tree_parent[p1]]
                if c != p1 and pure[c] and frozenset((p1, c)) not in used
            ]
            if siblings:
                p2 = rng.choice(siblings)
                used.add(frozenset((p1, p2)))
                ups.append((p2, rng.choice(degrees)))
        pure.append(len(ups) < 2 and (p1 < 0 or pure[p1]))
        edges += [(f"s{i}", f"s{p}", d) for p, d in ups]
    return [f"s{i}" for i in range(n)], edges


def test_validate_time_on_a_generated_hierarchy():
    # 16,000 sorts, about 3.5 % of them join sorts; a scan of every branching
    # sort above one join sort, not two, takes about 0.6 s.
    names, edges = _generated_hierarchy(16_000)
    lattice = SortLattice(SortGraph(names, [], edges))
    start = time.perf_counter()
    assert lattice.validate() is lattice
    assert time.perf_counter() - start < 0.5


def test_validate_reports_a_broken_diamond_in_a_generated_hierarchy_quickly():
    # One broken diamond declared after 8,000 valid sorts: a rescan of every
    # pair of sorts for the first failing one takes seconds.
    names, edges = _generated_hierarchy(8_000)
    edges += [(a, b, 1.0) for a in ("za", "zb") for b in ("zc", "zd")]
    lattice = SortLattice(SortGraph(names + ["za", "zb", "zc", "zd"], [], edges))
    start = time.perf_counter()
    with pytest.raises(NotALattice) as exc:
        lattice.validate()
    assert time.perf_counter() - start < 0.5
    assert str(exc.value) == (
        "no unique greatest lower bound for (zc, zd); maximal common lower bounds: za, zb"
    )


def test_validate_time_on_a_dense_grid():
    # A 40x40 grid, g{i}_{j} below g{i+1}_{j} and g{i}_{j+1}: every GLB is
    # unique, and all 1,600 sorts but g0_0 lie above two join sorts, so this
    # is the quadratic worst case of the scan, about 1.3 million pairs.
    names = [f"g{i}_{j}" for i in range(40) for j in range(40)]
    edges = [(f"g{i}_{j}", f"g{i + 1}_{j}", 1.0) for i in range(39) for j in range(40)]
    edges += [(f"g{i}_{j}", f"g{i}_{j + 1}", 1.0) for i in range(40) for j in range(39)]
    lattice = SortLattice(SortGraph(names, [], edges))
    start = time.perf_counter()
    assert lattice.validate() is lattice
    assert time.perf_counter() - start < 1.0
    assert lattice.glb("g3_17", "g25_4") == "g3_4"


def _validate_line_events(names: list[str], edges: list[tuple[str, str, float]]) -> int:
    """The number of lines validate() executes."""
    return line_events(SortLattice(SortGraph(names, [], edges)).validate, expected=(NotALattice,))


def test_validate_line_count_on_generated_hierarchies():
    # Executed lines, not time: a count does not drift with the machine.
    diamond = [(a, b, 1.0) for a in ("za", "zb") for b in ("zc", "zd")]
    valid, invalid = [], []
    for n in (1_000, 2_000, 4_000):
        names, edges = _generated_hierarchy(n)
        valid.append(_validate_line_events(names, edges))
        invalid.append(_validate_line_events(names + ["za", "zb", "zc", "zd"], edges + diamond))
    for counts in (valid, invalid):
        for small, large in zip(counts, counts[1:]):
            # The pairs of sorts above two join sorts are read in a quadratic
            # loop; the count grows 2.7-2.9x per doubling.
            assert large <= 3.5 * small, counts
    # A failing hierarchy costs one scan, as a valid one does.
    assert invalid[-1] <= 1.1 * valid[-1], (valid, invalid)


def _row_line_events(names: list[str], edges: list[tuple[str, str, float]], src: str, memoized: str | None) -> int:
    """The number of lines one closure row executes, on a fresh lattice with
    only the row of ``memoized`` (if given) built beforehand."""
    lattice = SortLattice(SortGraph(names, [], edges))
    index = lattice.graph._index
    if memoized is not None:
        lattice._row(index[memoized])
    return line_events(lattice._row, index[src])


def test_one_row_line_count_grows_linearly():
    # One row, cold and with its source's first parent's row memoized: that of
    # a chain's bottom, which holds every sort, and that of the sort with the
    # most sorts above it in a generated hierarchy.  A row that built and
    # memoized the row of every sort it searched would grow quadratically on
    # the chain.
    counts = []
    for n in (1_000, 2_000, 4_000):
        chain = [f"c{i}" for i in range(n)]
        links = [(a, b, strategies.DEGREES[i % 10]) for i, (a, b) in enumerate(zip(chain, chain[1:]))]
        names, edges = _generated_hierarchy(n)
        every_row = SortLattice(SortGraph(names, [], edges))
        deep = max(names, key=lambda s: len(every_row._above(s)))
        parent = next(sup for sub, sup, _ in edges if sub == deep)
        counts.append([
            _row_line_events(chain, links, "c0", None),
            _row_line_events(chain, links, "c0", "c1"),
            _row_line_events(names, edges, deep, None),
            _row_line_events(names, edges, deep, parent),
        ])
    for small, large in zip(counts, counts[1:]):
        for a, b in zip(small, large):
            assert b <= 2.3 * a, counts


def test_row_line_count_with_every_row_above_memoized():
    # A sort with an edge to every sort of a chain, every chain row memoized:
    # a row that merged each memoized row it met would read n rows of up to
    # n entries each.
    counts = []
    for n in (100, 200, 400):
        chain = [f"c{i}" for i in range(n)]
        edges = [(a, b, 0.9) for a, b in zip(chain, chain[1:])] + [("s", c, 0.5) for c in chain]
        lattice = SortLattice(SortGraph([*chain, "s"], [], edges))
        index = lattice.graph._index
        for c in chain:
            lattice._row(index[c])
        counts.append(line_events(lattice._row, index["s"]))
    for small, large in zip(counts, counts[1:]):
        assert large <= 2.3 * small, counts


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


@st.composite
def enrichment_cases(draw, max_sorts: int = 8):
    """A crisp DAG under shuffled names, with explicit ``bot ->`` and ``-> top``
    edges, and sims that include self-sims, sims on ``bot``/``top``, sims of
    degree 0 and sims between comparable sorts, which close cycles."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    sorts, edges = strategies.random_dag(rng, max_sorts=max_sorts)
    rename = dict(zip(sorts, rng.sample([f"c{i}" for i in range(20)], len(sorts))))
    edges = [(rename[a], rename[b], 1.0) for a, b, _ in edges]
    sorts = list(rename.values())
    for s in sorts:
        if rng.random() < 0.2:
            edges.append((BOT, s, 1.0))
        if rng.random() < 0.2:
            edges.append((s, TOP, 1.0))
    names = [*sorts, BOT, TOP]
    rng.shuffle(names)
    degrees: dict[frozenset[str], float] = {}
    pairs = []
    for _ in range(rng.randint(0, 8)):
        if edges and rng.random() < 0.3:
            a, b, _ = rng.choice(edges)
        else:
            a, b = rng.choice(names), rng.choice(names)
        d = 1.0 if a == b else degrees.get(frozenset((a, b)), rng.choice([0.0, 0.3, 0.5, 0.8, 1.0]))
        degrees[frozenset((a, b))] = d
        pairs.append((a, b, d))
    return names, edges, pairs


@settings(max_examples=300, deadline=None)
@given(enrichment_cases())
def test_enrichment_matches_the_oracle(case):
    names, edges, pairs = case
    enriched, dropped = enrich_from_similarity(SortGraph(names, [], edges), build_similarity(pairs))
    expected_sorts, expected_edges, expected_dropped = oracles.enrich(names, edges, pairs)
    assert enriched.sorts == expected_sorts
    assert enriched.edges == expected_edges
    assert [(e.sub, e.sup, e.degree, e.reason) for e in dropped] == expected_dropped


def test_enrichment_requires_crisp_hierarchy():
    graph = SortGraph(["a", "b"], [], [("a", "b", 0.7)])
    with pytest.raises(ValueError):
        enrich_from_similarity(graph, build_similarity([("a", "b", 0.5)]))


def test_enrichment_rejects_a_sim_on_an_unknown_sort():
    graph = SortGraph(["a", "b"], [], [("a", "b", 1.0)])
    with pytest.raises(UnknownSort) as exc:
        enrich_from_similarity(graph, build_similarity([("a", "zork", 0.5)]))
    assert exc.value.name == "zork"


def test_similarity_table_rules():
    table = build_similarity([("a", "b", 0.5)])
    assert table[("a", "b")] == table[("b", "a")] == 0.5
    with pytest.raises(DegreeOutOfRange):
        build_similarity([("a", "b", 1.2)])
    with pytest.raises(OntologyError):
        build_similarity([("a", "a", 0.3)])
    with pytest.raises(OntologyError):
        build_similarity([("a", "b", 0.3), ("b", "a", 0.4)])


# -- frozen outcomes on random DAGs -------------------------------------------------


def test_lattice_outcomes_are_frozen():
    # A sha256 of every answer the lattice gives on 2,000 seeded random DAGs,
    # about a sixth of them no lattice, declared in shuffled order, some with
    # edges out of bot: the validate() verdict or message, every glb or its
    # message, every degree, and the enrichment of the crisp copy by random
    # sims.  A change to how the lattice stores its tables must leave every
    # answer as it is.
    rng = random.Random(2028)
    digest = hashlib.sha256()
    for _ in range(2_000):
        sorts, edges = strategies.random_dag(rng, max_sorts=10, edge_prob=rng.choice([0.3, 0.5]))
        edges = [(a, b, rng.choice([0.5, 0.8, 1.0])) for a, b, _ in edges]
        edges += [(BOT, s, rng.choice([0.5, 1.0])) for s in sorts if rng.random() < 0.15]
        rng.shuffle(sorts)
        graph = SortGraph(sorts, [], edges)
        lattice = SortLattice(graph)
        try:
            lattice.validate()
            out = ["valid"]
        except NotALattice as exc:
            out = [str(exc)]
        for s in graph.sorts:
            for t in graph.sorts:
                try:
                    meet = lattice.glb(s, t)
                except NotALattice as exc:
                    meet = str(exc)
                out.append(f"{meet} {lattice.degree(s, t)}")
        crisp = SortGraph(sorts, [], [(a, b, 1.0) for a, b, _ in edges])
        names = crisp.sorts
        pairs = [(a, b, rng.choice([0.0, 0.3, 0.5, 1.0])) for a, b in itertools.combinations(names, 2)]
        sims = build_similarity(rng.sample(pairs, min(len(pairs), rng.randint(0, 4))))
        enriched, dropped = enrich_from_similarity(crisp, sims)
        out += [repr(enriched.edges), repr(dropped)]
        digest.update("\n".join(out).encode() + b"\n\n")
    assert digest.hexdigest() == "f97dca735543f46ce438208845fb11c49f620b682fa928d468176c2c5726edf7"


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
        ("edge a b ０.５", "line 1: bad degree: '０.５'"),
        ("sort a\nedge a b 1_0e-1", "line 2: bad degree: '1_0e-1'"),
        ("edge a b nan", "line 1: edge degree must lie in (0, 1]: nan"),
        ("edge a b inf", "line 1: edge degree must lie in (0, 1]: inf"),
        ("edge a b -0.5", "line 1: edge degree must lie in (0, 1]: -0.5"),
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
        ("edge c d 1\nedge a b 1\nedge b a 1\nedge a c 1", "line 2: subsumption cycle: a -> b -> a"),
        ("sort a\nedge a b 2\nsort Bad", "line 2: edge degree must lie in (0, 1]: 2"),
        ("edge a b 1\nedge b a 1\nsort Bad", "line 3: bad sort name: 'Bad'"),
        ("sort a b\nsim a b 0\nedge a b 0", "line 3: edge degree must lie in (0, 1]: 0"),
        ("edge a b 0.5\nsim a b 1.5\nedge b c 1.5", "line 2: sim degree must lie in [0, 1]: 1.5"),
    ],
)
def test_load_ontology_reports_line_numbers(text, fragment):
    with pytest.raises(OntologyError) as exc:
        graph, _ = load_ontology(text)
        SortLattice(graph).validate()
    assert fragment in str(exc.value)


def _loader_mutation(rng, names, features, edges, sim):
    """One ontology line, valid or not, over a hierarchy's own names."""
    a, b = rng.choice(names), rng.choice(names)
    bad_name = rng.choice(["Bad", "9a", "a-b", "é", "_a"])
    bad_degree = rng.choice(["nope", "０.５", "1_0", "0", "1.5", "-0.5", "nan", "inf", "2", "0x1", "1e0"])
    lines = [
        f"sort {a} {bad_name}", f"edge {a} {bad_name} 1", f"sim {bad_name} {a} 0.5",
        f"feature {bad_name}", f"edge {a} {b} {bad_degree}", f"sim {a} {b} {bad_degree}",
        f"sort {rng.choice([BOT, TOP])}", f"sort {a} {TOP} {b}",
        f"edge {a} {a} 0.5", f"edge {a} {BOT} 1", f"edge {TOP} {a} 0.8",
        f"edge {BOT} {a} 0.5", f"edge {a} {TOP} 0.3",
        f"sim {a} {b} {rng.choice(['0', '0.3', '1'])}", f"sim {a} {a} 0.5",
        f"feature {a}", f"feature f{rng.randrange(3)}", f"sort f{rng.randrange(3)}",
        f"edge f0 {a} 1", f"sort {a}", f"sort new{rng.randrange(3)}",
        f"edge new{rng.randrange(3)} {a} 0.8", f"edge {a} new{rng.randrange(3)} 1",
        rng.choice(["hedge a b 1", "Sort a", "edges", "sort", "feature", "edge a b", "sim a b 1 1"]),
    ]
    if edges:
        sub, sup, _ = rng.choice(edges)
        lines += [f"edge {sup} {sub} 1", f"edge {sub} {sup} {rng.choice(['0.25', '0.8', '1'])}"]
    if sim:
        a, b = rng.choice(list(sim))
        lines.append(f"sim {b} {a} {rng.choice(['0', '0.3', '0.5'])}")
    return rng.choice(lines)


def test_load_ontology_outcomes_are_frozen():
    # A sha256 of what load_ontology makes of 300 seeded hierarchies written
    # by format_ontology, with comments, blank lines and odd spacing mixed
    # in, sometimes with the sort lines left out, each as it is and with one
    # and two lines changed or inserted: the graph and sims read back, or the
    # error's type and message.  The same hierarchies, changed through the
    # API, go to SortGraph directly.  A change to how the loader checks its
    # lines must leave every outcome, and which error comes first, as it is.
    rng = random.Random(3030)
    digest = hashlib.sha256()

    def outcome(build):
        try:
            graph, sim = build()
        except OntologyError as exc:
            return f"{type(exc).__name__}: {exc}"
        return format_ontology(graph, sim) + repr((graph._succ, graph._topo))

    for _ in range(300):
        sorts, edges = strategies.random_dag(
            rng, max_sorts=rng.choice([2, 5, 12, 30, 80]), edge_prob=rng.choice([0.1, 0.3])
        )
        edges = [(a, b, rng.choice([0.25, 0.5, 0.8, 1.0, 0.1234567])) for a, b, _ in edges]
        rng.shuffle(sorts)
        features = [f"f{k}" for k in range(rng.randrange(3))]
        graph = SortGraph(sorts, features, edges)
        pairs = list(itertools.combinations(sorts, 2))
        sim = build_similarity(
            [(a, b, rng.choice([0.0, 0.3, 0.5])) for a, b in rng.sample(pairs, min(len(pairs), rng.randrange(3)))]
        )
        lines = format_ontology(graph, sim).splitlines()
        if rng.random() < 0.3:
            lines = [line for line in lines if not line.startswith("sort ")]
        for _ in range(rng.randrange(4)):
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "# note", "   ", "\t# x # y"]))
        lines = [
            line + rng.choice(["", " # c", "#c", "  "]) if rng.random() < 0.2 else line for line in lines
        ]
        lines = [line.replace(" ", rng.choice([" ", "  ", "\t"])) for line in lines]
        texts = [lines]
        for count in (1, 2):
            changed = list(lines)
            for _ in range(count):
                line = _loader_mutation(rng, sorts, features, edges, sim)
                at = rng.randrange(len(changed) + 1)
                changed[at : at + rng.randrange(2)] = [line]
            texts.append(changed)
        for text in texts:
            digest.update(outcome(lambda: load_ontology("\n".join(text))).encode() + b"\n\n")

        names, feats, links = list(sorts), list(features), list(edges)
        for _ in range(rng.randrange(3)):
            a, b = rng.choice(sorts), rng.choice(sorts)
            change = rng.randrange(6)
            if change == 0:
                names.insert(rng.randrange(len(names) + 1), rng.choice(["Bad", BOT, TOP, a]))
            elif change == 1:
                feats.append(rng.choice(["Bad", a, "f0"]))
            elif change == 2:
                links.insert(rng.randrange(len(links) + 1), (rng.choice([a, "zork"]), rng.choice([b, "zork"]), 1.0))
            elif change == 3:
                degree = rng.choice([True, "0.5", 0, 1, 1.5, float("nan"), -0.5, 0.5])
                links.insert(rng.randrange(len(links) + 1), (a, b, degree))
            elif change == 4:
                links.insert(rng.randrange(len(links) + 1), rng.choice([(a, a, 1.0), (a, BOT, 1.0), (TOP, a, 1.0), (BOT, a, 0.5), (a, TOP, 0.5)]))
            elif links:
                sub, sup, _ = rng.choice(links)
                links.insert(rng.randrange(len(links) + 1), rng.choice([(sup, sub, 1.0), (sub, sup, 0.9)]))
        digest.update(outcome(lambda: (SortGraph(names, feats, links), None)).encode() + b"\n\n")
    assert digest.hexdigest() == "ab518476f5a5be37b209c766e0fc6904b95751e862fc71577a95f3cafd027da6"


def test_load_ontology_matches_each_sort_name_once(monkeypatch):
    # 2,000 sort names, half declared by sort lines and half first met in an
    # edge, each mentioned again by edges and sims: the name pattern runs
    # once per name, at its first mention.
    rng = random.Random(6)
    names = [f"s{i}" for i in range(2000)]
    lines = ["sort " + " ".join(names[k : k + 16]) for k in range(0, 1000, 16)]
    lines += [f"edge {names[i]} {names[rng.randrange(i)]} 0.5" for i in range(1, 2000)]
    lines += [f"sim {names[i]} {names[i + 1]} 0.3" for i in range(0, 1999, 5)]
    counting = mock.Mock(wraps=lattice._SORT_RE)
    monkeypatch.setattr(lattice, "_SORT_RE", counting)
    graph, _ = load_ontology("\n".join(lines))
    assert len(graph.sorts) == 2002
    assert counting.match.call_count == 2000


@settings(max_examples=60, deadline=None)
@given(strategies.dags(max_sorts=8))
def test_format_parse_roundtrip_random(dag):
    sorts, edges = dag
    graph = SortGraph(sorts, ["f0"], edges)
    again, _ = load_ontology(format_ontology(graph))
    assert sorted(again.edges) == sorted(graph.edges)
    assert list(again.sorts) == list(graph.sorts)
    assert list(again.features) == ["f0"]


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
def test_format_parse_roundtrip_keeps_every_degree(edge, sim):
    # Every degree reads back as the same float; one that %g already writes
    # exactly keeps those bytes.
    graph = SortGraph(["a", "b"], [], [("a", "b", edge)])
    text = format_ontology(graph, build_similarity([("a", "b", sim)]))
    again, sim_again = load_ontology(text)
    assert again.edges == [("a", "b", edge)]
    assert sim_again == {("a", "b"): sim, ("b", "a"): sim}
    for d in (edge, sim):
        if float(f"{d:g}") == d:
            assert f" {d:g}\n" in text
    assert f'[label="{format_ontology(graph).split()[-1]}"]' in graph.to_dot()


# -- input boundaries ------------------------------------------------------------------


@pytest.mark.parametrize(
    "sorts, features, edges, error, message",
    [
        (["Bad"], [], [], OntologyError, "bad sort name: 'Bad'"),
        (["a"], ["Bad"], [], OntologyError, "bad feature name: 'Bad'"),
        ([3], [], [], OntologyError, "bad sort name: 3"),
        (["a"], [None], [], OntologyError, "bad feature name: None"),
        (["a"], ["f", "f"], [], DuplicateName, "feature declared twice: f"),
        (["a"], [], [("zork", "a", 1.0)], UnknownSort, "unknown sort: zork"),
        (["a"], [], [("a", "zork", 1.0)], UnknownSort, "unknown sort: zork"),
    ],
    ids=[
        "bad-sort-name",
        "bad-feature-name",
        "non-string-sort",
        "non-string-feature",
        "duplicate-feature",
        "unknown-sub",
        "unknown-sup",
    ],
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
        ("sort a b\nsim a b ١", "line 2: bad degree: '١'"),
        ("sort a b\nsim a b 1_0e-1", "line 2: bad degree: '1_0e-1'"),
        ("sort a b\nsim a b nan", "line 2: sim degree must lie in [0, 1]: nan"),
        (
            "sort a b\nsim a b 0.1234567\nsim b a 0.1234568",
            "line 3: conflicting similarity degrees for (b, a): 0.1234567 vs 0.1234568",
        ),
    ],
    ids=[
        "bad-degree", "above-one", "below-zero", "arabic-digit", "underscore", "nan",
        "conflict-in-seventh-digit",
    ],
)
def test_load_ontology_rejects_bad_sim_degrees(text, message):
    with pytest.raises(OntologyError) as exc:
        load_ontology(text)
    assert (type(exc.value), str(exc.value)) == (OntologyError, message)

"""Graded term subsumption: witnesses, degrees, and order laws."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings

import oracles
import strategies
from fuzzyosf import (
    NotNormalTerm,
    SignatureMismatch,
    SortGraph,
    SortLattice,
    Term,
    crisp_subsumes,
    fuzzy_subsumption_degree,
    graph_equivalent,
    parse_term,
    subsumption_witness,
    term_to_graph,
)


# -- frozen running-example degrees --------------------------------------------------


def test_t2_below_t1_at_half(movies, movie_terms):
    t1, t2, _ = movie_terms
    assert fuzzy_subsumption_degree(t2, t1, movies) == 0.5
    assert crisp_subsumes(t2, t1, movies)


def test_t1_not_below_t2(movies, movie_terms):
    t1, t2, _ = movie_terms
    assert fuzzy_subsumption_degree(t1, t2, movies) == 0.0
    assert not crisp_subsumes(t1, t2, movies)
    assert subsumption_witness(t1, t2, movies) is None or (
        subsumption_witness(t1, t2, movies).degree == 0.0
    )


def test_t2_below_t3_crisply(movies, movie_terms):
    t1, t2, t3 = movie_terms
    assert fuzzy_subsumption_degree(t2, t3, movies) == 1.0
    # horror is not a thriller, so t3 does not specialize t1 at all
    assert fuzzy_subsumption_degree(t3, t1, movies) == 0.0


def test_witness_structure(movies, movie_terms):
    t1, t2, _ = movie_terms
    witness = subsumption_witness(t2, t1, movies)
    assert witness.degree == 0.5
    assert witness.mapping == {"X1": "X2", "Y1": "Y2", "Z1": "Z2"}
    assert witness.per_tag["Z1"] == ("slasher", "thriller", 0.5)


def test_everything_is_below_a_plain_top(movies, movie_terms):
    top = Term("T", "top", ())
    for t in movie_terms:
        assert fuzzy_subsumption_degree(t, top, movies) == 1.0


def test_missing_feature_completes_with_top(chain_lattice):
    g = chain_lattice.graph
    specific = parse_term("X: q", g)
    general = parse_term("A: s(f -> B: top)", g)
    witness = subsumption_witness(specific, general, chain_lattice)
    assert witness is not None
    assert witness.degree == 0.9
    assert witness.mapping["B"].startswith("_T")


def test_completion_cannot_reach_a_sorted_slot(chain_lattice):
    g = chain_lattice.graph
    specific = parse_term("X: q", g)
    general = parse_term("A: s(f -> B: u)", g)
    assert fuzzy_subsumption_degree(specific, general, chain_lattice) == 0.0


def test_coreference_conflict_has_no_witness(chain_lattice):
    g = chain_lattice.graph
    split = parse_term("X: s(f -> Y: u, g -> Z: u)", g)
    shared = parse_term("A: s(f -> B: top, g -> B)", g)
    assert subsumption_witness(split, shared, chain_lattice) is None
    assert fuzzy_subsumption_degree(split, shared, chain_lattice) == 0.0


def test_cyclic_terms_subsume(chain_lattice, cyclic_pair):
    psi1, psi2 = cyclic_pair
    meet = parse_term("Z0: q(f -> Z1: s(g -> Z0, h -> Z2: r))", chain_lattice.graph)
    assert fuzzy_subsumption_degree(meet, psi1, chain_lattice) == 0.4
    assert fuzzy_subsumption_degree(meet, psi2, chain_lattice) == 0.5
    renamed = parse_term("A: u(f -> B: v(g -> A, h -> C: r))", chain_lattice.graph)
    assert fuzzy_subsumption_degree(renamed, psi1, chain_lattice) == 1.0
    assert fuzzy_subsumption_degree(psi1, renamed, chain_lattice) == 1.0


def test_witness_order_when_a_back_reference_comes_first(chain_k_lattice, backref_first):
    other = parse_term("A: s(f -> B, g -> C: t(h -> B: u(k -> D)))", chain_k_lattice.graph)
    down = subsumption_witness(backref_first, other, chain_k_lattice)
    assert list(down.mapping.items()) == [("A", "X"), ("B", "Y"), ("C", "Z"), ("D", "W")]
    assert list(down.per_tag.items()) == [
        ("A", ("s", "s", 1.0)),
        ("B", ("u", "u", 1.0)),
        ("C", ("t", "t", 1.0)),
        ("D", ("v", "top", 1.0)),
    ]
    assert down.degree == 1.0
    up = subsumption_witness(other, backref_first, chain_k_lattice)
    assert list(up.mapping.items()) == [("X", "A"), ("Y", "B"), ("Z", "C"), ("W", "D")]
    assert list(up.per_tag.items()) == [
        ("X", ("s", "s", 1.0)),
        ("Y", ("u", "u", 1.0)),
        ("Z", ("t", "t", 1.0)),
        ("W", ("top", "v", 0.0)),
    ]
    assert up.degree == 0.0


def test_witness_reuses_completions_and_skips_taken_fresh_names(chain_k_lattice):
    # B and D land on the same node Y, so they share its completion under h;
    # t0 already holds the tag _T0, so the first fresh name is _T1.
    g = chain_k_lattice.graph
    specific = parse_term("X: p(f -> Y: r(g -> Z: u), g -> Y, k -> _T0: q)", g)
    general = parse_term(
        "A: s(k -> G: s, g -> D: top(h -> E, k -> F: top), f -> B: u(h -> C: top, g -> H: u))", g
    )
    w = subsumption_witness(specific, general, chain_k_lattice)
    assert list(w.mapping.items()) == [
        ("A", "X"), ("G", "_T0"), ("D", "Y"), ("B", "Y"),
        ("C", "_T1"), ("H", "Z"), ("E", "_T1"), ("F", "_T2"),
    ]
    assert list(w.per_tag.items()) == [
        ("A", ("p", "s", 1.0)),
        ("G", ("q", "s", 0.9)),
        ("D", ("r", "top", 1.0)),
        ("B", ("r", "u", 1.0)),
        ("C", ("top", "top", 1.0)),
        ("H", ("u", "u", 1.0)),
        ("E", ("top", "top", 1.0)),
        ("F", ("top", "top", 1.0)),
    ]
    assert w.degree == 0.9


def test_witness_time_is_linear_in_shared_features():
    # One node with 16,000 features in both terms, listed in opposite
    # orders; scanning the specific node's arguments per feature takes seconds.
    feats = [f"f{i}" for i in range(16_000)]
    lattice = SortLattice(SortGraph(["s"], feats, []))
    specific = Term("X", "s", tuple((f, Term(f"A{i}", "s", ())) for i, f in enumerate(feats)))
    general = Term("Y", "s", tuple((f, Term(f"B{i}", "top", ())) for i, f in enumerate(reversed(feats))))
    start = time.perf_counter()
    w = subsumption_witness(specific, general, lattice)
    assert time.perf_counter() - start < 0.5
    assert w.degree == 1.0
    assert w.mapping["B0"] == f"A{len(feats) - 1}"


def test_non_normal_input_rejected(chain_lattice):
    g = chain_lattice.graph
    bad = parse_term("X: s(f -> Y: u, f -> Z: u)", g)
    ok = parse_term("X: s", g)
    with pytest.raises(NotNormalTerm):
        fuzzy_subsumption_degree(bad, ok, chain_lattice)


def test_foreign_signature_rejected(chain_lattice):
    other = SortGraph(["zork"], ["blip"], [])
    alien = parse_term("X: zork(blip -> Y: zork)", other)
    local = parse_term("X: s", chain_lattice.graph)
    with pytest.raises(SignatureMismatch):
        fuzzy_subsumption_degree(alien, local, chain_lattice)


# -- order laws and the crisp/fuzzy bridge -------------------------------------------


@settings(max_examples=200, deadline=None)
@given(strategies.lattice_and_terms(count=1))
def test_reflexivity(bundle):
    lattice, (t,) = bundle
    assert fuzzy_subsumption_degree(t, t, lattice) == 1.0


@settings(max_examples=200, deadline=None)
@given(strategies.lattice_and_terms(count=3))
def test_transitivity_min_law(bundle):
    lattice, (a, b, c) = bundle
    ab = fuzzy_subsumption_degree(a, b, lattice)
    bc = fuzzy_subsumption_degree(b, c, lattice)
    ac = fuzzy_subsumption_degree(a, c, lattice)
    assert ac >= min(ab, bc)


@settings(max_examples=200, deadline=None)
@given(strategies.lattice_and_terms(count=2))
def test_antisymmetry_up_to_equivalence(bundle):
    lattice, (a, b) = bundle
    if (
        fuzzy_subsumption_degree(a, b, lattice) > 0.0
        and fuzzy_subsumption_degree(b, a, lattice) > 0.0
    ):
        assert graph_equivalent(term_to_graph(a), term_to_graph(b))


@settings(max_examples=200, deadline=None)
@given(strategies.lattice_and_terms(count=2))
def test_witness_lists_each_general_tag_once_in_mapping_order(bundle):
    lattice, (a, b) = bundle
    for specific, general in ((a, b), (b, a), (a, a)):
        w = subsumption_witness(specific, general, lattice)
        if w is None:
            continue
        assert list(w.per_tag) == list(w.mapping)
        tags, stack = set(), [general]
        while stack:
            node = stack.pop()
            tags.add(node.tag)
            stack += [child for _, child in node.args]
        assert sorted(w.mapping) == sorted(tags)


@settings(max_examples=200, deadline=None)
@given(strategies.lattice_and_terms(count=2))
def test_crisp_iff_fuzzy_positive_vs_oracle(bundle):
    lattice, (a, b) = bundle
    sorts = [s for s in lattice.graph.sorts]
    edges = list(lattice.graph.edges)
    want = oracles.crisp_subsumes(a, b, sorts, edges)
    assert crisp_subsumes(a, b, lattice) == want
    assert (fuzzy_subsumption_degree(a, b, lattice) > 0.0) == want

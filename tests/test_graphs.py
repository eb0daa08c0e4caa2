"""Rooted feature graphs: bijections with terms, canonical forms, equivalence."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

import strategies
from fuzzyosf import (
    OsfGraph,
    canonical_form,
    format_term,
    graph_equivalent,
    graph_isomorphic,
    graph_to_dot,
    graph_to_term,
    parse_term,
    term_to_graph,
)


@pytest.fixture(scope="module")
def sig(chain_lattice):
    return chain_lattice.graph


# -- term <-> graph -----------------------------------------------------------------


def test_term_to_graph_basics(sig):
    g = term_to_graph(parse_term("X: s(f -> Y: u(g -> X))", sig))
    assert g.root == "X"
    assert g.sorts == {"X": "s", "Y": "u"}
    assert g.out == {"X": (("f", "Y"),), "Y": (("g", "X"),)}


def test_term_to_graph_keys_depth_first_when_a_back_reference_comes_first(backref_first):
    g = term_to_graph(backref_first)
    assert list(g.sorts) == ["X", "Y", "W", "Z"]
    assert g.sorts == {"X": "s", "Y": "u", "W": "v", "Z": "t"}
    assert list(g.out) == ["X", "Y", "W", "Z"]
    assert g.out == {
        "X": (("f", "Y"), ("g", "Z")),
        "Y": (("k", "W"),),
        "W": (),
        "Z": (("h", "Y"),),
    }
    assert graph_to_dot(g) == "\n".join(
        [
            "digraph term {",
            "  rankdir=LR;",
            '  "X" [label="X: s", peripheries=2];',
            '  "Y" [label="Y: u"];',
            '  "W" [label="W: v"];',
            '  "Z" [label="Z: t"];',
            '  "X" -> "Y" [label="f"];',
            '  "X" -> "Z" [label="g"];',
            '  "Y" -> "W" [label="k"];',
            '  "Z" -> "Y" [label="h"];',
            "}",
        ]
    )


def test_graph_roundtrip_is_identity(sig):
    text = "X: s(f -> Y: u(g -> X), h -> Z: v)"
    t = parse_term(text, sig)
    assert format_term(graph_to_term(term_to_graph(t))) == text


@settings(max_examples=200, deadline=None)
@given(strategies.lattice_and_terms(count=1))
def test_graph_roundtrip_random(bundle):
    lattice, (t,) = bundle
    again = graph_to_term(term_to_graph(t))
    assert format_term(again) == format_term(t)


# -- canonical forms and equivalence -------------------------------------------------


def test_canonical_form_strips_top_leaves(sig):
    g = term_to_graph(parse_term("X: s(f -> Y: u, g -> Z: top)", sig))
    c = canonical_form(g)
    assert "Z" not in c.sorts
    assert c.out["X"] == (("f", "Y"),)


def test_canonical_form_keeps_shared_top_leaves(sig):
    g = term_to_graph(parse_term("X: s(f -> Y: top, g -> Y)", sig))
    c = canonical_form(g)
    assert "Y" in c.sorts


def test_canonical_form_keeps_the_root(sig):
    g = term_to_graph(parse_term("X: top", sig))
    assert "X" in canonical_form(g).sorts


def test_equivalence_modulo_trivial_leaf(sig):
    psi0 = parse_term("X0: s(f -> Y0: u)", sig)
    psi1 = parse_term("X1: s(f -> Y1: u, g -> Z1: top)", sig)
    assert graph_equivalent(term_to_graph(psi0), term_to_graph(psi1))
    assert graph_equivalent(term_to_graph(psi1), term_to_graph(psi0))


def test_isomorphism_is_tag_blind(sig):
    a = term_to_graph(parse_term("X: s(f -> Y: u(g -> X))", sig))
    b = term_to_graph(parse_term("A: s(f -> B: u(g -> A))", sig))
    assert graph_isomorphic(a, b)


def test_isomorphism_respects_coreference(sig):
    shared = term_to_graph(parse_term("X: s(f -> Y: u, g -> Y)", sig))
    split = term_to_graph(parse_term("A: s(f -> B: u, g -> C: u)", sig))
    assert not graph_isomorphic(shared, split)
    assert not graph_equivalent(shared, split)


def test_different_sorts_are_not_isomorphic(sig):
    a = term_to_graph(parse_term("X: s", sig))
    b = term_to_graph(parse_term("X: u", sig))
    assert not graph_isomorphic(a, b)


@settings(max_examples=150, deadline=None)
@given(strategies.lattice_and_terms(count=1))
def test_equivalence_is_reflexive(bundle):
    lattice, (t,) = bundle
    g = term_to_graph(t)
    assert graph_equivalent(g, g)


# -- dot output ----------------------------------------------------------------------


def test_dot_output_mentions_every_node(sig):
    g = term_to_graph(parse_term("X: s(f -> Y: u)", sig))
    dot = graph_to_dot(g)
    assert dot.startswith("digraph")
    assert '"X"' in dot and '"Y"' in dot
    assert "peripheries=2" in dot

"""Rooted feature graphs: bijections with terms, canonical forms, equivalence."""

from __future__ import annotations

import time

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


def test_canonical_form_frozen_where_peel_order_could_matter():
    # A top leaf under a top parent (A, B; P, L1, L2) peels away; a shared top
    # leaf (S), a top cycle (C1, C2) and a top self-loop (Q) stay, and the
    # cycle's own top leaf (L) goes.  Order of nodes and edges is kept.
    g = OsfGraph(
        root="R",
        sorts={"R": "s", "A": "top", "B": "top", "S": "top", "Y": "u", "C1": "top",
               "C2": "top", "L": "top", "P": "top", "L1": "top", "L2": "top", "Q": "top"},
        out={
            "R": (("a", "A"), ("c", "S"), ("d", "Y"), ("g", "C1"), ("k", "P"), ("l", "Q")),
            "A": (("b", "B"),),
            "Y": (("e", "S"),),
            "C1": (("h", "C2"),),
            "C2": (("i", "C1"), ("j", "L")),
            "P": (("m", "L1"), ("n", "L2")),
            "Q": (("q", "Q"),),
        },
    )
    c = canonical_form(g)
    assert list(c.sorts.items()) == [
        ("R", "s"), ("S", "top"), ("Y", "u"), ("C1", "top"), ("C2", "top"), ("Q", "top"),
    ]
    assert list(c.out.items()) == [
        ("R", (("c", "S"), ("d", "Y"), ("g", "C1"), ("l", "Q"))),
        ("Y", (("e", "S"),)),
        ("C1", (("h", "C2"),)),
        ("C2", (("i", "C1"),)),
        ("Q", (("q", "Q"),)),
    ]
    assert len(g.sorts) == 12 and g.out["C2"] == (("i", "C1"), ("j", "L"))


def test_canonical_form_time_is_linear_in_a_top_chain():
    # 4,000 top nodes in a chain peel from the far end, one per round; a
    # fixpoint that recounts every in-degree each round takes seconds here.
    names = [f"X{i}" for i in range(4_000)]
    g = OsfGraph(
        root=names[0],
        sorts=dict.fromkeys(names, "top"),
        out={a: (("f", b),) for a, b in zip(names, names[1:])},
    )
    start = time.perf_counter()
    c = canonical_form(g)
    assert time.perf_counter() - start < 0.5
    assert c == OsfGraph(root="X0", sorts={"X0": "top"}, out={"X0": ()})


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


def test_different_feature_sets_are_not_isomorphic(sig):
    a = term_to_graph(parse_term("X: s(f -> Y: u)", sig))
    b = term_to_graph(parse_term("X: s(g -> Y: u)", sig))
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

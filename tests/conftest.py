"""Shared fixtures: the two standing ontologies, terms, and a sample model."""

from __future__ import annotations

import pytest

from fuzzyosf import SortGraph, SortLattice, parse_term
from fuzzyosf.samples import movie_interpretation, movie_lattice

CHAIN_SORTS = ["p", "q", "r", "s", "t", "u", "v"]
CHAIN_FEATURES = ["f", "g", "h"]
CHAIN_EDGES = [
    ("p", "r", 0.8),
    ("p", "s", 1.0),
    ("q", "s", 0.9),
    ("q", "t", 0.6),
    ("r", "u", 1.0),
    ("s", "u", 0.7),
    ("s", "v", 0.4),
    ("t", "v", 0.5),
]


@pytest.fixture(scope="session")
def chain_lattice() -> SortLattice:
    graph = SortGraph(CHAIN_SORTS, CHAIN_FEATURES, CHAIN_EDGES)
    return SortLattice(graph).validate()


@pytest.fixture(scope="session")
def chain_k_lattice() -> SortLattice:
    """The chain ontology with a fourth feature, ``k``."""
    graph = SortGraph(CHAIN_SORTS, CHAIN_FEATURES + ["k"], CHAIN_EDGES)
    return SortLattice(graph).validate()


@pytest.fixture(scope="session")
def backref_first(chain_k_lattice):
    """A normal term whose bare ``Y`` comes before Y's structured occurrence:
    the preorder walk meets its tags as X Y Z W, depth-first keying as X Y W Z."""
    return parse_term("X: s(f -> Y, g -> Z: t(h -> Y: u(k -> W: v)))", chain_k_lattice.graph)


@pytest.fixture(scope="session")
def movies() -> SortLattice:
    return movie_lattice()


@pytest.fixture(scope="session")
def movie_terms(movies):
    """The three running-example terms, parsed once."""
    g = movies.graph
    t1 = parse_term("X1: movie(directed_by -> Y1: person, genre -> Z1: thriller)", g)
    t2 = parse_term(
        "X2: movie(title -> W2: string, genre -> Z2: slasher, directed_by -> Y2: director)",
        g,
    )
    t3 = parse_term(
        "X3: movie(directed_by -> Y3: director, title -> W3: string, genre -> Z3: horror)",
        g,
    )
    return t1, t2, t3


@pytest.fixture(scope="session")
def cyclic_pair(chain_lattice):
    g = chain_lattice.graph
    psi1 = parse_term("Y0: u(f -> Y1: v(g -> Y0, h -> Y2: r))", g)
    psi2 = parse_term("X0: v(f -> X1: u(g -> X2: t))", g)
    return psi1, psi2


@pytest.fixture(scope="session")
def movie_model():
    return movie_interpretation()


@pytest.fixture()
def tmp_ontology(tmp_path):
    """Write an ontology file under tmp and hand back its path."""

    def write(text: str, name: str = "onto.txt") -> str:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write

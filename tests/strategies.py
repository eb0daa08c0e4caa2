"""Hypothesis strategies shared by the tests.

Lattices, normal terms and clauses come from the generators the ``theorems``
harness uses (``fuzzyosf.semantics``), so the tests and the harness draw
from one distribution.  ``random_dag`` is the one generator kept here: its
DAGs need not be lattices.  The ``diamond_and_*`` strategies add a diamond to
a harness lattice, so that two incomparable sorts always meet above ``bot``.
In a harness draw that is rare, so a solver whose incomparable meets are all
``bot`` passes most runs of a test that draws only from the harness.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from fuzzyosf import BOT, TOP, Clause, SortConstraint, SortGraph, SortLattice, Term
from fuzzyosf.semantics import random_clause, random_lattice, random_normal_term

DEGREES = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]


def random_dag(
    rng: random.Random, max_sorts: int = 12, edge_prob: float = 0.3
) -> tuple[list[str], list[tuple[str, str, float]]]:
    """Random weighted DAG on s0..sN: edges only point from lower to higher index."""
    n = rng.randint(1, max_sorts)
    names = [f"s{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.append((names[i], names[j], rng.choice(DEGREES)))
    return names, edges


@st.composite
def dags(draw, max_sorts: int = 10):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_dag(random.Random(seed), max_sorts=max_sorts)


@st.composite
def lattices(draw, max_sorts: int = 8):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_lattice(random.Random(seed), max_sorts, 3)


@st.composite
def lattice_and_terms(draw, count: int = 2, max_tags: int = 5):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    lattice = random_lattice(rng, 6, 3)
    terms = tuple(random_normal_term(rng, lattice, max_tags) for _ in range(count))
    return lattice, terms


@st.composite
def lattice_and_clause(draw, max_tags: int = 8):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    lattice = random_lattice(rng, 6, 3)
    return lattice, random_clause(rng, lattice, max_tags)


def with_diamond(rng: random.Random, lattice: SortLattice) -> SortLattice:
    """``lattice`` plus the diamond ``dm < dl, dr < dj``: ``dl`` and ``dr``
    are incomparable and meet at ``dm``, above ``bot``."""
    graph = lattice.graph
    diamond = [("dm", "dl"), ("dm", "dr"), ("dl", "dj"), ("dr", "dj")]
    sorts = [s for s in graph.sorts if s not in (BOT, TOP)] + ["dm", "dl", "dr", "dj"]
    edges = graph.edges + [(sub, sup, rng.choice(DEGREES)) for sub, sup in diamond]
    return SortLattice(SortGraph(sorts, list(graph.features), edges)).validate()


@st.composite
def diamond_and_terms(draw, max_tags: int = 5):
    """Two harness terms over a lattice with a diamond, rooted at ``dl`` and
    ``dr``: their unifier's root is sorted ``dm``."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    lattice = with_diamond(rng, random_lattice(rng, 6, 3))
    t1, t2 = (random_normal_term(rng, lattice, max_tags) for _ in range(2))
    return lattice, (Term(t1.tag, "dl", t1.args), Term(t2.tag, "dr", t2.args))


@st.composite
def diamond_and_clause(draw, max_tags: int = 8):
    """A harness clause over a lattice with a diamond, with one of its tags
    also sorted both ``dl`` and ``dr``."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    lattice = with_diamond(rng, random_lattice(rng, 6, 3))
    clause = random_clause(rng, lattice, max_tags)
    tag = rng.choice(clause.tags())
    return lattice, Clause(clause.constraints + (SortConstraint(tag, "dl"), SortConstraint(tag, "dr")))

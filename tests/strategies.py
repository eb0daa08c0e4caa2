"""Hypothesis strategies shared by the tests.

Lattices, normal terms and clauses come from the generators the ``theorems``
harness uses (``fuzzyosf.semantics``), so the tests and the harness draw
from one distribution.  ``random_dag`` is the one generator kept here: its
DAGs need not be lattices.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

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

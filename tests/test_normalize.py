"""Constraint solving: the four rules, solved forms, and confluence."""

from __future__ import annotations

import random

from hypothesis import given, settings

import strategies
from oracles import canonical_normal_form, clause_constraints, normalize_small_step, step_bound
from fuzzyosf import (
    Clause,
    EqualityConstraint,
    FeatureConstraint,
    Inconsistent,
    Normalized,
    SortConstraint,
    format_clause,
    normalize,
    parse_clause,
    parse_term,
    term_to_clause,
)


# -- the four rules, one at a time --------------------------------------------------


def test_sort_intersection(chain_lattice):
    clause = parse_clause("X: u & X: v", chain_lattice.graph)
    nf = normalize(clause, chain_lattice)
    assert isinstance(nf, Normalized)
    assert format_clause(nf.solved) == "X:s"


def test_inconsistent_sort(chain_lattice):
    clause = parse_clause("X: p & X: q", chain_lattice.graph)
    nf = normalize(clause, chain_lattice)
    assert isinstance(nf, Inconsistent)
    assert nf.tag == "X"


def test_explicit_bot_is_inconsistent(chain_lattice):
    clause = Clause((SortConstraint("X", "bot"),))
    assert isinstance(normalize(clause, chain_lattice), Inconsistent)


def test_feature_functionality(chain_lattice):
    clause = parse_clause("X.f = Y & X.f = Z & Y: u & Z: v", chain_lattice.graph)
    nf = normalize(clause, chain_lattice)
    assert isinstance(nf, Normalized)
    assert nf.equalities == (("Y", "Z"),)
    assert "Y:s" in format_clause(nf.solved)


def test_tag_elimination(chain_lattice):
    clause = parse_clause("X = Y & Y: u & Y.f = X", chain_lattice.graph)
    nf = normalize(clause, chain_lattice)
    assert isinstance(nf, Normalized)
    assert nf.equalities == (("X", "Y"),)
    assert format_clause(nf.solved) == "X:u & X.f ≐ X"


def test_frozen_example_solved_plus_equality(chain_lattice):
    nf = normalize(parse_clause("X = Y & X: s", chain_lattice.graph), chain_lattice)
    assert format_clause(nf.solved) == "X:s"
    assert nf.equalities == (("X", "Y"),)


def test_trace_names_each_rule(chain_lattice):
    clause = parse_clause(
        "X: u & X: v & X.f = Y & X.f = Z & Y: r", chain_lattice.graph
    )
    nf = normalize(clause, chain_lattice, trace=True)
    text = "\n".join(nf.trace)
    assert "sort-intersection" in text
    assert "feature-functionality" in text
    assert "tag-elimination" in text


def test_inconsistency_trace_ends_with_the_clash(movies):
    tprime = parse_term(
        "X: movie(directed_by -> Y: director, directed_by -> Y2: string)",
        movies.graph,
    )
    nf = normalize(term_to_clause(tprime), movies, trace=True)
    assert isinstance(nf, Inconsistent)
    assert "inconsistent-sort" in nf.trace[-1]


def test_trace_and_equalities_frozen(chain_lattice):
    # Ranks decide two merges: Y (rank 1 after absorbing Z) takes V, then
    # wins the rank-1 tie against W because Y is the first root of its pair.
    clause = parse_clause(
        "X: u & X.f = Y & X.f = Z & Y: r & Z: s & X: v & W = X & W.g = Y & Z = V & V = W",
        chain_lattice.graph,
    )
    nf = normalize(Clause(clause.constraints, root="X"), chain_lattice, trace=True)
    assert isinstance(nf, Normalized)
    assert nf.trace == [
        "feature-functionality: X.f forces Y = Z",
        "tag-elimination: Z -> Y",
        "sort-intersection: Y : glb(r, s) = p",
        "sort-intersection: X : glb(u, v) = s",
        "tag-elimination: X -> W",
        "tag-elimination: V -> Y",
        "tag-elimination: W -> Y",
        "sort-intersection: Y : glb(p, s) = p",
    ]
    assert nf.equalities == (("Y", "X"), ("Y", "Z"), ("Y", "W"), ("Y", "V"))
    assert format_clause(nf.solved) == "Y:p & Y.f ≐ Y & Y.g ≐ Y"
    assert nf.solved.root == "Y"


def test_inconsistent_trace_and_tag_frozen(chain_lattice):
    # All four rules fire before the collapse.
    clause = parse_clause("X: u & X: v & X.f = Y & X.f = Z & Y: p & Z: q", chain_lattice.graph)
    nf = normalize(clause, chain_lattice, trace=True)
    assert isinstance(nf, Inconsistent)
    assert nf.tag == "Y"
    assert nf.trace == [
        "sort-intersection: X : glb(u, v) = s",
        "feature-functionality: X.f forces Y = Z",
        "tag-elimination: Z -> Y",
        "sort-intersection: Y : glb(p, q) = bot",
        "inconsistent-sort: Y is bot",
    ]


def test_normalize_keeps_the_root(chain_lattice):
    clause = parse_clause("X = Y & Y: s", chain_lattice.graph)
    clause = Clause(clause.constraints, root="Y")
    nf = normalize(clause, chain_lattice)
    assert nf.solved.root == "X"


def test_empty_clause_normalizes_to_empty(chain_lattice):
    nf = normalize(Clause(()), chain_lattice)
    assert isinstance(nf, Normalized)
    assert nf.solved.constraints == ()


# -- solved-form guarantees ----------------------------------------------------------


def _is_solved(clause: Clause) -> bool:
    sorts_seen = set()
    slots_seen = set()
    for c in clause.constraints:
        if isinstance(c, EqualityConstraint):
            return False
        if isinstance(c, SortConstraint):
            if c.tag in sorts_seen or c.sort == "bot":
                return False
            sorts_seen.add(c.tag)
        if isinstance(c, FeatureConstraint):
            if (c.tag, c.feature) in slots_seen:
                return False
            slots_seen.add((c.tag, c.feature))
    return True


@settings(max_examples=200, deadline=None)
@given(strategies.lattice_and_clause(max_tags=6))
def test_normal_forms_are_solved(bundle):
    lattice, clause = bundle
    nf = normalize(clause, lattice)
    if isinstance(nf, Normalized):
        assert _is_solved(nf.solved)
        eliminated = {b for _, b in nf.equalities}
        for c in nf.solved.constraints:
            assert c.tag not in eliminated
            if isinstance(c, FeatureConstraint):
                assert c.target not in eliminated


@settings(max_examples=200, deadline=None)
@given(strategies.lattice_and_clause(max_tags=6))
def test_normalize_is_idempotent(bundle):
    lattice, clause = bundle
    nf = normalize(clause, lattice)
    if isinstance(nf, Normalized):
        again = normalize(nf.solved, lattice)
        assert canonical_normal_form(again) == canonical_normal_form(
            Normalized(nf.solved, (), ())
        )


# -- the randomized small-step engine ------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(strategies.lattice_and_clause(max_tags=6) | strategies.diamond_and_clause(max_tags=6))
def test_small_step_agrees_with_production(bundle):
    lattice, clause = bundle
    expected = canonical_normal_form(normalize(clause, lattice))
    constraints = clause_constraints(clause)
    for seed in range(3):
        nf, steps = normalize_small_step(constraints, lattice.glb, rng=random.Random(seed))
        assert canonical_normal_form(nf) == expected
        assert steps <= step_bound(constraints)


def test_small_step_deterministic_without_rng(chain_lattice):
    clause = parse_clause("X: u & X: v & X.f = Y", chain_lattice.graph)
    constraints = clause_constraints(clause)
    nf1, s1 = normalize_small_step(constraints, chain_lattice.glb)
    nf2, s2 = normalize_small_step(constraints, chain_lattice.glb)
    assert canonical_normal_form(nf1) == canonical_normal_form(nf2)
    assert s1 == s2


def test_step_bound_formula():
    clause = parse_clause("X: top & X.f = Y & X = Y", None)
    assert step_bound(clause_constraints(clause)) == 3 + 2 * 2

"""Constraint solving: the four rules, solved forms, and confluence."""

from __future__ import annotations

import collections
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from oracles import canonical_normal_form, clause_constraints, normalize_small_step, step_bound
from fuzzyosf import (
    Clause,
    EqualityConstraint,
    FeatureConstraint,
    Inconsistent,
    Normalized,
    SortConstraint,
    UnknownFeature,
    UnknownSort,
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
    assert normalize(clause, chain_lattice, trace=True).trace == ["inconsistent-sort: X is bot"]


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


def test_trace_skips_a_forced_pair_already_in_one_class(chain_lattice):
    rows = [
        # X = Z pairs up f's values Y and W, which Y = W has already merged.
        ("X.f = Y & Z.f = W & Y = W & X = Z",
         ["tag-elimination: W -> Y", "tag-elimination: Z -> X"], (("X", "Z"), ("Y", "W"))),
        # The second X.f lands on a class whose f value already shares W's class.
        ("Y = W & X.f = Y & X.f = W", ["tag-elimination: W -> Y"], (("Y", "W"),)),
    ]
    for text, trace, equalities in rows:
        nf = normalize(parse_clause(text, chain_lattice.graph), chain_lattice, trace=True)
        assert nf.trace == trace, text
        assert nf.equalities == equalities, text


def test_normalize_keeps_the_root(chain_lattice):
    clause = parse_clause("X = Y & Y: s", chain_lattice.graph)
    clause = Clause(clause.constraints, root="Y")
    nf = normalize(clause, chain_lattice)
    assert nf.solved.root == "X"


@pytest.mark.parametrize(
    "text, error, name",
    [
        ("X: zork", UnknownSort, "zork"),
        ("X: zork & X: zork", UnknownSort, "zork"),
        ("X: zork & X: movie", UnknownSort, "zork"),
        ("X.zork = Y", UnknownFeature, "zork"),
        ("X: movie & X.blip = Y & X: zork", UnknownFeature, "blip"),
    ],
)
def test_names_outside_the_signature_raise_before_solving(movies, text, error, name):
    # A clause built without a signature reaches normalize unchecked.
    clause = parse_clause(text, None)
    with pytest.raises(error) as info:
        normalize(clause, movies)
    assert info.value.name == name


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


@st.composite
def clauses_that_merge_features(draw):
    """A harness clause, then feature constraints and equalities among three
    of its tags, so that merged classes often both carry a feature."""
    lattice, clause = draw(strategies.lattice_and_clause(max_tags=6) | strategies.diamond_and_clause(max_tags=6))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    tags, features = clause.tags()[:3], lattice.graph.features
    extra = [
        FeatureConstraint(rng.choice(tags), rng.choice(features), rng.choice(tags))
        for _ in range(rng.randint(0, 4))
    ]
    extra += [EqualityConstraint(rng.choice(tags), rng.choice(tags)) for _ in range(rng.randint(1, 3))]
    return lattice, Clause(clause.constraints + tuple(extra))


@settings(max_examples=300, deadline=None)
@given(clauses_that_merge_features())
def test_trace_does_not_change_the_normal_form(bundle):
    lattice, clause = bundle
    plain, traced = normalize(clause, lattice), normalize(clause, lattice, trace=True)
    assert type(plain) is type(traced) and plain.trace == []
    if isinstance(plain, Inconsistent):
        assert plain.tag == traced.tag
    else:
        assert (plain.solved, plain.equalities) == (traced.solved, traced.equalities)


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


def test_a_collapsed_form_is_told_by_its_shape():
    # An Inconsistent that is a named tuple is not read as (solved, equalities).
    Collapsed = collections.namedtuple("Collapsed", "tag trace")
    assert canonical_normal_form(Collapsed("X", [])) == ("inconsistent",)
    assert canonical_normal_form(Inconsistent("X")) == ("inconsistent",)
    assert canonical_normal_form(None) == ("inconsistent",)
    assert canonical_normal_form(((), ())) == ("normalized", frozenset(), frozenset())


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

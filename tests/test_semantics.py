"""Finite graded models: validity, denotation, morphisms, approximation."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from fuzzyosf import (
    CanonicalAlgebra,
    Clause,
    FeatureConstraint,
    Interpretation,
    NotALattice,
    SortConstraint,
    SortGraph,
    SortLattice,
    approximation_degree,
    best_denotation,
    check_theorems,
    denote,
    find_morphism,
    generated_subalgebra,
    load_interpretation,
    morphism_max_beta,
    parse_clause,
    parse_term,
    satisfaction_degree,
    satisfies,
    term_to_clause,
    term_to_graph,
    validate_interpretation,
)
from fuzzyosf import semantics
from fuzzyosf.samples import movie_lattice
from fuzzyosf.semantics import (
    random_interpretation,
    random_lattice,
    random_repaired_interpretation,
)


@pytest.fixture(scope="module")
def query(movies):
    return parse_term("X: thriller(directed_by -> Y: director)", movies.graph)


# -- validity -------------------------------------------------------------------------


def test_movie_model_is_valid(movies, movie_model):
    assert validate_interpretation(movie_model, movies) == []


def test_membership_gap_is_flagged(movies, movie_model):
    table = dict(movie_model.sort_table)
    table[("thriller", "halloween")] = 0.3  # slasher=1 with slasher->thriller at 0.5
    broken = Interpretation(
        movie_model.elements, table, movie_model.features, movie_model.feature_names
    )
    problems = validate_interpretation(broken, movies)
    assert any("thriller" in p and "halloween" in p for p in problems)


def test_membership_gaps_are_listed_in_order(movies, movie_model):
    table = dict(movie_model.sort_table)
    del table[("movie", "halloween")]
    table[("horror", "psycho")] = 0.4
    del table[("person", "carpenter")]
    broken = Interpretation(
        movie_model.elements, table, movie_model.features, movie_model.feature_names
    )
    assert validate_interpretation(broken, movies) == [
        "membership gap: slasher(psycho)=0.7 and degree(slasher,horror)=1 force horror(psycho) >= 0.7, found 0.4",
        "membership gap: thriller(halloween)=0.5 and degree(thriller,movie)=1 force movie(halloween) >= 0.5, found 0",
        "membership gap: horror(halloween)=1 and degree(horror,movie)=1 force movie(halloween) >= 1, found 0",
        "membership gap: slasher(halloween)=1 and degree(slasher,movie)=1 force movie(halloween) >= 1, found 0",
        "membership gap: director(carpenter)=1 and degree(director,person)=1 force person(carpenter) >= 1, found 0",
    ]


def test_membership_and_meet_gaps_are_listed_in_order(movies, movie_model):
    # Gaps of both kinds on several elements, next to a stated top row at 1
    # and a stated zero degree, neither of which is a problem.
    table = dict(movie_model.sort_table)
    table[("top", "psycho")] = 1.0
    table[("string", "hitchcock")] = 0.0
    table[("horror", "psycho")] = 0.4
    table[("string", "psycho")] = 0.2
    del table[("movie", "halloween")]
    del table[("slasher", "halloween")]
    del table[("person", "carpenter")]
    broken = Interpretation(
        movie_model.elements, table, movie_model.features, movie_model.feature_names
    )
    assert validate_interpretation(broken, movies) == [
        "membership gap: slasher(psycho)=0.7 and degree(slasher,horror)=1 force horror(psycho) >= 0.7, found 0.4",
        "membership gap: thriller(halloween)=0.5 and degree(thriller,movie)=1 force movie(halloween) >= 0.5, found 0",
        "membership gap: horror(halloween)=1 and degree(horror,movie)=1 force movie(halloween) >= 1, found 0",
        "membership gap: director(carpenter)=1 and degree(director,person)=1 force person(carpenter) >= 1, found 0",
        "meet gap: movie and string both hold of psycho but glb bot does not",
        "meet gap: thriller and string both hold of psycho but glb bot does not",
        "meet gap: horror and string both hold of psycho but glb bot does not",
        "meet gap: slasher and string both hold of psycho but glb bot does not",
        "meet gap: thriller and horror both hold of halloween but glb slasher does not",
    ]


def test_meet_gap_is_flagged(movies, movie_model):
    table = dict(movie_model.sort_table)
    table.pop(("slasher", "halloween"))  # jointly thriller+horror but no slasher
    broken = Interpretation(
        movie_model.elements, table, movie_model.features, movie_model.feature_names
    )
    problems = validate_interpretation(broken, movies)
    assert any("slasher" in p for p in problems)


def test_partial_feature_is_flagged(movies, movie_model):
    features = {
        k: v for k, v in movie_model.features.items() if k != ("title", "null")
    }
    broken = Interpretation(
        movie_model.elements, dict(movie_model.sort_table), features,
        movie_model.feature_names,
    )
    problems = validate_interpretation(broken, movies)
    assert any("title" in p and "null" in p for p in problems)


def test_degree_out_of_range_is_flagged(movies, movie_model):
    table = dict(movie_model.sort_table)
    table[("movie", "psycho")] = 1.5
    broken = Interpretation(
        movie_model.elements, table, movie_model.features, movie_model.feature_names
    )
    assert validate_interpretation(broken, movies)


def test_validate_interpretation_time_is_linear_in_features(movies):
    # 8,000 features at 5 elements; looking each feature value's feature up
    # in the declared list takes seconds here.
    elements = [f"e{i}" for i in range(5)]
    names = [f"f{i}" for i in range(8_000)]
    features = {(f, e): e for f in names for e in elements}
    features[("g", "e0")] = "e0"
    model = Interpretation(elements, {}, features, names)
    start = time.perf_counter()
    problems = validate_interpretation(model, movies)
    assert time.perf_counter() - start < 0.5
    assert problems == ["feature value given for undeclared feature: g"]


def _lattice_and_model(seed: int, kind: str) -> tuple[SortLattice, Interpretation]:
    """A random lattice and model: valid, or with random degrees restated.

    ``non-lattice`` draws an unvalidated random DAG, so pairs of positive
    sorts may have no unique GLB.  The ``diamond-`` kinds add a diamond, so
    two minimal positive sorts may meet above bot.
    """
    rng = random.Random(seed)
    if kind == "non-lattice":
        names, edges = strategies.random_dag(rng, max_sorts=6, edge_prob=0.5)
        lattice = SortLattice(SortGraph(names, ["f"], edges))
    else:
        lattice = random_lattice(rng, 6, 2)
        if kind.startswith("diamond-"):
            lattice = strategies.with_diamond(rng, lattice)
    make = rng.choice([random_interpretation, random_repaired_interpretation])
    model = make(rng, lattice, 4)
    if kind.endswith("valid"):
        return lattice, model
    table = dict(model.sort_table)
    plain = [s for s in lattice.graph.sorts if s not in ("top", "bot")]
    for _ in range(rng.randint(1, 6)):
        e = rng.choice(model.elements)
        choice = rng.random()
        if choice < 0.1:
            table[("top", e)] = 1.0
        elif choice < 0.2:
            table[("bot", e)] = 0.0
        elif plain:
            key = (rng.choice(plain), e)
            if choice < 0.4:
                table.pop(key, None)
            else:
                table[key] = rng.choice([0.0, *semantics.DEGREE_PALETTE])
    return lattice, Interpretation(model.elements, table, model.features, model.feature_names)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["valid", "broken", "diamond-valid", "diamond-broken", "non-lattice"]),
)
def test_validation_matches_a_dense_scan(seed, kind):
    lattice, model = _lattice_and_model(seed, kind)
    problems = validate_interpretation(model, lattice)
    assert problems == oracles.lattice_problems(
        model, lattice.graph.sorts, lattice.graph.edges
    )
    if kind.endswith("valid"):
        assert problems == []


def test_dense_scan_differential_reaches_every_message():
    kinds = set()
    for seed in range(300):
        for kind in ("broken", "diamond-broken", "non-lattice"):
            lattice, model = _lattice_and_model(seed, kind)
            for p in validate_interpretation(model, lattice):
                kinds.add(p.split(":", 1)[0].split(" (")[0])
    assert kinds == {
        "membership gap",
        "meet gap",
        "no unique greatest lower bound for",
    }


def test_validate_interpretation_time_follows_the_stated_degrees():
    # An 8,000-sort binary tree and 1,000 elements, each holding a leaf and
    # every sort above it (13,000 stated degrees, a valid model): a scan of
    # every sort at every element takes seconds.
    names = [f"n{i}" for i in range(8_000)]
    edges = [(names[i], names[(i - 1) // 2], 1.0) for i in range(1, len(names))]
    lattice = SortLattice(SortGraph(names, [], edges))
    table = {}
    for k in range(1_000):
        i = 7_000 + k
        while True:
            table[(names[i], f"e{k}")] = 1.0
            if i == 0:
                break
            i = (i - 1) // 2
    model = Interpretation([f"e{k}" for k in range(1_000)], table, {}, [])
    start = time.perf_counter()
    problems = validate_interpretation(model, lattice)
    assert time.perf_counter() - start < 1.5
    assert problems == []


class _RecordingLattice(SortLattice):
    """Records every glb call made through the lattice object."""

    def glb(self, s, t):
        self.calls.append((s, t))
        return super().glb(s, t)


def _recording(lattice: SortLattice, validated: bool = True) -> _RecordingLattice:
    rec = _RecordingLattice(lattice.graph)
    if validated:
        rec.validate()
    rec.calls = []
    return rec


def test_a_valid_model_is_certified_without_rows_or_meets(movies, movie_model):
    # Every element has one least positive sort, so there is no pair of
    # minimal positive sorts to meet, and the declared edges stand in for
    # the closure rows.
    lattice = _recording(movies)
    assert validate_interpretation(movie_model, lattice) == []
    assert (lattice._rows, lattice.calls) == ({}, [])


def test_an_unvalidated_lattice_gets_the_full_scan(movies, movie_model):
    lattice = _recording(movies, validated=False)
    assert validate_interpretation(movie_model, lattice) == []
    assert lattice._rows
    assert ("thriller", "horror") in lattice.calls


@pytest.mark.parametrize(
    "drop,gap",
    [
        (("movie", "halloween"), "membership gap: thriller(halloween)=0.5"),
        (("slasher", "halloween"), "meet gap: thriller and horror both hold of halloween"),
    ],
)
def test_a_failed_certificate_falls_back_to_the_full_scan(movies, movie_model, drop, gap):
    # Dropping movie breaks only declared edges into it; dropping slasher
    # leaves thriller and horror both minimal, meeting at slasher.
    table = dict(movie_model.sort_table)
    del table[drop]
    broken = Interpretation(
        movie_model.elements, table, movie_model.features, movie_model.feature_names
    )
    lattice = _recording(movies)
    problems = validate_interpretation(broken, lattice)
    assert problems == validate_interpretation(broken, _recording(movies, validated=False))
    assert any(p.startswith(gap) for p in problems)
    assert lattice._rows
    assert ("thriller", "horror") in lattice.calls


def test_the_certificate_accepts_exactly_the_valid_models():
    # On a validated lattice the full scan runs (and builds rows) exactly
    # when the model has a gap; the diamonds give minimal sorts that meet
    # above bot.
    runs = {True: 0, False: 0}
    for seed in range(200):
        for kind in ("valid", "broken", "diamond-valid", "diamond-broken"):
            lattice, model = _lattice_and_model(seed, kind)
            fresh = SortLattice(lattice.graph).validate()
            problems = validate_interpretation(model, fresh)
            assert bool(fresh._rows) == bool(problems)
            runs[bool(problems)] += 1
    assert runs[True] > 100 and runs[False] > 100


def test_validate_interpretation_time_on_a_long_chain():
    # A 500-sort chain and 20 elements, each positive on every sort: the
    # pairwise meet scan takes over a second here.
    names = [f"c{i}" for i in range(500)]
    edges = [(names[i], names[i + 1], 0.5) for i in range(499)]
    lattice = SortLattice(SortGraph(names, [], edges)).validate()
    table = {(s, f"e{k}"): 1.0 if s == names[0] else 0.5 for s in names for k in range(20)}
    model = Interpretation([f"e{k}" for k in range(20)], table, {}, [])
    start = time.perf_counter()
    problems = validate_interpretation(model, lattice)
    assert time.perf_counter() - start < 0.1
    assert problems == []


# -- denotation -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "element,expected",
    [
        ("psycho", 1.0),
        ("halloween", 0.5),
        ("hitchcock", 0.0),
        ("carpenter", 0.0),
        ("null", 0.0),
    ],
)
def test_best_denotation_frozen_values(movies, movie_model, query, element, expected):
    assert best_denotation(query, movie_model, element) == expected


def test_denote_with_explicit_assignment(movies, movie_model, query):
    alpha = {"X": "halloween", "Y": "carpenter"}
    assert denote(query, movie_model, alpha) == 0.5
    alpha = {"X": "halloween", "Y": "hitchcock"}
    assert denote(query, movie_model, alpha) == 0.0  # wrong director
    # Checked before the walk, which would stop at X: thriller(hitchcock) is 0.
    with pytest.raises(ValueError, match="^assignment missing tag Y$"):
        denote(query, movie_model, {"X": "hitchcock"})
    with pytest.raises(ValueError, match="^assignment missing tag X$"):
        denote(query, movie_model, {"X": None, "Y": "hitchcock"})


def test_clashing_term_denotes_zero_everywhere(movies, movie_model):
    tprime = parse_term(
        "X: movie(directed_by -> Y: director, directed_by -> Y2: string)",
        movies.graph,
    )
    for e in movie_model.elements:
        assert oracles.best_denotation(tprime, movie_model, e) == 0.0


def test_satisfaction_thresholds(movies, movie_model, query):
    from fuzzyosf import term_to_clause

    clause = term_to_clause(query)
    alpha = {"X": "halloween", "Y": "carpenter"}
    assert satisfaction_degree(clause, movie_model, alpha) == 0.5
    assert satisfies(clause, movie_model, alpha, beta=0.5)
    assert not satisfies(clause, movie_model, alpha, beta=0.6)
    assert satisfies(clause, movie_model, alpha, beta=0.0)


def test_denotation_agrees_with_oracle(movies, movie_model, query):
    for e in movie_model.elements:
        assert best_denotation(query, movie_model, e) == oracles.best_denotation(
            query, movie_model, e
        )


# -- canonical algebra ------------------------------------------------------------------


def test_canonical_algebra_accepts_itself(movies, query):
    canon = CanonicalAlgebra.from_graph(term_to_graph(query), movies)
    assert canon.sort_degree("thriller", "X") == 1.0
    assert canon.sort_degree("movie", "X") == 1.0
    assert canon.sort_degree("slasher", "X") == 0.0
    assert canon.feature_image("directed_by", "X") == "Y"
    assert canon.sort_degree("director", "Y") == 1.0
    # its own shape scores 1 under the identity assignment
    assert best_denotation(query, canon, "X") == 1.0
    # membership is graded: a slasher is a thriller to degree 0.5
    slasher = term_to_graph(parse_term("X: slasher", movies.graph))
    assert CanonicalAlgebra.from_graph(slasher, movies).sort_degree("thriller", "X") == 0.5


def test_canonical_algebra_triviality(movies, query):
    canon = CanonicalAlgebra.from_graph(term_to_graph(query), movies)
    sink = canon.feature_image("genre", "X")
    assert canon.is_trivial(sink)
    assert canon.sort_degree("top", sink) == 1.0
    assert canon.sort_degree("movie", sink) == 0.0
    deeper = canon.feature_image("title", sink)
    assert canon.is_trivial(deeper)
    assert deeper != sink


def test_canonical_algebra_from_a_solved_clause(chain_lattice):
    # Y is sorted before X; Z and W are never sorted, so they default to top.
    clause = Clause(
        (
            FeatureConstraint("X", "f", "Y"),
            SortConstraint("Y", "u"),
            FeatureConstraint("Y", "g", "Z"),
            SortConstraint("X", "s"),
            FeatureConstraint("W", "h", "X"),
        ),
        root="X",
    )
    canon = CanonicalAlgebra.from_clause(clause, chain_lattice)
    assert canon.elements == ["Y", "X", "Z", "W"]
    for tag in ("Z", "W"):
        for sort in chain_lattice.graph.sorts:
            assert canon.sort_degree(sort, tag) == (1.0 if sort == "top" else 0.0)
    assert canon.sort_degree("u", "X") == 0.7
    assert canon.feature_image("g", "Y") == "Z"
    assert canon.feature_image("h", "W") == "X"
    assert canon.is_trivial(canon.feature_image("f", "Z"))


def test_canonical_algebra_from_clause_matches_from_graph(movies, movie_terms):
    graph = movies.graph
    for t in movie_terms:
        by_clause = CanonicalAlgebra.from_clause(term_to_clause(t), movies)
        by_graph = CanonicalAlgebra.from_graph(term_to_graph(t), movies)
        assert set(by_clause.elements) == set(by_graph.elements)
        for element in by_graph.elements:
            for sort in graph.sorts:
                assert by_clause.sort_degree(sort, element) == by_graph.sort_degree(sort, element)
            for feature in graph.features:
                assert by_clause.feature_image(feature, element) == by_graph.feature_image(
                    feature, element
                )


def test_canonical_denotation_time_is_linear_in_features():
    # 16,000 features on the root; scanning the root's edges for every
    # feature image takes seconds here.
    n = 16_000
    lattice = SortLattice(SortGraph(["s"], [f"f{i}" for i in range(n)], []))
    t = parse_term("X: s(" + ", ".join(f"f{i} -> Y{i}: s" for i in range(n)) + ")", lattice.graph)
    canon = CanonicalAlgebra.from_graph(term_to_graph(t), lattice)
    start = time.perf_counter()
    degree = best_denotation(t, canon, "X")
    assert time.perf_counter() - start < 0.5
    assert degree == 1.0
    assert canon.feature_image(f"f{n - 1}", "X") == f"Y{n - 1}"


# -- morphisms ---------------------------------------------------------------------------


def test_morphism_into_the_movie_model(movies, movie_model, query):
    canon = CanonicalAlgebra.from_graph(term_to_graph(query), movies)
    m = find_morphism(canon, movie_model, ("X", "halloween"), movies)
    assert m is not None
    assert m.max_beta == 0.5
    assert m.mapping["X"] == "halloween"
    assert m.mapping["Y"] == "carpenter"
    better = find_morphism(canon, movie_model, ("X", "psycho"), movies)
    assert better is not None and better.max_beta == 1.0


def test_morphism_max_beta_flags_violations(movies, movie_model, query):
    canon = CanonicalAlgebra.from_graph(term_to_graph(query), movies)
    m = find_morphism(canon, movie_model, ("X", "halloween"), movies)
    assert morphism_max_beta(canon, movie_model, m.mapping, movies) == 0.5


def test_no_morphism_when_features_disagree(movies, movie_model, query):
    canon = CanonicalAlgebra.from_graph(term_to_graph(query), movies)
    assert find_morphism(canon, movie_model, ("X", "null"), movies) is None or (
        find_morphism(canon, movie_model, ("X", "null"), movies).max_beta == 0.0
    )


# -- approximation and subalgebras --------------------------------------------------------


def test_approximation_frozen_example(movies):
    g0 = term_to_graph(
        parse_term("X0: thriller(directed_by -> Y0: director)", movies.graph)
    )
    g1 = term_to_graph(
        parse_term(
            "X1: slasher(directed_by -> Y1: director, title -> Z1: string)",
            movies.graph,
        )
    )
    assert approximation_degree(g0, g1, movies) == 0.5
    assert approximation_degree(g1, g0, movies) == 0.0
    assert approximation_degree(g0, g0, movies) == 1.0


def test_generated_subalgebra_contents(movies, movie_model):
    sub = generated_subalgebra(movie_model, ["halloween"])
    assert sub.elements == ["halloween", "carpenter", "halloween_title", "null"]
    assert validate_interpretation(sub, movies) == []
    assert generated_subalgebra(movie_model, ["null"]).elements == ["null"]


def test_generated_subalgebra_time_is_linear_in_the_queue():
    # 100,000 seeds queued at once; taking each from the front of a list
    # shifts the rest and takes seconds here.
    elements = [f"e{i}" for i in range(100_000)]
    model = Interpretation(elements, {}, {("f", e): e for e in elements}, ["f"])
    start = time.perf_counter()
    sub = generated_subalgebra(model, elements[::-1])
    assert time.perf_counter() - start < 1.0
    assert sub.elements == elements


# -- the interpretation file format --------------------------------------------------------


INTERP_TEXT = """\
elem a b
deg s a 0.5
fun f * b
fun f a a
"""


def test_load_interpretation(tmp_ontology):
    graph = movie_lattice().graph
    # a tiny signature-compatible model: reuse movie sorts/features
    text = INTERP_TEXT.replace("s ", "movie ").replace("f ", "directed_by ")
    model = load_interpretation(text, graph)
    assert model.elements == ["a", "b"]
    assert model.sort_degree("movie", "a") == 0.5
    assert model.feature_image("directed_by", "a") == "a"
    assert model.feature_image("directed_by", "b") == "b"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("deg s a 0.5", "line 1"),
        ("elem a\ndeg nosuch a 1", "line 2"),
        ("elem a\ndeg top a 2", "line 2"),
        ("elem a\nfun f a b", "line 2"),
        ("elem a\nblah", "line 2"),
    ],
)
def test_load_interpretation_diagnostics(text, fragment):
    graph = movie_lattice().graph
    with pytest.raises(ValueError) as exc:
        load_interpretation(text, graph)
    assert fragment in str(exc.value)


# -- random-model generators and harness ----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_models_are_valid(seed):
    rng = random.Random(seed)
    lattice = random_lattice(rng, max_sorts=5, max_features=2)
    model = random_interpretation(rng, lattice, max_domain=4)
    assert validate_interpretation(model, lattice) == []
    repaired = random_repaired_interpretation(rng, lattice, max_domain=4)
    assert validate_interpretation(repaired, lattice) == []


@pytest.mark.parametrize(
    "error", [NotALattice("s0", "s1", ["s2", "s3"]), RuntimeError("trial build broke")]
)
def test_random_lattice_skips_only_rejected_trial_edges(monkeypatch, error):
    # Seed 0 builds its forest, then tries one extra edge.
    builds = []

    class FailingTrial(SortLattice):
        def validate(self):
            builds.append(self)
            if len(builds) > 1:
                raise error
            return super().validate()

    monkeypatch.setattr(semantics, "SortLattice", FailingTrial)
    if isinstance(error, NotALattice):
        lattice = random_lattice(random.Random(0), max_sorts=5, max_features=2)
        assert lattice is builds[0]
    else:
        with pytest.raises(RuntimeError, match="trial build broke"):
            random_lattice(random.Random(0), max_sorts=5, max_features=2)
    assert len(builds) == 2


def test_random_models_are_seed_frozen():
    lattice = random_lattice(random.Random(0), max_sorts=4, max_features=2)
    rng = random.Random(0)
    plain = random_interpretation(rng, lattice, max_domain=3)
    repaired = random_repaired_interpretation(rng, lattice, max_domain=3)
    assert list(plain.sort_table.items()) == [
        (("s3", "d0"), 0.2),
        (("s0", "d1"), 0.2),
        (("s1", "d1"), 1.0),
        (("s2", "d1"), 1.0),
    ]
    assert list(plain.features.items()) == [
        (("f0", "d0"), "d1"),
        (("f0", "d1"), "d1"),
        (("f1", "d0"), "d1"),
        (("f1", "d1"), "d1"),
    ]
    assert list(repaired.sort_table.items()) == [
        (("s1", "d0"), 1.0),
        (("s0", "d0"), 0.4),
        (("s0", "d1"), 0.6),
    ]
    assert list(repaired.features.items()) == [
        (("f0", "d0"), "d0"),
        (("f0", "d1"), "d1"),
        (("f1", "d0"), "d0"),
        (("f1", "d1"), "d0"),
    ]
    assert plain.feature_names == repaired.feature_names == ["f0", "f1"]
    assert rng.random() == 0.8988382879679935


def test_theorem_harness_passes_and_reports():
    report = check_theorems(seed=7, max_domain=3, max_sorts=4, rounds=8)
    assert report.passed
    names = [c.name for c in report.checks]
    assert "denotation matches satisfaction threshold" in names
    assert "denotation equals the anchored morphism degree" in names
    summary = report.summary()
    assert "all checks passed" in summary


def test_theorem_harness_is_seed_deterministic():
    a = check_theorems(seed=3, max_domain=3, max_sorts=4, rounds=5)
    b = check_theorems(seed=3, max_domain=3, max_sorts=4, rounds=5)
    assert [(c.name, c.cases) for c in a.checks] == [
        (c.name, c.cases) for c in b.checks
    ]


# -- input boundaries ------------------------------------------------------------------


@pytest.mark.parametrize(
    "elements, table, features, names, problems",
    [
        ([], {}, {}, [], ["domain is empty"]),
        (["a"], {("zork", "a"): 1.0}, {}, [], ["unknown sort in table: zork"]),
        (["a"], {("p", "b"): 1.0}, {}, [], ["degree given for unknown element: b"]),
        (["a"], {("p", "a"): 1.5}, {}, [], ["degree out of range: p(a) = 1.5"]),
        (["a"], {("top", "a"): 0.5}, {}, [], ["top must hold of a at 1, not 0.5"]),
        (["a"], {("bot", "a"): 0.5}, {}, [], ["bot must hold of a at 0, not 0.5"]),
        (["a"], {}, {("f", "a"): "b"}, ["f"], ["feature f maps a outside the domain: b"]),
        (["a"], {}, {("f", "a"): "a"}, [], ["feature value given for undeclared feature: f"]),
        (
            ["a"],
            {},
            {("f", "a"): "a", ("f", "b"): "a"},
            ["f"],
            ["feature f defined at unknown element: b"],
        ),
    ],
    ids=[
        "empty-domain",
        "unknown-sort",
        "unknown-element",
        "degree-out-of-range",
        "top-entry",
        "bot-entry",
        "image-outside-domain",
        "undeclared-feature",
        "feature-at-unknown-element",
    ],
)
def test_validate_interpretation_reports_structural_problems(elements, table, features, names, problems):
    lattice = SortLattice(SortGraph(["p"], ["f"], [])).validate()
    model = Interpretation(elements, table, features, names)
    assert validate_interpretation(model, lattice) == problems


@pytest.mark.parametrize(
    "text, message",
    [
        ("elem", "line 1: expected: elem <name>..."),
        ("elem a\ndeg p a high", "line 2: bad degree: 'high'"),
        ("elem a\ndeg p a 1.5", "line 2: degree must lie in [0, 1]: 1.5"),
        ("elem a\nfun f b a", "line 2: undeclared element: b"),
        ("elem a\nfun f a b", "line 2: undeclared element: b"),
    ],
    ids=["elem-without-names", "bad-degree", "degree-out-of-range", "undeclared-source", "undeclared-image"],
)
def test_load_interpretation_rejects_bad_lines(text, message):
    graph = SortGraph(["p"], ["f"], [])
    with pytest.raises(ValueError) as exc:
        load_interpretation(text, graph)
    assert (type(exc.value), str(exc.value)) == (ValueError, message)

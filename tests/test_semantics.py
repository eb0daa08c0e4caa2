"""Finite graded models: validity, denotation, morphisms, approximation."""

from __future__ import annotations

import hashlib
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
    TOP,
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
from fuzzyosf.samples import movie_interpretation, movie_lattice
from fuzzyosf.semantics import (
    random_interpretation,
    random_lattice,
    random_normal_term,
    random_repaired_interpretation,
)


@pytest.fixture(scope="module")
def query(movies):
    return parse_term("X: thriller(directed_by -> Y: director)", movies.graph)


# -- validity -------------------------------------------------------------------------


def test_movie_model_is_valid(movies, movie_model):
    assert validate_interpretation(movie_model, movies) == []


def test_model_tables_are_read_only(movies):
    # positive_sorts answers from an index built at construction, so an edit
    # to a table afterwards would split it from sort_degree.
    model = movie_interpretation()
    with pytest.raises(TypeError):
        del model.sort_table[("movie", "halloween")]
    with pytest.raises(TypeError):
        model.features[("title", "halloween")] = "null"
    for e in model.elements:
        held = {s: model.sort_degree(s, e) for s in movies.graph.sorts}
        assert model.positive_sorts(e) == {s: d for s, d in held.items() if d > 0.0}


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


@pytest.mark.parametrize("drop", [("movie", "halloween"), ("slasher", "halloween")])
def test_only_the_failing_element_is_scanned(movies, movie_model, drop):
    # Every other element is certified, so each meet asked for and each
    # closure row built belongs to halloween's positive sorts.
    table = dict(movie_model.sort_table)
    del table[drop]
    broken = Interpretation(
        movie_model.elements, table, movie_model.features, movie_model.feature_names
    )
    lattice = _recording(movies)
    assert validate_interpretation(broken, lattice)
    positive = {s for (s, e), d in table.items() if e == "halloween" and d > 0} | {TOP}
    assert lattice.calls and {s for pair in lattice.calls for s in pair} <= positive
    assert lattice._rows and {movies.graph.sorts[u] for u in lattice._rows} <= positive


def _chain_model(n: int, gap: tuple[str, str] | None = None) -> tuple[SortLattice, Interpretation]:
    """An n-sort chain and 20 elements, each positive on every sort except
    at ``gap``, a (sort, element) pair left out of the table."""
    names = [f"c{i}" for i in range(n)]
    edges = [(names[i], names[i + 1], 0.5) for i in range(n - 1)]
    lattice = SortLattice(SortGraph(names, [], edges)).validate()
    table = {(s, f"e{k}"): 1.0 if s == names[0] else 0.5 for s in names for k in range(20)}
    table.pop(gap, None)
    return lattice, Interpretation([f"e{k}" for k in range(20)], table, {}, [])


def test_validate_interpretation_time_on_a_long_chain():
    # 500 sorts: the pairwise meet scan takes over a second here.
    lattice, model = _chain_model(500)
    start = time.perf_counter()
    problems = validate_interpretation(model, lattice)
    assert time.perf_counter() - start < 0.1
    assert problems == []


def test_validate_interpretation_time_on_a_long_chain_with_one_gap():
    # 1,000 sorts and one gap in the middle of one element's chain: scanning
    # every element takes over 7 s here, the failing one alone under 1 s.
    lattice, model = _chain_model(1_000, gap=("c500", "e7"))
    start = time.perf_counter()
    problems = validate_interpretation(model, lattice)
    assert time.perf_counter() - start < 2.5
    assert len(problems) == 500
    assert all(p.startswith("membership gap: c") and "force c500(e7) >= 0.5" in p for p in problems)


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
    m = find_morphism(canon, movie_model, ("X", "halloween"))
    assert m is not None
    assert m.max_beta == 0.5
    assert m.mapping["X"] == "halloween"
    assert m.mapping["Y"] == "carpenter"
    better = find_morphism(canon, movie_model, ("X", "psycho"))
    assert better is not None and better.max_beta == 1.0


def test_morphism_max_beta_flags_violations(movies, movie_model, query):
    canon = CanonicalAlgebra.from_graph(term_to_graph(query), movies)
    m = find_morphism(canon, movie_model, ("X", "halloween"))
    assert morphism_max_beta(canon, movie_model, m.mapping) == 0.5


def test_no_morphism_when_features_disagree(movies, movie_model, query):
    canon = CanonicalAlgebra.from_graph(term_to_graph(query), movies)
    assert find_morphism(canon, movie_model, ("X", "null")) is None or (
        find_morphism(canon, movie_model, ("X", "null")).max_beta == 0.0
    )


def test_morphism_outcomes_are_frozen():
    # A sha256 of find_morphism's outcome (None, or the mapping in repr order
    # and max_beta) between every ordered pair of four models per seed: two
    # random interpretations and the canonical algebras of a random term's
    # graph and clause, anchored at the first three elements of each side.
    digest = hashlib.sha256()
    outcomes = 0
    for seed in range(1500):
        rng = random.Random(seed)
        lattice = random_lattice(rng, 5, 2)
        models = [
            random_interpretation(rng, lattice, 4),
            random_repaired_interpretation(rng, lattice, 4),
            CanonicalAlgebra.from_graph(term_to_graph(random_normal_term(rng, lattice, 4)), lattice),
            CanonicalAlgebra.from_clause(term_to_clause(random_normal_term(rng, lattice, 4)), lattice),
        ]
        for source in models:
            for target in models:
                for d0 in source.elements[:3]:
                    for d1 in target.elements[:3]:
                        m = find_morphism(source, target, (d0, d1))
                        outcome = m and (sorted(m.mapping.items(), key=repr), m.max_beta)
                        digest.update(repr(outcome).encode() + b"\n")
                        outcomes += 1
    assert outcomes == 82_612
    assert digest.hexdigest() == "8637371c965973c5d800a36738b84322f6af2d0a12c7a54ea99596379485a3a8"


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


def test_repaired_models_reach_the_naive_fixpoint():
    # The generator raises degrees in one pass; a naive loop that repeats
    # full passes until nothing changes must give the same table, in the
    # same insertion order.  The scatter phase is replayed on a twin rng.
    raised_late = 0  # seeds where a sort is raised after its own turn
    for seed in range(200):
        lattice = random_lattice(random.Random(seed), max_sorts=7, max_features=1)
        model = random_repaired_interpretation(random.Random(seed), lattice, max_domain=3)
        rng = random.Random(seed)
        elements = [f"d{i}" for i in range(rng.randint(1, 3))]
        plain = [s for s in lattice.graph.sorts if s not in ("top", "bot")]
        table = {}
        for e in elements:
            seed_sort = rng.choice(plain)
            table[(seed_sort, e)] = rng.choice(semantics.DEGREE_PALETTE)
            for s in plain:
                if s != seed_sort and lattice.degree(seed_sort, s) > 0.0 and rng.random() < 0.5:
                    table[(s, e)] = rng.choice(semantics.DEGREE_PALETTE)
        late = False
        changed = True
        while changed:
            changed = False
            for e in elements:
                for i, s0 in enumerate(plain):
                    for j, s1 in enumerate(plain):
                        bound = min(table.get((s0, e), 0.0), lattice.degree(s0, s1))
                        if bound > table.get((s1, e), 0.0):
                            table[(s1, e)] = bound
                            changed = True
                            late = late or j < i
        raised_late += late
        assert list(model.sort_table.items()) == list(table.items()), seed
    assert raised_late > 50, raised_late


def test_theorem_harness_passes_and_reports():
    report = check_theorems(seed=7, max_domain=3, max_sorts=4, rounds=8)
    assert report.passed
    names = [c.name for c in report.checks]
    assert "denotation matches satisfaction threshold" in names
    assert "denotation equals the anchored morphism degree" in names
    summary = report.summary()
    assert "all checks passed" in summary


def test_check_result_counts_every_case_and_keeps_failure_messages():
    c = semantics.CheckResult("c")
    assert [c.case(None), c.case(False), c.case(""), c.case("boom"), c.case(1 > 0 and "bang")] == [
        False, False, False, True, True,
    ]
    assert (c.cases, c.failures, c.passed) == (5, ["boom", "bang"], False)


def test_theorem_harness_is_seed_deterministic():
    a = check_theorems(seed=3, max_domain=3, max_sorts=4, rounds=5)
    b = check_theorems(seed=3, max_domain=3, max_sorts=4, rounds=5)
    assert [(c.name, c.cases) for c in a.checks] == [
        (c.name, c.cases) for c in b.checks
    ]


def test_theorem_harness_outcomes_are_frozen():
    # A sha256 of the harness's summary and of each check's name and case
    # count for seeds 0-4 at default sizes: it pins every rng draw and every
    # case the harness counts.
    digest = hashlib.sha256()
    for seed in range(5):
        report = check_theorems(seed=seed)
        digest.update(report.summary().encode() + b"\n")
        digest.update(repr([(c.name, c.cases) for c in report.checks]).encode() + b"\n\n")
    assert digest.hexdigest() == "49bff56469899930cd94062589193c1b5645b2df14445a83d0cc6e2e13322b62"


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
        ("elem a\ndeg p a ０.５", "line 2: bad degree: '０.５'"),
        ("elem a\ndeg p a ١", "line 2: bad degree: '١'"),
        ("elem a\ndeg p a 1_0e-1", "line 2: bad degree: '1_0e-1'"),
        ("elem a\ndeg p a nan", "line 2: degree must lie in [0, 1]: nan"),
        ("elem a\ndeg p a -0.5", "line 2: degree must lie in [0, 1]: -0.5"),
        ("elem a\ndeg p a 1.5", "line 2: degree must lie in [0, 1]: 1.5"),
        ("elem a\nfun f b a", "line 2: undeclared element: b"),
        ("elem a\nfun f a b", "line 2: undeclared element: b"),
        ("elem a\nfun f a", "line 2: expected: fun <feature> <elem|*> <elem>"),
        ("elem a\ndeg p a", "line 2: expected: deg <sort> <elem> <degree>"),
        ("elem a\ndeg p b 1", "line 2: undeclared element: b"),
        ("elem a b\ndeg p a 1\ndeg p a 0.2", "line 3: conflicting degrees for (p, a): 1 vs 0.2"),
        (
            "elem a\ndeg p a 0.1234567\ndeg p a 0.1234568",
            "line 3: conflicting degrees for (p, a): 0.1234567 vs 0.1234568",
        ),
        ("elem a b\nfun f a a\nfun f a b", "line 3: conflicting images for (f, a): a vs b"),
        ("elem a b\nfun f * a\nfun f b b\nfun f * b", "line 4: conflicting images for (f, *): a vs b"),
    ],
    ids=[
        "elem-without-names",
        "bad-degree",
        "fullwidth-digits",
        "arabic-digit",
        "underscore",
        "nan",
        "below-zero",
        "degree-out-of-range",
        "undeclared-source",
        "undeclared-image",
        "fun-with-three-fields",
        "deg-with-three-fields",
        "degree-at-undeclared-element",
        "conflicting-degree",
        "conflict-in-seventh-digit",
        "conflicting-image",
        "conflicting-default",
    ],
)
def test_load_interpretation_rejects_bad_lines(text, message):
    graph = SortGraph(["p"], ["f"], [])
    with pytest.raises(ValueError) as exc:
        load_interpretation(text, graph)
    assert (type(exc.value), str(exc.value)) == (ValueError, message)


def test_load_interpretation_accepts_an_identical_repeat():
    graph = SortGraph(["p"], ["f"], [])
    text = "elem a b\ndeg p a 1\ndeg p a 1.0\nfun f * a\nfun f * a\nfun f b a\nfun f b a\n"
    model = load_interpretation(text, graph)
    assert model.sort_table == {("p", "a"): 1.0}
    assert model.features == {("f", "a"): "a", ("f", "b"): "a"}

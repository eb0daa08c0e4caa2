"""Term unification: meets, degrees, tag classes, and algebraic laws."""

from __future__ import annotations

import gc
import hashlib
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings

import strategies
from oracles import naive_meet, shapes_match, term_constraints
from fuzzyosf import (
    NotNormalTerm,
    SignatureMismatch,
    SortGraph,
    SortLattice,
    Term,
    format_term,
    fuzzy_subsumption_degree,
    graph_equivalent,
    parse_term,
    subsumption_witness,
    term_to_graph,
    unify,
)
from fuzzyosf.semantics import random_lattice, random_normal_term
from fuzzyosf.terms import term_tags


# -- the cyclic flagship pair ---------------------------------------------------------


def test_cyclic_unification_record(chain_lattice, cyclic_pair):
    psi1, psi2 = cyclic_pair
    result = unify(psi1, psi2, chain_lattice)
    assert not result.is_bottom
    assert result.beta1 == 0.4
    assert result.beta2 == 0.5
    assert result.beta == 0.4
    expected = parse_term(
        "Z0: q(f -> Z1: s(g -> Z0, h -> Z2: r))", chain_lattice.graph
    )
    assert graph_equivalent(term_to_graph(result.unifier), term_to_graph(expected))


def test_cyclic_unifier_prints_exactly(chain_lattice, cyclic_pair):
    psi1, psi2 = cyclic_pair
    result = unify(psi1, psi2, chain_lattice)
    assert format_term(result.unifier) == "_Z0: q(f -> _Z1: s(g -> _Z0, h -> _Z2: r))"


def test_cyclic_tag_classes(chain_lattice, cyclic_pair):
    psi1, psi2 = cyclic_pair
    result = unify(psi1, psi2, chain_lattice)
    classes = {rep: set(members) for rep, members in result.tag_classes.items()}
    assert classes == {
        "_Z0": {"Y0", "X0", "X2"},
        "_Z1": {"Y1", "X1"},
        "_Z2": {"Y2"},
    }


# -- the running movie example ---------------------------------------------------------


def test_movie_unification_reaches_t2(movies, movie_terms):
    t1, t2, t3 = movie_terms
    result = unify(t1, t3, movies)
    assert graph_equivalent(term_to_graph(result.unifier), term_to_graph(t2))
    assert result.beta1 == 0.5
    assert result.beta2 == 1.0
    assert result.beta == 0.5


def test_clashing_sorts_hit_bottom(movies):
    g = movies.graph
    a = parse_term("X: movie(directed_by -> Y: director)", g)
    b = parse_term("A: movie(directed_by -> B: string)", g)
    result = unify(a, b, movies)
    assert result.is_bottom
    assert result.unifier is None
    assert result.beta == 1.0
    assert result.beta1 == 1.0 and result.beta2 == 1.0
    assert result.tag_classes == {}


def test_unify_is_insensitive_to_shared_tags(movies):
    g = movies.graph
    a = parse_term("X: thriller", g)
    b = parse_term("X: horror", g)
    result = unify(a, b, movies)
    assert result.unifier.sort == "slasher"


def test_unify_with_self_is_identity_shape(movies, movie_terms):
    t1, _, _ = movie_terms
    result = unify(t1, t1, movies)
    assert graph_equivalent(term_to_graph(result.unifier), term_to_graph(t1))
    assert result.beta == 1.0


def test_top_is_the_unit(movies, movie_terms):
    t1, _, _ = movie_terms
    result = unify(t1, Term("T", "top", ()), movies)
    assert graph_equivalent(term_to_graph(result.unifier), term_to_graph(t1))
    assert result.beta1 == 1.0


def test_non_normal_inputs_rejected(movies):
    g = movies.graph
    bad = parse_term("X: movie(genre -> Y: horror, genre -> Z: thriller)", g)
    with pytest.raises(NotNormalTerm):
        unify(bad, Term("T", "top", ()), movies)


def test_foreign_signature_rejected(chain_lattice):
    alien = Term("X", "zork", (("f", Term("Y", "s", ())),))
    with pytest.raises(SignatureMismatch, match="^unknown sort: zork$"):
        unify(alien, Term("T", "top", ()), chain_lattice)


def test_signature_errors_outrank_shape_errors(chain_lattice):
    # Y is structured twice, but only the unknown name is reported.
    t = Term("X", "zork", (("f", Term("Y", "s", ())), ("g", Term("Y", "t", ()))))
    with pytest.raises(SignatureMismatch) as exc:
        unify(Term("T", "top", ()), t, chain_lattice)
    assert str(exc.value) == "unknown sort: zork"


# -- frozen renaming and lattice traffic ------------------------------------------------


@pytest.mark.parametrize(
    "left, right, unifier, betas, classes, renamed",
    [
        (  # both inputs carry parser-made _Z tags
            "u(f -> v(h -> r))",
            "v(f -> u(g -> t))",
            "_Z3: s(f -> _Z4: s(h -> _Z5: r, g -> _Z6: t))",
            (0.4, 0.4),
            {"_Z3": ("_Z0", "_Z0_"), "_Z4": ("_Z1", "_Z1_"), "_Z5": ("_Z2",), "_Z6": ("_Z2_",)},
            {"_Z0": "_Z0_", "_Z1": "_Z1_", "_Z2": "_Z2_"},
        ),
        (  # X_ is taken, so the clash on X renames it to X__
            "X: u(f -> Y: v)",
            "X: v(g -> X_: t)",
            "_Z0: s(f -> _Z1: v, g -> _Z2: t)",
            (0.7, 0.4),
            {"_Z0": ("X", "X__"), "_Z1": ("Y",), "_Z2": ("X_",)},
            {"X": "X__"},
        ),
        (  # a clash on the root tag
            "X: u(f -> Y: v)",
            "X: v(g -> Z: t)",
            "_Z0: s(f -> _Z1: v, g -> _Z2: t)",
            (0.7, 0.4),
            {"_Z0": ("X", "X_"), "_Z1": ("Y",), "_Z2": ("Z",)},
            {"X": "X_"},
        ),
        (  # a back-reference to a renamed tag
            "Y0: u(f -> Y1: v(g -> Y0))",
            "Y1: v(f -> Y0: u(g -> Y1, h -> W: r))",
            "_Z0: s(f -> _Z1: s(g -> _Z0, h -> _Z2: r))",
            (0.4, 0.4),
            {"_Z0": ("Y0", "Y1_"), "_Z1": ("Y1", "Y0_"), "_Z2": ("W",)},
            {"Y1": "Y1_", "Y0": "Y0_"},
        ),
    ],
)
def test_unify_renaming_frozen(chain_lattice, left, right, unifier, betas, classes, renamed):
    g = chain_lattice.graph
    result = unify(parse_term(left, g), parse_term(right, g), chain_lattice)
    assert format_term(result.unifier) == unifier
    assert (result.beta1, result.beta2, result.beta) == (*betas, min(betas))
    assert result.tag_classes == classes
    assert list(result.tag_classes) == list(classes)
    assert result.renamed == renamed
    assert list(result.renamed) == list(renamed)


def test_bottom_keeps_renames(movies):
    g = movies.graph
    a = parse_term("X: movie(directed_by -> Y: director)", g)
    b = parse_term("X: movie(directed_by -> Y: string)", g)
    result = unify(a, b, movies)
    assert result.unifier is None
    assert (result.beta1, result.beta2, result.beta) == (1.0, 1.0, 1.0)
    assert result.tag_classes == {}
    assert result.renamed == {"X": "X_", "Y": "Y_"}


@pytest.mark.parametrize(
    "swap, unifier, classes",
    [
        (
            False,
            "_Z0: s(f -> _Z1: u(k -> _Z3: v), g -> _Z2: t(h -> _Z1))",
            {"_Z0": ("X", "X_"), "_Z1": ("Y", "R"), "_Z2": ("Z", "Q"), "_Z3": ("W",)},
        ),
        (
            True,
            "_Z0: s(g -> _Z1: t(h -> _Z2: u(k -> _Z3: v)), f -> _Z2)",
            {"_Z0": ("X", "X_"), "_Z1": ("Q", "Z"), "_Z2": ("R", "Y"), "_Z3": ("W",)},
        ),
    ],
)
def test_unify_frozen_when_a_back_reference_comes_first(
    chain_k_lattice, backref_first, swap, unifier, classes
):
    # backref_first names Y bare before its structured occurrence; classes
    # still follow the combined clause's first mentions.
    other = parse_term("X: s(g -> Q: t(h -> R: u), f -> R)", chain_k_lattice.graph)
    pair = (other, backref_first) if swap else (backref_first, other)
    result = unify(*pair, chain_k_lattice)
    assert format_term(result.unifier) == unifier
    assert (result.beta1, result.beta2, result.beta) == (1.0, 1.0, 1.0)
    assert list(result.tag_classes.items()) == list(classes.items())
    assert result.renamed == {"X": "X_"}


# -- fresh class names ---------------------------------------------------------------


def _assert_class_names_are_fresh(result, t1: Term, t2: Term) -> None:
    """The classes are named _Z0, _Z1, ... in order, skipping every input tag
    (term 2's after renaming)."""
    used = set(term_tags(t1)) | {result.renamed.get(tag, tag) for tag in term_tags(t2)}
    fresh = (f"_Z{n}" for n in itertools.count())
    expected = list(itertools.islice((name for name in fresh if name not in used), len(result.tag_classes)))
    assert list(result.tag_classes) == expected


def test_class_names_skip_input_tags_named_like_them(chain_lattice):
    # t2's untagged t is parsed as _Z0, which t1 also uses, so it is renamed _Z0_.
    g = chain_lattice.graph
    t1 = parse_term("_Z0: s(f -> _Z1: u(g -> _Z3: v))", g)
    t2 = parse_term("_Z1: s(f -> X: u, h -> t)", g)
    result = unify(t1, t2, chain_lattice)
    assert format_term(result.unifier) == "_Z2: s(f -> _Z4: u(g -> _Z5: v), h -> _Z6: t)"
    assert result.tag_classes == {
        "_Z2": ("_Z0", "_Z1_"), "_Z4": ("_Z1", "X"), "_Z5": ("_Z3",), "_Z6": ("_Z0_",),
    }
    assert result.renamed == {"_Z1": "_Z1_", "_Z0": "_Z0_"}
    _assert_class_names_are_fresh(result, t1, t2)


def _chain(prefix: str, depth: int) -> Term:
    node = Term(f"{prefix}{depth - 1}", "s", ())
    for i in range(depth - 2, -1, -1):
        node = Term(f"{prefix}{i}", "s", (("f", node),))
    return node


def test_class_names_on_many_classes_skip_input_tags(chain_lattice):
    # Two chains of equal length unify into one class per depth.
    depth = 120
    t1, t2 = _chain("A", depth), _chain("B", depth)
    result = unify(t1, t2, chain_lattice)
    assert list(result.tag_classes) == [f"_Z{n}" for n in range(depth)]
    _assert_class_names_are_fresh(result, t1, t2)
    # Input tags named _Z0, _Z1, ... are skipped.
    t1, t2 = _chain("A", depth), _chain("_Z", depth)
    result = unify(t1, t2, chain_lattice)
    assert len(result.tag_classes) == depth
    assert not set(result.tag_classes) & set(term_tags(t2))
    _assert_class_names_are_fresh(result, t1, t2)


class _RecordingLattice(SortLattice):
    """Records every call to glb and degree, as an instrumented lattice that
    wraps them does."""

    def glb(self, s, t):
        self.calls.append(("glb", s, t))
        return super().glb(s, t)

    def degree(self, s, t):
        self.calls.append(("degree", s, t))
        return super().degree(s, t)


def _recording(lattice: SortLattice) -> _RecordingLattice:
    rec = _RecordingLattice(lattice.graph).validate()
    rec.calls = []
    return rec


def test_unify_lattice_calls_on_the_cyclic_pair(chain_lattice, cyclic_pair):
    # A tag whose class keeps its own sort asks for no degree: r's is 1.
    lattice = _recording(chain_lattice)
    unify(*cyclic_pair, lattice)
    assert lattice.calls == [
        ("glb", "u", "v"), ("glb", "v", "u"), ("glb", "s", "t"),
        ("degree", "q", "u"), ("degree", "s", "v"),
        ("degree", "q", "v"), ("degree", "s", "u"), ("degree", "q", "t"),
    ]


def test_unify_lattice_calls_on_the_movie_pair(movies, movie_terms):
    t1, _, t3 = movie_terms
    lattice = _recording(movies)
    unify(t1, t3, lattice)
    assert lattice.calls == [
        ("glb", "person", "director"), ("glb", "thriller", "horror"),
        ("degree", "director", "person"), ("degree", "slasher", "thriller"),
        ("degree", "slasher", "horror"),
    ]


def test_unify_lattice_calls_on_a_bottom_pair(chain_lattice):
    # glb(r, q) is bot: the calls stop there, and no degree is asked.
    g = chain_lattice.graph
    lattice = _recording(chain_lattice)
    a = parse_term("Y0: u(f -> Y1: v(g -> Y0, h -> Y2: r))", g)
    b = parse_term("Y0: v(f -> Y1: u(g -> Y3: t, h -> Y2: q))", g)
    result = unify(a, b, lattice)
    assert result.is_bottom
    assert result.renamed == {"Y0": "Y0_", "Y1": "Y1_", "Y2": "Y2_"}
    assert lattice.calls == [
        ("glb", "u", "v"), ("glb", "v", "u"), ("glb", "s", "t"), ("glb", "r", "q"),
    ]


# -- laws ------------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(strategies.lattice_and_terms(count=2, max_tags=4))
def test_unifier_sits_below_both_inputs(bundle):
    lattice, (a, b) = bundle
    result = unify(a, b, lattice)
    if result.is_bottom:
        return
    assert fuzzy_subsumption_degree(result.unifier, a, lattice) == result.beta1
    assert fuzzy_subsumption_degree(result.unifier, b, lattice) == result.beta2
    assert result.beta == min(result.beta1, result.beta2)
    assert result.beta1 > 0.0 and result.beta2 > 0.0


@settings(max_examples=150, deadline=None)
@given(strategies.lattice_and_terms(count=2, max_tags=4))
def test_unification_commutes(bundle):
    lattice, (a, b) = bundle
    ab = unify(a, b, lattice)
    ba = unify(b, a, lattice)
    assert ab.is_bottom == ba.is_bottom
    if not ab.is_bottom:
        assert graph_equivalent(
            term_to_graph(ab.unifier), term_to_graph(ba.unifier)
        )
        assert ab.beta1 == ba.beta2
        assert ab.beta2 == ba.beta1


@settings(max_examples=150, deadline=None)
@given(strategies.lattice_and_terms(count=2, max_tags=4))
def test_unifier_is_the_greatest_lower_bound(bundle):
    # anything below both inputs is below the unifier too
    lattice, (a, b) = bundle
    result = unify(a, b, lattice)
    probe = unify(b, a, lattice)
    if result.is_bottom or probe.is_bottom:
        return
    below_a = fuzzy_subsumption_degree(probe.unifier, a, lattice)
    below_b = fuzzy_subsumption_degree(probe.unifier, b, lattice)
    assert below_a > 0.0 and below_b > 0.0
    assert fuzzy_subsumption_degree(probe.unifier, result.unifier, lattice) > 0.0


def _shape(constraints: set, root: str) -> tuple[dict, dict, str]:
    sort_of = {c[1]: c[2] for c in constraints if c[0] == "sort"}
    out = {(c[1], c[2]): c[3] for c in constraints if c[0] == "feat"}
    return sort_of, out, root


@settings(max_examples=400, deadline=None)
@given(strategies.lattice_and_terms(count=2, max_tags=5) | strategies.diamond_and_terms(max_tags=5))
def test_unify_agrees_with_the_naive_meet(bundle):
    # The oracle solves both terms' constraint readings, the second renamed
    # apart, plus a root equality (two values of one feature of a fresh tag).
    lattice, (a, b) = bundle
    graph = lattice.graph
    ca, ra = term_constraints(a)
    cb, rb = term_constraints(b)
    cb = {
        ("sort", "b_" + c[1], c[2]) if c[0] == "sort" else ("feat", "b_" + c[1], c[2], "b_" + c[3])
        for c in cb
    }
    joint = ca | cb | {("feat", "o_root", "_r", ra), ("feat", "o_root", "_r", "b_" + rb)}
    meet = naive_meet(joint, ra, graph.sorts, graph.edges)
    result = unify(a, b, lattice)
    assert result.is_bottom == (meet is None)
    if meet is not None:
        sort_of, out, root = meet
        out = {k: v for k, v in out.items() if k[0] != "o_root"}
        assert shapes_match((sort_of, out, root), _shape(*term_constraints(result.unifier)))


@settings(max_examples=100, deadline=None)
@given(strategies.lattice_and_terms(count=1, max_tags=4))
def test_idempotence(bundle):
    lattice, (t,) = bundle
    result = unify(t, t, lattice)
    assert not result.is_bottom
    assert graph_equivalent(term_to_graph(result.unifier), term_to_graph(t))
    assert result.beta == 1.0


# -- terms read once -------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(strategies.lattice_and_terms(count=2, max_tags=5))
def test_reading_parsed_terms_twice_gives_identical_results(bundle):
    # The first unify takes the parser's records; the second walks the terms.
    lattice, terms = bundle
    graph = lattice.graph
    a, b = (parse_term(format_term(t), graph) for t in terms)
    assert unify(a, b, lattice) == unify(a, b, lattice)
    a, b = (parse_term(format_term(t), graph) for t in terms)
    assert subsumption_witness(a, b, lattice) == subsumption_witness(a, b, lattice)
    a = parse_term(format_term(terms[0]), graph)
    assert unify(a, a, lattice) == unify(a, a, lattice)


# What the terms below retained (Python 3.11) when every gate walked its term
# and every parsed name was a string of its own: 3,239.6 bytes per term.
RETAINED_BYTES_PER_TERM = 3240


def test_parsed_and_unified_terms_retain_no_more_memory():
    # These terms retain about 2,620 bytes each.  A walk record left on a
    # gated term (about 1,500 more) or a parser that keeps its own copy of each
    # name (about 950 more) fails this.
    rng = random.Random(7)
    names = [f"sort{i}" for i in range(16)]
    edges = [(names[i], names[(i - 1) // 2], 0.5) for i in range(1, 16)]
    lattice = SortLattice(SortGraph(names, [f"feat{i}" for i in range(5)], edges)).validate()
    texts = [format_term(random_normal_term(rng, lattice, 20)) for _ in range(1000)]

    def parse_and_unify() -> list[Term]:
        terms = [parse_term(text, lattice.graph) for text in texts]
        for a, b in zip(terms[::2], terms[1::2]):
            unify(a, b, lattice)
        return terms

    parse_and_unify()  # builds the lattice's closure rows
    gc.collect()
    tracemalloc.start()
    try:
        terms = parse_and_unify()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained / len(terms) <= RETAINED_BYTES_PER_TERM


# -- frozen outcomes -------------------------------------------------------------------

UNIFY_OUTCOMES_DIGEST = "6c978105303f9d8f35988e306ec7eb72e1a695c570cadc731b39a4c847764782"


def test_unify_outcomes_are_frozen():
    # 1,000 seeded pairs over harness lattices with a diamond; half are rooted
    # at its two incomparable sorts, and half are parsed from their printed form.
    rng = random.Random(4242)
    outcomes = []
    for _ in range(20):
        lattice = strategies.with_diamond(rng, random_lattice(rng, 6, 3))
        for _ in range(50):
            t1, t2 = (random_normal_term(rng, lattice, 8) for _ in range(2))
            if rng.random() < 0.5:
                t1, t2 = Term(t1.tag, "dl", t1.args), Term(t2.tag, "dr", t2.args)
            if rng.random() < 0.5:
                styles = [rng.choice(["explicit", "compact"]) for _ in range(2)]
                t1, t2 = (parse_term(format_term(t, s), lattice.graph) for t, s in zip((t1, t2), styles))
            r = unify(t1, t2, lattice)
            outcomes.append((
                None if r.unifier is None else format_term(r.unifier),
                r.beta1, r.beta2, r.beta,
                list(r.tag_classes.items()),
                list(r.renamed.items()),
            ))
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == UNIFY_OUTCOMES_DIGEST

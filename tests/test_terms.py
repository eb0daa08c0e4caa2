"""Term syntax: parser, printer, constraint reading, and the roundtrips."""

from __future__ import annotations

import copy
import pickle
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
    EqualityConstraint,
    FeatureConstraint,
    NotNormalTerm,
    NotRooted,
    NotSolved,
    SortConstraint,
    SortGraph,
    Term,
    TermSyntaxError,
    UnknownFeature,
    UnknownSort,
    check_normal,
    clause_to_term,
    format_clause,
    format_term,
    is_normal,
    parse_clause,
    parse_term,
    term_to_clause,
)


@pytest.fixture(scope="module")
def sig():
    return SortGraph(["s", "u"], ["f", "g"], [])


# -- parsing ----------------------------------------------------------------------


def test_parse_simple_term(sig):
    t = parse_term("X: s(f -> Y: u)", sig)
    assert t.tag == "X" and t.sort == "s"
    assert t.args[0][0] == "f"
    assert t.args[0][1].sort == "u"


def test_parse_untagged_nodes_get_fresh_tags(sig):
    t = parse_term("s(f -> u, g -> u)", sig)
    tags = {t.tag, t.args[0][1].tag, t.args[1][1].tag}
    assert len(tags) == 3
    assert all(tag.startswith("_Z") for tag in tags)


def test_parse_fresh_tags_avoid_user_tags(sig):
    t = parse_term("_Z0: s(f -> u)", sig)
    assert t.tag == "_Z0"
    assert t.args[0][1].tag != "_Z0"


def test_parse_bare_tag_is_a_back_reference(sig):
    t = parse_term("X: s(f -> X)", sig)
    back = t.args[0][1]
    assert back.tag == "X" and back.sort == "top" and back.args == ()


def test_parse_sortless_tag_reads_as_top(sig):
    t = parse_term("X(f -> Y: u)", sig)
    assert t.sort == "top"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "X:",
        "X: s(",
        "X: s(f -> )",
        "X: s(f Y: u)",
        "X: s()",
        "X: s(f -> Y: u,)",
        "x: s",
    ],
)
def test_parse_rejects_malformed_terms(sig, text):
    with pytest.raises(TermSyntaxError):
        parse_term(text, sig)


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("X: s(f - Y)", TermSyntaxError, "unexpected character '-' at position 7"),
        ("X: s(f -> 9a)", TermSyntaxError, "unexpected character '9' at position 10"),
        ("X: é", TermSyntaxError, "unexpected character 'é' at position 3"),
        ("", TermSyntaxError, "unexpected end of input; expected a term"),
        ("X:", TermSyntaxError, "unexpected end of input; expected a sort name"),
        ("X: s(", TermSyntaxError, "unexpected end of input; expected a feature name"),
        ("X: s(f", TermSyntaxError, "unexpected end of input; expected '->'"),
        ("X: s(f -> Y: u", TermSyntaxError, "unexpected end of input; expected ',' or ')'"),
        ("X: Y", TermSyntaxError, "expected a sort name after ':', found 'Y'"),
        ("x: s", TermSyntaxError, "tags start with an uppercase letter or '_': 'x'"),
        ("->", TermSyntaxError, "expected a term, found '->'"),
        ("X: s(f -> )", TermSyntaxError, "expected a term, found ')'"),
        ("X: s(F -> Y)", TermSyntaxError, "expected a feature name, found 'F'"),
        ("X: s(f -> Y: u, ->)", TermSyntaxError, "expected a feature name, found '->'"),
        ("X: s(f Y: u)", TermSyntaxError, "expected '->', found 'Y'"),
        ("X: s(f -> Y: u g -> Z)", TermSyntaxError, "expected ',' or ')', found 'g'"),
        ("X: s(f -> Y: u))", TermSyntaxError, "trailing input after term: ')'"),
        ("X: s(f -> Y: u) extra", TermSyntaxError, "trailing input after term: 'extra'"),
        ("X: nosuch", UnknownSort, "unknown sort: nosuch"),
        ("X: s(nosuch -> Y: u)", UnknownFeature, "unknown feature: nosuch"),
        # the whole text is tokenized first: a bad character outranks
        # every grammar and signature error before it
        ("X: nosuch(f -> Y: u) é", TermSyntaxError, "unexpected character 'é' at position 21"),
        # a node head, a feature with its arrow and a mark each end where
        # the grammar expects them to
        ("X: s(f)", TermSyntaxError, "expected '->', found ')'"),
        ("X: s(f -> Y: u,, g -> Z)", TermSyntaxError, "expected a feature name, found ','"),
        ("(", TermSyntaxError, "expected a term, found '('"),
        ("X: 9", TermSyntaxError, "unexpected character '9' at position 3"),
        ("X: s(f -> Y: u) ,", TermSyntaxError, "trailing input after term: ','"),
        ("X: s(f->)", TermSyntaxError, "expected a term, found ')'"),
        # signature checks run as each name is read
        ("X: s(nosuch Y)", UnknownFeature, "unknown feature: nosuch"),
        ("X: s(f -> nosuch -> Y)", UnknownSort, "unknown sort: nosuch"),
    ],
)
def test_parse_error_messages(sig, text, error, message):
    with pytest.raises(error) as exc:
        parse_term(text, sig)
    assert type(exc.value) is error
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, explicit",
    [
        ("X:s(f->Y:u)", "X: s(f -> Y: u)"),
        ("X : s", "X: s"),
        ("X: s (f -> Y)", "X: s(f -> Y)"),
    ],
)
def test_parse_glued_and_spaced_units(sig, text, explicit):
    assert format_term(parse_term(text, sig)) == explicit


def _shape(t: Term) -> tuple:
    return (t.tag, t.sort, tuple((f, _shape(child)) for f, child in t.args))


SEPARATORS = st.sampled_from(["", " ", "  ", "\t", "\n", " \n\t"])


@st.composite
def term_texts(draw) -> str:
    """Term text with any whitespace, or none, between its units.

    Nodes are tagged, untagged or back-references, and some names lie
    outside the ``sig`` signature.  Two texts in three lose one unit or get
    one character inserted, deleted or replaced.
    """
    units: list[str] = []

    def node(depth: int) -> None:
        kind = draw(st.sampled_from(["tagged", "untagged", "backref"]))
        tag = draw(st.sampled_from(["X", "Y", "_Z0", "Z1"]))
        sort = draw(st.sampled_from(["s", "u", "top", "zork"]))
        if kind == "backref":
            units.append(tag)
            return
        units.extend([tag, ":", sort] if kind == "tagged" else [sort])
        if depth < 3 and draw(st.booleans()):
            units.append("(")
            for k in range(draw(st.integers(1, 3))):
                if k:
                    units.append(",")
                units.extend([draw(st.sampled_from(["f", "g", "h"])), "->"])
                node(depth + 1)
            units.append(")")

    node(0)
    mutation = draw(st.sampled_from(["none", "drop a unit", "change a character"]))
    if mutation == "drop a unit":
        del units[draw(st.integers(0, len(units) - 1))]
    text = "".join(draw(SEPARATORS) + unit for unit in units) + draw(SEPARATORS)
    if mutation == "change a character":
        k = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from(list("Xsf():,->9é \t")))
        head, tail = text[:k], text[k + 1 :]
        text = draw(st.sampled_from([head + c + text[k:], head + tail, head + c + tail]))
    return text


@settings(max_examples=500, deadline=None)
@given(text=term_texts(), with_signature=st.booleans())
def test_parse_agrees_with_the_oracle(sig, text, with_signature):
    graph = sig if with_signature else None
    if with_signature:
        want = oracles.parse_term_shape(text, set(sig.sorts), set(sig.features))
    else:
        want = oracles.parse_term_shape(text)
    try:
        got = _shape(parse_term(text, graph))
    except (TermSyntaxError, UnknownSort, UnknownFeature) as e:
        got = type(e).__name__
    assert got == want


def test_parse_time_is_linear_in_whitespace():
    # 12,000 whitespace characters before, inside and after a term; a
    # tokenizer that retries a whitespace tail from each of its positions
    # takes seconds here.
    pad = " \n\t" * 4_000
    start = time.perf_counter()
    t = parse_term(pad + "X: s(f ->" + pad + "Y)" + pad, None)
    assert time.perf_counter() - start < 0.5
    assert format_term(t) == "X: s(f -> Y)"


def test_check_normal_time_is_linear_in_repeated_features():
    # 80,000 arguments under one feature; counting each feature's
    # occurrences once per argument takes seconds here.
    t = parse_term("X: s(" + ", ".join(f"f -> A{i}" for i in range(80_000)) + ")", None)
    start = time.perf_counter()
    problems = check_normal(t)
    assert time.perf_counter() - start < 0.5
    assert problems == ["tag X repeats feature(s): f"]


def test_parse_rejects_unknown_names(sig):
    with pytest.raises(UnknownSort):
        parse_term("X: nosuch", sig)
    with pytest.raises(UnknownFeature):
        parse_term("X: s(nosuch -> Y: u)", sig)


def test_parse_without_signature_accepts_anything():
    t = parse_term("X: whatever(anyfeat -> Y: thing)", None)
    assert t.sort == "whatever"


# -- printing ---------------------------------------------------------------------


def test_format_explicit_roundtrips(sig):
    text = "X: s(f -> Y: u(g -> X), g -> Y)"
    t = parse_term(text, sig)
    assert format_term(t) == text


def test_format_compact_drops_noise(sig):
    t = parse_term("X: s(f -> Y: top)", sig)
    compact = format_term(t, style="compact")
    assert compact == "s(f -> top)"
    again = parse_term(compact, sig)
    assert again.sort == "s"
    assert again.args[0][1].sort == "top"


def test_format_both_styles_on_three_arguments_nesting_and_back_references():
    t = parse_term(
        "X: s(f -> Y: u(g -> X, h -> Z: p), g -> t(f -> Y, k -> v, h -> Q), h -> Z)", None
    )
    assert format_term(t) == (
        "X: s(f -> Y: u(g -> X, h -> Z: p), g -> _Z0: t(f -> Y, k -> _Z1: v, h -> Q), h -> Z)"
    )
    assert format_term(t, style="compact") == (
        "X: s(f -> Y: u(g -> X, h -> Z: p), g -> t(f -> Y, k -> v, h -> top), h -> Z)"
    )


def test_term_str_matches_explicit_format(sig):
    t = parse_term("X: s(f -> Y: u)", sig)
    assert str(t) == format_term(t)


def test_deep_terms_compare_and_hash_without_recursion():
    def chain(n: int, leaf: str) -> Term:
        t = Term(f"X{n}", leaf, ())
        for i in range(n - 1, -1, -1):
            t = Term(f"X{i}", "s", (("f", t),))
        return t

    a, b, c = chain(10_000, "u"), chain(10_000, "u"), chain(10_000, "s")
    assert a == b and not a != b
    assert a != c and not a == c
    assert hash(a) == hash(b)
    assert len({a, b, c}) == 2


def test_term_is_an_immutable_slot_record():
    t = Term("X", "s", (("f", Term("Y", "u")),))
    for field in ("tag", "sort", "args"):
        with pytest.raises(AttributeError):
            setattr(t, field, "z")
        assert getattr(t, field) != "z"
    assert not hasattr(t, "__dict__")
    assert Term(tag="X", sort="s", args=t.args) == t
    assert Term("Y", "u").args == ()
    for clone in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert clone == t and hash(clone) == hash(t)
    assert repr(t) == "Term(X:s, 1 args)"
    match t:
        case Term(tag, sort, ((feature, _),)):
            assert (tag, sort, feature) == ("X", "s", "f")
        case _:
            pytest.fail("Term did not match by position")


# -- normality --------------------------------------------------------------------


def test_duplicate_feature_is_not_normal(sig):
    t = parse_term("X: s(f -> Y: u, f -> Z: u)", sig)
    assert not is_normal(t)
    assert any("feature" in p for p in check_normal(t))


def test_conflicting_resort_is_not_normal(sig):
    t = Term("X", "s", (("f", Term("X", "u", ())),))
    assert not is_normal(t)


def test_repeated_structure_parses_but_is_not_normal(sig):
    t = parse_term("X: s(f -> X(g -> Y: u))", sig)
    assert any("structured" in p for p in check_normal(t))


def test_check_normal_lists_every_violation_in_walk_order(sig):
    t = Term(
        "X",
        "zork",
        (("f", Term("Y", "s", ())), ("blip", Term("Y", "u", ())), ("f", Term("Z", "bot", ()))),
    )
    shape = [
        "tag X repeats feature(s): f",
        "tag Z is sorted bot",
        "tag Y has 2 structured occurrences",
    ]
    assert check_normal(t, sig) == ["unknown sort: zork", "unknown feature: blip"] + shape
    assert check_normal(t) == shape


def test_cyclic_term_is_normal(sig):
    t = parse_term("X: s(f -> Y: u(g -> X))", sig)
    assert is_normal(t)


# -- constraint reading -------------------------------------------------------------


def test_term_to_clause_frozen_example(sig):
    t = parse_term("X: s(f -> X)", sig)
    clause = term_to_clause(t)
    wanted = {SortConstraint("X", "s"), FeatureConstraint("X", "f", "X")}
    assert wanted <= set(clause.constraints)
    assert clause.root == "X"


def test_clause_to_term_frozen_example(sig):
    clause = Clause(
        (
            SortConstraint("X", "s"),
            FeatureConstraint("X", "f", "Y"),
            SortConstraint("Y", "u"),
            FeatureConstraint("Y", "g", "X"),
        ),
        root="X",
    )
    assert format_term(clause_to_term(clause)) == "X: s(f -> Y: u(g -> X))"


def test_clause_to_term_requires_root(sig):
    clause = Clause((SortConstraint("X", "s"),))
    with pytest.raises(NotRooted):
        clause_to_term(clause)


def test_clause_to_term_rejects_unreachable_tags(sig):
    clause = Clause(
        (SortConstraint("X", "s"), SortConstraint("Y", "u")), root="X"
    )
    with pytest.raises(NotRooted) as exc:
        clause_to_term(clause)
    assert "Y" in exc.value.tags


@pytest.mark.parametrize(
    "constraints,message",
    [
        (
            (SortConstraint("X", "s"), EqualityConstraint("X", "Y")),
            "clause still has an equality: X ≐ Y",
        ),
        (
            (SortConstraint("X", "s"), SortConstraint("X", "u")),
            "tag X has more than one sort constraint",
        ),
        ((SortConstraint("X", "bot"),), "tag X is sorted bot"),
        (
            (
                SortConstraint("X", "s"),
                FeatureConstraint("X", "f", "Y"),
                FeatureConstraint("X", "f", "Z"),
            ),
            "tag X has more than one value for feature f",
        ),
    ],
)
def test_unsolved_clauses_are_rejected(chain_lattice, constraints, message):
    # Both readers of solved clauses raise the same error with the same text.
    clause = Clause(constraints, root="X")
    readers = [clause_to_term, lambda c: CanonicalAlgebra.from_clause(c, chain_lattice)]
    for read in readers:
        with pytest.raises(NotSolved) as exc:
            read(clause)
        assert type(exc.value) is NotSolved
        assert str(exc.value) == message


def test_clause_to_term_time_is_linear_in_features():
    # 16,000 features on one tag; rescanning the tag's edges for every
    # feature constraint takes seconds here.
    n = 16_000
    constraints = [SortConstraint("X", "s")]
    constraints += [FeatureConstraint("X", f"f{i}", f"Y{i}") for i in range(n)]
    constraints += [SortConstraint(f"Y{i}", "top") for i in range(n)]
    clause = Clause(tuple(constraints), root="X")
    start = time.perf_counter()
    t = clause_to_term(clause)
    assert time.perf_counter() - start < 0.5
    assert len(t.args) == n
    assert t.args[-1] == (f"f{n - 1}", Term(f"Y{n - 1}", "top", ()))


def test_parse_clause_syntax(sig):
    clause = parse_clause("X: s & X.f = Y & X = X2", sig)
    kinds = [type(c).__name__ for c in clause.constraints]
    assert kinds == ["SortConstraint", "FeatureConstraint", "EqualityConstraint"]
    assert "≐" in format_clause(clause)


def test_parse_clause_accepts_unicode_equals(sig):
    clause = parse_clause("X.f ≐ Y & X ≐ Y", sig)
    assert len(clause.constraints) == 2


def test_parse_clause_rejects_nested_terms(sig):
    with pytest.raises(TermSyntaxError):
        parse_clause("X: s(f -> Y)", sig)


# -- roundtrips on random terms ------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(strategies.lattice_and_terms(count=1))
def test_print_parse_roundtrip(bundle):
    lattice, (t,) = bundle
    assert format_term(parse_term(format_term(t), lattice.graph)) == format_term(t)


@settings(max_examples=200, deadline=None)
@given(strategies.lattice_and_terms(count=1))
def test_clause_roundtrip_is_identity(bundle):
    lattice, (t,) = bundle
    again = clause_to_term(term_to_clause(t))
    assert format_term(again) == format_term(t)


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("X: zork", UnknownSort, "unknown sort: zork"),
        ("X: p & X.zork = Y", UnknownFeature, "unknown feature: zork"),
    ],
    ids=["unknown-sort", "unknown-feature"],
)
def test_parse_clause_rejects_names_outside_the_signature(text, error, message):
    graph = SortGraph(["p"], ["f"], [])
    with pytest.raises(error) as exc:
        parse_clause(text, graph)
    assert (type(exc.value), str(exc.value)) == (error, message)

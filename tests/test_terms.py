"""Term syntax: parser, printer, constraint reading, and the roundtrips."""

from __future__ import annotations

import copy
import hashlib
import pickle
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from linecount import line_events
from fuzzyosf import (
    BOT,
    CanonicalAlgebra,
    Clause,
    EqualityConstraint,
    FeatureConstraint,
    NotNormalTerm,
    NotRooted,
    NotSolved,
    SignatureMismatch,
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
    parse_clause,
    parse_term,
    term_to_clause,
)
from fuzzyosf.semantics import random_lattice, random_normal_term
from fuzzyosf.terms import _gate, _walk


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
        ("X: s(f -> u -> Y)", TermSyntaxError, "expected ',' or ')', found '->'"),
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
        # precedence: a unit's own structure before its name lookup, a root
        # closed early before a later unknown name, and a stray only where
        # no token can start
        ("x: zork", TermSyntaxError, "tags start with an uppercase letter or '_': 'x'"),
        ("X: s(f -> Y), g -> zork", TermSyntaxError, "trailing input after term: ','"),
        ("X: s(f -> Y)) zork", TermSyntaxError, "trailing input after term: ')'"),
        ("X: s > Y", TermSyntaxError, "unexpected character '>' at position 5"),
        ("X: s9(f -> Y)", UnknownSort, "unknown sort: s9"),
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


@pytest.mark.parametrize(
    "text, explicit",
    [
        # fresh tags avoid the tags written in the text, not tag-like runs
        # inside sort names
        ("a_Z0(f -> b, g -> _Z1)", "_Z0: a_Z0(f -> _Z2: b, g -> _Z1)"),
        ("X : s ( f->Y:t,g  ->  X )", "X: s(f -> Y: t, g -> X)"),
    ],
)
def test_parse_edge_cases_without_a_signature(text, explicit):
    assert format_term(parse_term(text, None)) == explicit


def test_parse_cost_is_linear_and_an_error_at_the_end_is_not_read_twice(sig):
    # Chains X0: s(f -> X1: s(... f -> Xn-1: s(g -> Y)...)), parsed as they are
    # and with one error after the last node.  Line counts differ between
    # Python versions, so only their ratios are asserted.
    errors = [" Z", ")", ", g -> Z"]
    counts = {}
    for n in (1000, 2000, 4000):
        text = "".join(f"X{i}: s(f -> " for i in range(n - 1)) + f"X{n - 1}: s(g -> Y)" + ")" * (n - 1)
        counts[n] = [line_events(parse_term, text + error, sig, expected=(TermSyntaxError,)) for error in ["", *errors]]
    for n in (1000, 2000):
        for small, large in zip(counts[n], counts[2 * n]):
            assert large <= 2.3 * small
    accepted, *rejected = counts[4000]
    for count in rejected:
        assert count <= 1.1 * accepted


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
    with pytest.raises(ValueError, match="unknown style: 'fancy'"):
        format_term(t, "fancy")


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
    assert check_normal(t) != []
    assert any("feature" in p for p in check_normal(t))


def test_conflicting_resort_is_not_normal(sig):
    t = Term("X", "s", (("f", Term("X", "u", ())),))
    assert check_normal(t) != []


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
    assert check_normal(t) == []


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
    "clause, message",
    [
        (Clause((SortConstraint("X", "s"),), root="Y"), "root Y does not occur in the clause"),
        (Clause((SortConstraint("X", "s"), FeatureConstraint("X", "f", "Y")), root="X"), "unsorted: Y"),
    ],
    ids=["absent-root", "unsorted-tag"],
)
def test_clause_to_term_names_the_tag_it_cannot_place(clause, message):
    with pytest.raises(NotRooted) as exc:
        clause_to_term(clause)
    assert (str(exc.value), exc.value.tags) == (message, ["Y"])


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
    assert str(clause) == format_clause(clause) == "X:s & X.f ≐ Y & X ≐ X2"


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
        # a signature's names are ASCII, and so are clause tags, as in terms
        ("Xé: p", TermSyntaxError, "cannot parse constraint: 'Xé: p'"),
        ("X: p & X.f = Y١", TermSyntaxError, "cannot parse constraint: 'X.f = Y١'"),
        ("X ≐ Ｙ", TermSyntaxError, "cannot parse constraint: 'X ≐ Ｙ'"),
        ("X: pé", TermSyntaxError, "cannot parse constraint: 'X: pé'"),
        ("X: p١", TermSyntaxError, "cannot parse constraint: 'X: p١'"),
        ("X.fé = Y", TermSyntaxError, "cannot parse constraint: 'X.fé = Y'"),
    ],
    ids=["unknown-sort", "unknown-feature", "non-ascii-tag", "non-ascii-target",
         "fullwidth-tag", "non-ascii-sort", "non-ascii-digit", "non-ascii-feature"],
)
def test_parse_clause_rejects_names_outside_the_signature(text, error, message):
    graph = SortGraph(["p"], ["f"], [])
    with pytest.raises(error) as exc:
        parse_clause(text, graph)
    assert (type(exc.value), str(exc.value)) == (error, message)


# -- the parser's walk record --------------------------------------------------------


def _record(t: Term):
    """The walk record the parser left on ``t``, without its graph, or None."""
    return t[3][0][1:] if len(t) > 3 and t[3] else None


def _gated(t: Term, graph: SortGraph):
    """What ``_gate`` gives: the record, or the error's type and message."""
    try:
        return _gate(t, graph)
    except (SignatureMismatch, NotNormalTerm) as err:
        return type(err), str(err)


@st.composite
def not_normal(draw, t: Term, graph: SortGraph) -> Term:
    """``t`` broken at one node: sorted bot, a repeated feature, or a second
    structured occurrence of the root's tag (sorted, or with an argument)."""
    nodes = [t]
    for node in nodes:
        nodes += [child for _, child in node.args]
    k = draw(st.integers(0, len(nodes) - 1))
    fault = draw(st.sampled_from(["bot", "repeat a feature", "restructure"]))
    sort = draw(st.sampled_from([s for s in graph.sorts if s != BOT]))

    def rebuild(node: Term, at: list[int]) -> Term:
        args = tuple((f, rebuild(child, at)) for f, child in node.args)
        at[0] += 1
        if at[0] - 1 != k:
            return Term(node.tag, node.sort, args)
        if fault == "bot":
            return Term(node.tag, BOT, args)
        if fault == "repeat a feature" and args:
            return Term(node.tag, node.sort, args + args[:1])
        again = Term(t.tag, sort, draw(st.sampled_from([(), ((graph.features[0], t),)])))
        return Term(node.tag, node.sort, args + ((graph.features[0], again),))

    return rebuild(t, [0])


@settings(max_examples=300, deadline=None)
@given(bundle=strategies.lattice_and_terms(count=1, max_tags=6), data=st.data())
def test_parser_record_is_the_walk_record(bundle, data):
    # Printed in either style, or broken first, a parsed term carries exactly
    # the record the walk builds (none when it is not normal), and the gate
    # answers alike with the record and with a fresh root that has none.
    lattice, (t,) = bundle
    graph = lattice.graph
    shape = data.draw(st.sampled_from(["explicit", "compact", "not normal"]))
    if shape == "not normal":
        t = data.draw(not_normal(t, graph))
    parsed = parse_term(format_term(t, "compact" if shape == "compact" else "explicit"), graph)
    assert _record(parsed) == _walk(parsed, graph)[1]
    bare = Term(parsed.tag, parsed.sort, parsed.args)
    assert _record(bare) is None
    assert _gated(parsed, graph) == _gated(bare, graph)


@settings(max_examples=300, deadline=None)
@given(text=term_texts())
def test_parser_record_is_the_walk_record_on_any_text(sig, text):
    try:
        parsed = parse_term(text, sig)
    except (TermSyntaxError, UnknownSort, UnknownFeature):
        return
    assert _record(parsed) == _walk(parsed, sig)[1]


def test_a_record_is_used_once(sig):
    t = parse_term("X: s(f -> Y: u(g -> X), g -> Y)", sig)
    record = _record(t)
    assert record == (["X", "Y"], ["s", "u"], {0: {"f": 1, "g": 1}, 1: {"g": 0}})
    first = _gate(t, sig)
    assert first == record and _record(t) is None
    second = _gate(t, sig)
    assert second == first and second is not first


def test_parsed_names_are_the_signature_strings():
    graph = SortGraph(["movie", "person"], ["directed_by"], [])
    t = parse_term("X: movie(directed_by -> person)", graph)
    ((feature, child),) = t.args
    assert t.sort is graph.sorts[0] and child.sort is graph.sorts[1]
    assert feature is graph.features[0]
    sort, feat = parse_clause("X: person & X.directed_by = Y", graph).constraints
    assert sort.sort is graph.sorts[1] and feat.feature is graph.features[0]


def test_a_term_parsed_over_another_graph_walks(sig):
    t = parse_term("X: s(f -> Y: u)", sig)
    twin = SortGraph(["s", "u"], ["f", "g"], [])
    assert _gate(t, twin) == _walk(t, twin)[1]
    assert _record(t) is not None  # kept for the graph it was parsed over
    with pytest.raises(SignatureMismatch, match="unknown sort: u"):
        _gate(t, SortGraph(["s"], ["f"], []))
    assert _gate(t, sig) == _walk(t, sig)[1]
    assert _record(t) is None


def test_a_term_is_not_equal_to_its_fields():
    t = Term("X", "s")
    assert t != ("X", "s", ()) and ("X", "s", ()) != t
    assert not t == ("X", "s", ()) and not ("X", "s", ()) == t
    # Same shape, tags and sorts; only the feature names differ.
    assert Term("X", "s", (("f", Term("Y", "u")),)) != Term("X", "s", (("g", Term("Y", "u")),))


def test_copies_of_a_parsed_term_compare_equal_and_carry_no_record(sig):
    t = parse_term("X: s(f -> Y: u(g -> X), g -> Y)", sig)
    assert _record(t) is not None
    for clone in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert clone == t and hash(clone) == hash(t)
        assert _record(clone) is None
    assert _gate(t, sig) == _gate(pickle.loads(pickle.dumps(t)), sig)


def test_a_deep_term_pickles_and_copies_without_recursion(sig):
    # A 100,000-deep chain, at the default recursion limit: Term.__reduce__
    # hands over a flat preorder table, which one loop rebuilds.
    n = 100_000
    t = parse_term("".join(f"X{i}: s(f -> " for i in range(n - 1)) + f"X{n - 1}: u" + ")" * (n - 1), sig)
    assert _record(t) is not None
    for clone in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
        assert clone == t and len(clone) == 3
        assert _record(clone) is None


def test_a_parsed_root_unpacks_as_its_three_fields():
    graph = SortGraph(["movie", "director"], ["directed_by"], [])
    t = parse_term("X: movie(directed_by -> Y: director)", graph)
    built = Term("X", "movie", (("directed_by", Term("Y", "director")),))
    assert _record(t) is not None and len(t) == 4
    for term in (t, built):
        tag, sort, args = term
        assert (tag, sort, args) == tuple(term) == ("X", "movie", built.args)
        assert list(term) == ["X", "movie", built.args]
    assert _record(t) is not None  # iteration leaves the record in place


# -- frozen parse outcomes ---------------------------------------------------------

_UNIT = re.compile(r"[A-Za-z0-9_]+|->|\S")
_SPACING = ["", " ", "  ", "\t", "\n", " \n\t"]


def _variants(rng: random.Random, text: str) -> list[str]:
    """A printed term re-spaced, then as it is, without one unit, and with one
    character inserted, deleted or replaced (the mutations of ``term_texts``)."""
    units = _UNIT.findall(text)
    text = "".join(rng.choice(_SPACING) + unit for unit in units) + rng.choice(_SPACING)
    spans = [m.span() for m in _UNIT.finditer(text)]
    start, end = rng.choice(spans)
    k = rng.randint(0, len(text))
    c = rng.choice("Xsf():,->9é \t")
    head, tail = text[:k], text[k + 1 :]
    changed = rng.choice([head + c + text[k:], head + tail, head + c + tail])
    return [text, text[:start] + text[end:], changed]


def _outcome(text: str, graph: SortGraph | None):
    """The parsed term's shape and record, or the error's type and message."""
    try:
        t = parse_term(text, graph)
    except (TermSyntaxError, UnknownSort, UnknownFeature) as err:
        return type(err).__name__, str(err)
    return _shape(t), _record(t)


PARSE_OUTCOMES_DIGEST = "121d6f5b03502572b27c1c83cd63bdf0a6f2cf04ab0e2edbf3d7b350838e22df"


def test_parse_outcomes_are_frozen():
    # 2,000 printed random normal terms, each re-spaced and mutated, parsed
    # over their signature and over none.
    rng = random.Random(4242)
    outcomes = []
    for _ in range(10):
        lattice = random_lattice(rng, 8, 3)
        for _ in range(200):
            text = format_term(random_normal_term(rng, lattice, 12), rng.choice(["explicit", "compact"]))
            for variant in _variants(rng, text):
                outcomes += [_outcome(variant, lattice.graph), _outcome(variant, None)]
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == PARSE_OUTCOMES_DIGEST

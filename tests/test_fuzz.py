"""Boundary fuzzing: arbitrary text into every parser and into the CLI.

A parser may reject its input only with a documented error type:
TermSyntaxError or another ValueError, or an OntologyError subclass.  The
CLI turns every bad input into exit code 1 or 2 and never raises.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyosf import (
    OntologyError,
    SortLattice,
    load_interpretation,
    load_ontology,
    parse_clause,
    parse_term,
)
from fuzzyosf.cli import main

DOCUMENTED = (ValueError, OntologyError)

# Pieces of every input grammar, so that token soups reach past the lexers.
TOKENS = [
    "X", "Y", "_Z0", "p", "q", "s", "f", "g", "top", "bot", "zork",
    ":", "(", ")", "->", ",", ".", "&", "=", "≐", "*", "#", "@", "\n",
    "sort", "feature", "edge", "sim", "elem", "deg", "fun",
    "0", "0.5", "1", "2", "-1", "nan", "inf", "1e400", "True",
]

texts = st.one_of(
    st.text(max_size=60),
    st.lists(st.sampled_from(TOKENS), max_size=25).map(" ".join),
)

# The same pieces with nothing between them, so that glued forms such as
# ``f->`` and ``X:s(`` reach the term tokenizer.
glued = st.lists(st.sampled_from(TOKENS), max_size=25).map("".join)

ONTOLOGY = """\
sort p q s
feature f g
edge p q 0.5
edge q s 1
"""

fuzz = settings(max_examples=200, deadline=None)


@pytest.fixture(scope="module")
def lattice():
    graph, _ = load_ontology(ONTOLOGY)
    return SortLattice(graph).validate()


@pytest.fixture(scope="module")
def ontology_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "onto.txt"
    path.write_text(ONTOLOGY, encoding="utf-8")
    return str(path)


@fuzz
@given(text=texts, with_graph=st.booleans())
def test_parse_term_raises_only_documented_errors(lattice, text, with_graph):
    with contextlib.suppress(*DOCUMENTED):
        parse_term(text, lattice.graph if with_graph else None)


@fuzz
@given(text=glued, with_graph=st.booleans())
def test_parse_term_on_glued_tokens_raises_only_documented_errors(lattice, text, with_graph):
    with contextlib.suppress(*DOCUMENTED):
        parse_term(text, lattice.graph if with_graph else None)


@fuzz
@given(text=texts, with_graph=st.booleans())
def test_parse_clause_raises_only_documented_errors(lattice, text, with_graph):
    with contextlib.suppress(*DOCUMENTED):
        parse_clause(text, lattice.graph if with_graph else None)


@fuzz
@given(text=texts)
def test_load_ontology_raises_only_documented_errors(text):
    with contextlib.suppress(*DOCUMENTED):
        graph, _ = load_ontology(text)
        SortLattice(graph).validate()


@fuzz
@given(text=texts)
def test_load_interpretation_raises_only_documented_errors(lattice, text):
    with contextlib.suppress(*DOCUMENTED):
        load_interpretation(text, lattice.graph)


def _exit_code(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@fuzz
@given(command=st.sampled_from(["normalize", "unify", "subsumes"]), a=texts, b=texts)
def test_cli_survives_arbitrary_terms(ontology_file, command, a, b):
    operands = [a] if command == "normalize" else [a, b]
    # "--" keeps operands that start with "-" from being read as options.
    code = _exit_code(["--ontology", ontology_file, command, "--", *operands])
    assert code in (0, 1, 2)


@fuzz
@given(text=texts)
def test_cli_check_survives_arbitrary_ontologies(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzzed-onto.txt"
    path.write_text(text, encoding="utf-8")
    assert _exit_code(["--ontology", str(path), "check"]) in (0, 1, 2)

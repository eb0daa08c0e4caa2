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


# -- the model and batch boundaries of the CLI ------------------------------------------

# A valid model over ONTOLOGY plus a few lines that may break it, so that many
# drawn models load and validate and the term, --at and --assign checks run.
MODEL = "elem a b c\ndeg p a 1\ndeg q a 0.5\ndeg s a 1\ndeg q b 1\ndeg s b 1\nfun f * a\nfun g * b\n"
MODEL_LINES = ["elem d", "deg p b 0.5", "deg q c 1", "deg s c 0.5", "fun f a b", "fun g b c", "fun f c zz"]


def mostly(strategy):
    """``strategy`` in three draws of four, arbitrary text in the fourth."""
    return st.integers(0, 3).flatmap(lambda k: strategy if k else texts)


models = mostly(st.lists(st.sampled_from(MODEL_LINES), max_size=3).map(lambda lines: MODEL + "\n".join(lines)))
terms = mostly(st.sampled_from(["X: p", "X: q(f -> Y: s)", "X: s(f -> Y, g -> Y: q)", "X: p(f -> X)", ""]))
elements = st.sampled_from(["a", "b", "c", "zz", ""])
at_flags = elements.map(lambda e: ["--at", e])
assign_flags = st.lists(
    st.one_of(
        st.builds("{}={}".format, st.sampled_from(["X", "Y", "Z", ""]), elements),
        st.sampled_from(["X", "=", ""]),
    ),
    min_size=1,
    max_size=3,
).map(lambda items: [arg for item in items for arg in ("--assign", item)])
both_flags = st.tuples(at_flags, assign_flags).map(lambda pair: pair[0] + pair[1])
eval_flags = st.one_of(st.just([]), at_flags, assign_flags, both_flags)
batches = st.lists(mostly(st.tuples(terms, terms).map("\t".join)), max_size=4).map("\n".join)


def _run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI run; a usage error is exit 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(code: int, out: str, err: str) -> None:
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert out == ""


@fuzz
@given(model=models, term=terms, flags=eval_flags, as_json=st.booleans())
def test_cli_eval_survives_arbitrary_models_and_flags(
    tmp_path_factory, ontology_file, model, term, flags, as_json
):
    path = tmp_path_factory.getbasetemp() / "fuzzed.interp"
    path.write_text(model, encoding="utf-8")
    argv = ["--ontology", ontology_file, *(["--json"] if as_json else []), "eval", "--interp", str(path)]
    _assert_clean_exit(*_run([*argv, *flags, "--", term]))


@fuzz
@given(batch=batches, as_json=st.booleans())
def test_cli_unify_batch_survives_arbitrary_files(tmp_path_factory, ontology_file, batch, as_json):
    path = tmp_path_factory.getbasetemp() / "fuzzed-pairs.tsv"
    path.write_text(batch, encoding="utf-8")
    argv = ["--ontology", ontology_file, *(["--json"] if as_json else []), "unify", "--batch", str(path)]
    _assert_clean_exit(*_run(argv))

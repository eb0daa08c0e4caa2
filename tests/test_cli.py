"""Command-line behavior: output shapes, exit codes, JSON round-trips."""

from __future__ import annotations

import json

import pytest

from fuzzyosf import check_theorems, format_term, graph_equivalent, parse_term, term_to_graph
from fuzzyosf.cli import main
from fuzzyosf.samples import MOVIE_MODEL, MOVIES, movie_lattice

CHAIN = """\
sort p q r s t u v
feature f g h
edge p r 0.8
edge p s 1
edge q s 0.9
edge q t 0.6
edge r u 1
edge s u 0.7
edge s v 0.4
edge t v 0.5
"""

DIAMOND = """\
sort a b c d
edge a c 1
edge a d 1
edge b c 1
edge b d 1
"""

# Not a lattice; e has one declared subsort, so its failing pair (e, d) is not
# a pair of branching sorts, yet it is the first failure in declaration order.
FALLBACK = """\
sort e d c a b
edge a c 1
edge a d 1
edge b c 1
edge b d 1
edge c e 1
"""

# thriller at 0.3 contradicts slasher=1 with slasher->thriller at 0.5
INVALID_MODEL = (
    "elem x\ndeg slasher x 1\ndeg horror x 1\ndeg movie x 1\ndeg thriller x 0.3\n"
    "fun directed_by * x\nfun genre * x\nfun title * x\n"
)

PSI1 = "Y0: u(f -> Y1: v(g -> Y0, h -> Y2: r))"
PSI2 = "X0: v(f -> X1: u(g -> X2: t))"


@pytest.fixture()
def chain_file(tmp_ontology):
    return tmp_ontology(CHAIN, "chain.txt")


@pytest.fixture()
def movies_file(tmp_ontology):
    return tmp_ontology(MOVIES, "movies.txt")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check ------------------------------------------------------------------------


def test_check_accepts_a_lattice(capsys, chain_file):
    code, out, err = run(capsys, "--ontology", chain_file, "check")
    assert code == 0
    assert "ok" in out
    assert err == ""


def test_check_rejects_a_diamond(capsys, tmp_ontology):
    path = tmp_ontology(DIAMOND, "diamond.txt")
    code, out, err = run(capsys, "--ontology", path, "check")
    assert code == 1
    assert out == ""
    assert "c" in err and "d" in err


@pytest.mark.parametrize("command", [["check"], ["unify", "X: a", "Y: b"]])
def test_invalid_ontology_reports_its_first_failing_pair(capsys, tmp_ontology, command):
    path = tmp_ontology(FALLBACK, "fallback.txt")
    code, out, err = run(capsys, "--ontology", path, *command)
    assert code == 1
    assert out == ""
    assert err == (
        "error: no unique greatest lower bound for (e, d); "
        "maximal common lower bounds: a, b\n"
    )


def test_check_reports_parse_errors_with_line(capsys, tmp_ontology):
    path = tmp_ontology("sort a\nedge a b", "broken.txt")
    code, out, err = run(capsys, "--ontology", path, "check")
    assert code == 1
    assert "line 2" in err


@pytest.mark.parametrize("text,line", [("sort top a", "line 1"), ("sort a\nsort b bot", "line 2")])
def test_check_rejects_declared_bounds(capsys, tmp_ontology, text, line):
    path = tmp_ontology(text, "bounds.txt")
    code, out, err = run(capsys, "--ontology", path, "check")
    assert code == 1
    assert out == ""
    assert line in err


def test_missing_file_is_an_input_failure(capsys):
    code, out, err = run(capsys, "--ontology", "/nonexistent/x.txt", "check")
    assert code == 1
    assert "cannot read" in err


def test_non_utf8_file_is_an_input_failure(capsys, tmp_path, chain_file):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xffsort a\n")
    message = (
        f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte\n"
    )
    assert run(capsys, "--ontology", str(path), "check") == (1, "", message)
    assert run(capsys, "--ontology", chain_file, "unify", f"@{path}", "X: a") == (1, "", message)


# -- degree / closure / glb ----------------------------------------------------------


def test_degree_formats_plainly(capsys, chain_file):
    code, out, _ = run(capsys, "--ontology", chain_file, "degree", "s", "s")
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run(capsys, "--ontology", chain_file, "degree", "q", "u")
    assert out.strip() == "0.7"


def test_degree_json(capsys, chain_file):
    code, out, _ = run(capsys, "--ontology", chain_file, "--json", "degree", "q", "v")
    assert json.loads(out) == {"sub": "q", "sup": "v", "degree": 0.5}


def test_degree_unknown_sort_is_input_failure(capsys, chain_file):
    code, _, err = run(capsys, "--ontology", chain_file, "degree", "q", "zonk")
    assert code == 1
    assert "zonk" in err


def test_closure_lists_pairs(capsys, chain_file):
    code, out, _ = run(capsys, "--ontology", chain_file, "closure")
    assert "degree q u 0.7" in out


def test_glb(capsys, chain_file):
    code, out, _ = run(capsys, "--ontology", chain_file, "glb", "u", "v")
    assert code == 0 and out.strip() == "s"


# -- normalize -------------------------------------------------------------------------


def test_normalize_prints_solved_and_eq(capsys, chain_file):
    code, out, _ = run(
        capsys, "--ontology", chain_file, "normalize", "X: u & X: v & X = Y"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "X:s"
    assert "EQ X Y" in lines


def test_normalize_trace(capsys, chain_file):
    code, out, _ = run(
        capsys, "--ontology", chain_file, "--trace", "normalize", "X: u & X: v"
    )
    assert "trace: sort-intersection" in out


def test_normalize_inconsistent_is_data(capsys, movies_file):
    code, out, _ = run(
        capsys, "--ontology", movies_file, "normalize", "X: director & X: string"
    )
    assert code == 0
    assert "INCONSISTENT" in out


def test_normalize_accepts_terms_too(capsys, chain_file):
    code, out, _ = run(
        capsys, "--ontology", chain_file, "normalize", "X: u(f -> Y: v)"
    )
    assert code == 0
    assert "X:u" in out and "X.f ≐ Y" in out


@pytest.mark.parametrize(
    "text, message",
    [
        # text with no '&', '=' or '≐' is a term, and keeps the term's own error
        ("X: a b", "trailing input after term: 'b'"),
        ("Xé: a", "unexpected character 'é' at position 1"),
        # clause tags are ASCII, as term tags are
        ("X١: a & X١.f = Y", "cannot parse constraint: 'X١: a'"),
    ],
)
def test_normalize_reports_the_error_of_the_syntax_it_reads(capsys, tmp_ontology, text, message):
    ontology = tmp_ontology("sort a b\nfeature f\n")
    assert run(capsys, "--ontology", ontology, "normalize", text) == (1, "", f"error: {message}\n")


def test_normalize_json(capsys, chain_file):
    code, out, _ = run(
        capsys, "--ontology", chain_file, "--json", "normalize", "X: u & X: v & X = Y"
    )
    record = json.loads(out)
    assert record["inconsistent"] is False
    assert record["solved"] == "X:s"
    assert record["equalities"] == [["X", "Y"]]


SOLVED_TRACE = ["sort-intersection: X : glb(u, v) = s", "tag-elimination: Y -> X"]
# A sort met with itself asks the lattice nothing, and the trace still shows it.
SAME_SORT_TRACE = ["sort-intersection: X : glb(s, s) = s"]
BOTTOM_TRACE = [
    "sort-intersection: X : glb(director, string) = bot",
    "inconsistent-sort: X is bot",
]


@pytest.mark.parametrize(
    "ontology,clause,text,record",
    [
        (
            "chain",
            "X: u & X: v & X = Y",
            "X:s\nEQ X Y\n" + "".join(f"trace: {line}\n" for line in SOLVED_TRACE),
            {
                "inconsistent": False,
                "solved": "X:s",
                "equalities": [["X", "Y"]],
                "trace": SOLVED_TRACE,
            },
        ),
        (
            "movies",
            "X: director & X: string",
            "INCONSISTENT (X)\n" + "".join(f"trace: {line}\n" for line in BOTTOM_TRACE),
            {"inconsistent": True, "witness": "X", "trace": BOTTOM_TRACE},
        ),
        (
            "chain",
            "X: s & X: s",
            "X:s\n" + "".join(f"trace: {line}\n" for line in SAME_SORT_TRACE),
            {"inconsistent": False, "solved": "X:s", "equalities": [], "trace": SAME_SORT_TRACE},
        ),
    ],
)
def test_normalize_trace_full_output(capsys, tmp_ontology, ontology, clause, text, record):
    path = tmp_ontology(CHAIN if ontology == "chain" else MOVIES)
    code, out, err = run(capsys, "--ontology", path, "--trace", "normalize", clause)
    assert (code, out, err) == (0, text, "")
    code, out, err = run(capsys, "--ontology", path, "--trace", "--json", "normalize", clause)
    assert (code, out, err) == (0, json.dumps(record) + "\n", "")


# -- unify -----------------------------------------------------------------------------


def test_unify_prints_the_flagship_record(capsys, chain_file):
    code, out, _ = run(capsys, "--ontology", chain_file, "unify", PSI1, PSI2)
    assert code == 0
    assert "beta=0.4" in out
    assert "_Z0: q(f -> _Z1: s(g -> _Z0, h -> _Z2: r))" in out


def test_unify_json_round_trips(capsys, chain_file):
    code, out, _ = run(capsys, "--ontology", chain_file, "--json", "unify", PSI1, PSI2)
    record = json.loads(out)
    assert record["beta1"] == 0.4
    assert record["beta2"] == 0.5
    assert record["beta"] == 0.4
    assert record["classes"]["_Z0"] == ["Y0", "X0", "X2"]
    lattice = movie_lattice()  # any signature-bearing parse target works
    graph = None
    reparsed = parse_term(record["unifier"], graph)
    expected = parse_term("Z0: q(f -> Z1: s(g -> Z0, h -> Z2: r))", graph)
    assert graph_equivalent(term_to_graph(reparsed), term_to_graph(expected))


def test_unify_bottom_is_exit_zero(capsys, movies_file):
    code, out, _ = run(
        capsys,
        "--ontology",
        movies_file,
        "unify",
        "X: movie(directed_by -> Y: director)",
        "A: movie(directed_by -> B: string)",
    )
    assert code == 0
    assert out.strip() == "BOTTOM beta=1"


def test_unify_term_parse_error_is_input_failure(capsys, chain_file):
    code, _, err = run(capsys, "--ontology", chain_file, "unify", "X: u(", "X: v")
    assert code == 1
    assert err != ""


def test_unify_at_file_arguments(capsys, chain_file, tmp_path):
    f1 = tmp_path / "t1.txt"
    f2 = tmp_path / "t2.txt"
    f1.write_text(PSI1 + "\n", encoding="utf-8")
    f2.write_text(PSI2 + "\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "--ontology", chain_file, "unify", f"@{f1}", f"@{f2}"
    )
    assert code == 0
    assert "beta=0.4" in out


def test_unify_batch_keeps_input_order(capsys, chain_file, tmp_path):
    batch = tmp_path / "pairs.txt"
    batch.write_text(
        f"X: u\tY: v\n# comment\n\n{PSI1}\t{PSI2}\nX: p\tY: q\n", encoding="utf-8"
    )
    code, out, _ = run(capsys, "--ontology", chain_file, "unify", "--batch", str(batch))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0] == "beta=0.4\t_Z0: s"  # glb(u, v) = s at min(0.7, 0.4)
    assert lines[1].startswith("beta=0.4\t_Z0: q(")
    assert lines[2] == "BOTTOM beta=1"  # glb(p, q) = bot


def test_unify_batch_json(capsys, chain_file, tmp_path):
    batch = tmp_path / "pairs.txt"
    batch.write_text(f"{PSI1}\t{PSI2}\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "--ontology", chain_file, "--json", "unify", "--batch", str(batch)
    )
    records = json.loads(out)
    assert len(records) == 1 and records[0]["beta"] == 0.4


@pytest.mark.parametrize(
    "pair, message",
    [
        ("X: nosuch\tY: u", "unknown sort: nosuch"),
        ("X: s(f -> Y: u, f -> Z: v)\tY: u", "tag X repeats feature(s): f"),
        ("X: u)\tY: v", "trailing input after term: ')'"),
    ],
    ids=["unknown-sort", "not-normal", "syntax"],
)
def test_unify_batch_errors_name_their_line(capsys, chain_file, tmp_path, pair, message):
    batch = tmp_path / "pairs.txt"
    batch.write_text(f"X: u\tY: v\n# comment\n{pair}\nX: p\tY: q\n", encoding="utf-8")
    code, out, err = run(capsys, "--ontology", chain_file, "unify", "--batch", str(batch))
    assert code == 1
    assert out == ""
    assert err == f"error: {batch}:3: {message}\n"


# -- subsumes --------------------------------------------------------------------------


def test_subsumes_reports_degree_and_witness(capsys, movies_file):
    code, out, _ = run(
        capsys,
        "--ontology",
        movies_file,
        "subsumes",
        "X2: movie(title -> W2: string, genre -> Z2: slasher, directed_by -> Y2: director)",
        "X1: movie(directed_by -> Y1: person, genre -> Z1: thriller)",
    )
    assert code == 0
    assert out.splitlines()[0] == "degree=0.5"
    assert "Z2 <- Z1" in out


def test_subsumes_none(capsys, chain_file):
    code, out, _ = run(
        capsys,
        "--ontology",
        chain_file,
        "subsumes",
        "X: s(f -> Y: u, g -> Z: u)",
        "A: s(f -> B: top, g -> B)",
    )
    assert code == 0
    assert out.strip() == "none"


def test_subsumes_json(capsys, movies_file):
    code, out, _ = run(
        capsys,
        "--ontology",
        movies_file,
        "--json",
        "subsumes",
        "X: slasher",
        "Y: thriller",
    )
    record = json.loads(out)
    assert record["degree"] == 0.5
    assert record["witness"] == {"Y": "X"}


# -- enrich / dot ----------------------------------------------------------------------


def test_enrich_emits_a_valid_ontology(capsys, tmp_ontology):
    path = tmp_ontology(
        "sort car bike truck vehicle\n"
        "edge car vehicle 1\nedge bike vehicle 1\nedge truck vehicle 1\n"
        "sim car truck 0.8\nsim car bike 0.4\n",
        "sim.txt",
    )
    code, out, _ = run(capsys, "--ontology", path, "enrich")
    assert code == 0
    assert "edge car truck 0.8" in out
    assert "# dropped truck car 0.8 (cycle)" in out


def test_enrich_and_degree_write_every_digit(capsys, tmp_ontology):
    path = tmp_ontology("sort a b c\nedge a c 1\nedge b c 1\nsim a b 0.1234567\n", "sim.txt")
    code, out, _ = run(capsys, "--ontology", path, "enrich")
    assert code == 0 and "edge a b 0.1234567\n" in out
    enriched = tmp_ontology(out, "enriched.txt")
    assert run(capsys, "--ontology", enriched, "degree", "a", "b") == (0, "0.1234567\n", "")
    assert run(capsys, "--ontology", enriched, "degree", "a", "c") == (0, "1\n", "")


def test_dot_ontology_and_term(capsys, chain_file):
    code, out, _ = run(capsys, "--ontology", chain_file, "dot")
    assert code == 0 and out.startswith("digraph")
    code, out, _ = run(
        capsys, "--ontology", chain_file, "dot", "--term", "X: s(f -> Y: u)"
    )
    assert code == 0 and "digraph" in out and '"Y"' in out


# -- eval ------------------------------------------------------------------------------


def test_eval_table_and_at(capsys, movies_file, tmp_path):
    interp = tmp_path / "m.interp"
    interp.write_text(MOVIE_MODEL, encoding="utf-8")
    query = "X: thriller(directed_by -> Y: director)"
    code, out, _ = run(
        capsys, "--ontology", movies_file, "eval", "--interp", str(interp), query
    )
    assert code == 0
    table = dict(line.split("\t") for line in out.strip().splitlines())
    assert table["halloween"] == "0.5" and table["psycho"] == "1"
    code, out, _ = run(
        capsys,
        "--ontology",
        movies_file,
        "eval",
        "--interp",
        str(interp),
        "--at",
        "halloween",
        query,
    )
    assert out.strip() == "0.5"
    # An empty --at names no element; it does not ask for the whole table.
    argv = ["--ontology", movies_file, "eval", "--interp", str(interp), "--at", "", query]
    assert run(capsys, *argv) == (1, "", "error: unknown element: \n")


def test_eval_assign_checks_its_flags(capsys, movies_file, tmp_path):
    interp = tmp_path / "m.interp"
    interp.write_text(MOVIE_MODEL, encoding="utf-8")
    argv = ["--ontology", movies_file, "eval", "--interp", str(interp)]
    query = "X: thriller(directed_by -> Y: director)"
    assign = ["--assign", "X=halloween", "--assign", "Y=carpenter"]
    assert run(capsys, *argv, *assign, query) == (0, "0.5\n", "")
    # --at would be ignored next to an assignment that places the root.
    code, out, err = run(capsys, *argv, "--at", "psycho", *assign, query)
    assert (code, out) == (1, "")
    assert err == "error: --at cannot be combined with --assign: the assignment fixes the root's element\n"
    # A tag the term lacks is most likely a misspelt one.
    code, out, err = run(capsys, *argv, *assign, "--assign", "Z=null", query)
    assert (code, out) == (1, "")
    assert err == "error: --assign names a tag the term does not have: Z\n"
    # An assignment without Y fails, whether or not X's sort holds of its element.
    missing = "error: assignment missing tag Y\n"
    assert run(capsys, *argv, "--assign", "X=hitchcock", query) == (1, "", missing)
    assert run(capsys, *argv, "--assign", "X=psycho", query) == (1, "", missing)


def test_eval_table_full_output(capsys, movies_file, tmp_path):
    interp = tmp_path / "m.interp"
    interp.write_text(MOVIE_MODEL, encoding="utf-8")
    query = "X: thriller(directed_by -> Y: director)"
    argv = ["--ontology", movies_file, "eval", "--interp", str(interp), query]
    table = {
        "psycho": 1.0,
        "halloween": 0.5,
        "hitchcock": 0.0,
        "carpenter": 0.0,
        "psycho_title": 0.0,
        "halloween_title": 0.0,
        "null": 0.0,
    }
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, "".join(f"{e}\t{d:g}\n" for e, d in table.items()))
    code, out, _ = run(capsys, "--json", *argv)
    assert (code, out) == (0, json.dumps(table) + "\n")


def test_eval_rejects_conflicting_model_lines(capsys, tmp_ontology, tmp_path):
    # Keeping the last of two conflicting lines would print x 0 / y 0 with
    # exit 0 for the first model and blame a membership gap for the second.
    path = tmp_ontology("sort a b\nedge a b 1\nfeature f\n", "ab.txt")
    interp = tmp_path / "m.interp"
    head = "elem x y\ndeg a x 1\ndeg b x 1\n"
    for model, message in [
        ("fun f * x\nfun f x x\nfun f x y\n", "line 6: conflicting images for (f, x): x vs y"),
        ("deg b x 0.2\nfun f * x\n", "line 4: conflicting degrees for (b, x): 1 vs 0.2"),
    ]:
        interp.write_text(head + model, encoding="utf-8")
        argv = ["--ontology", path, "eval", "--interp", str(interp), "X: a(f -> Y: b)"]
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_eval_invalid_model_is_semantic_failure(capsys, movies_file, tmp_path):
    interp = tmp_path / "bad.interp"
    interp.write_text(INVALID_MODEL, encoding="utf-8")
    code, out, err = run(
        capsys, "--ontology", movies_file, "eval", "--interp", str(interp), "X: movie"
    )
    assert code == 2
    assert "invalid interpretation" in err
    assert out == ""


def test_eval_names_membership_gap_degrees_exactly(capsys, tmp_ontology, tmp_path):
    # Written with %g, both sides of this gap read 0.123457.
    path = tmp_ontology("sort a b\nedge a b 1\n", "ab.txt")
    interp = tmp_path / "m.interp"
    interp.write_text("elem x\ndeg a x 0.1234568\ndeg b x 0.1234567\n", encoding="utf-8")
    code, out, err = run(capsys, "--ontology", path, "eval", "--interp", str(interp), "X: a")
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == (
        "invalid interpretation: membership gap: a(x)=0.1234568 and degree(a,b)=1 "
        "force b(x) >= 0.1234568, found 0.1234567"
    )


# -- theorems --------------------------------------------------------------------------


def test_theorems_exit_zero_and_summarize(capsys):
    code, out, _ = run(
        capsys, "--seed", "5", "theorems", "--max-domain", "3", "--max-sorts", "4"
    )
    assert code == 0
    assert "all checks passed" in out


def test_theorems_json(capsys):
    code, out, _ = run(
        capsys, "--json", "--seed", "5", "theorems", "--max-domain", "3",
        "--max-sorts", "4",
    )
    record = json.loads(out)
    assert record["passed"] is True
    assert record["seed"] == 5
    assert any(c["name"] == "sample denotation degrees" for c in record["checks"])


THEOREM_CASES = [
    ("sample interpretation is valid", 1),
    ("sample denotation degrees", 19),
    ("sample satisfaction thresholds", 3),
    ("sample morphism degree", 1),
    ("sample generated subalgebra", 2),
    ("negative control: corrupted model is flagged", 1),
    ("random interpretations validate", 80),
    ("denotation matches satisfaction threshold", 378),
    ("normalization preserves solutions on the support", 410),
    ("solved clauses hold in their own shape at degree 1", 40),
    ("morphisms extend solutions", 6),
    ("solutions extract to morphisms", 46),
    ("denotation equals the anchored morphism degree", 80),
    ("morphism composition keeps the min degree", 11),
    ("generated subalgebras are transparent", 66),
    ("principal-sort targets absorb every model", 40),
    ("approximation degree agrees across both routes", 40),
]


def test_theorems_full_output(capsys):
    argv = ["--seed", "5", "theorems", "--max-domain", "3", "--max-sorts", "4"]
    code, out, _ = run(capsys, *argv)
    lines = [f"[ok]   {name} ({cases} cases)" for name, cases in THEOREM_CASES]
    assert (code, out) == (0, "\n".join(lines + ["all checks passed (seed 5)"]) + "\n")
    code, out, _ = run(capsys, "--json", *argv)
    checks = [{"name": name, "cases": cases, "failures": []} for name, cases in THEOREM_CASES]
    assert (code, out) == (0, json.dumps({"passed": True, "seed": 5, "checks": checks}) + "\n")


def test_theorems_report_failures_and_exit_two(capsys, monkeypatch):
    # A denotation that is always 0 breaks two checks: the sample degrees at
    # halloween and psycho, and 45 anchored morphism degrees, of which the
    # summary lists three.
    monkeypatch.setattr("fuzzyosf.semantics.best_denotation", lambda t, model, element: 0.0)
    report = check_theorems(seed=5, max_domain=3, max_sorts=4)
    assert report.passed is False
    assert [(c.name, len(c.failures)) for c in report.checks if not c.passed] == [
        ("sample denotation degrees", 2),
        ("denotation equals the anchored morphism degree", 45),
    ]
    lines = report.summary().splitlines()
    k = lines.index("[FAIL] sample denotation degrees (2 failures / 19 cases)")
    assert lines[k + 1 : k + 4] == [
        "       best degree at halloween: 0 != 0.5",
        "       best degree at psycho: 0 != 1",
        "[ok]   sample satisfaction thresholds (3 cases)",
    ]
    k = lines.index("[FAIL] denotation equals the anchored morphism degree (45 failures / 80 cases)")
    assert [line.startswith("       ") for line in lines[k + 1 : k + 5]] == [True, True, True, False]
    assert lines[-1] == "CHECKS FAILED (seed 5)"
    code, out, err = run(capsys, "--seed", "5", "theorems", "--max-domain", "3", "--max-sorts", "4")
    assert (code, out, err) == (2, report.summary() + "\n", "")


# -- global behavior ---------------------------------------------------------------------


def test_commands_without_ontology_fail_politely(capsys):
    code, _, err = run(capsys, "degree", "a", "b")
    assert code == 1
    assert "--ontology" in err


@pytest.mark.parametrize("flag", ["--max-domain", "--max-sorts", "--max-features"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_theorems_rejects_sizes_below_one(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["theorems", flag, value])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def test_theorems_rejects_a_size_that_is_not_an_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["theorems", "--max-domain", "x"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:")
    assert captured.err.endswith("error: argument --max-domain: not an integer: 'x'\n")


# Each failure class, one row per way in: the exit code, an empty stdout, and
# the first word on stderr.
EXIT_CLASSES = [
    # Usage errors: argparse rejects the command line before anything runs.
    (["--ontology", "{movies}", "degree", "movie"], 2, "usage:"),
    (["--ontology", "{movies}", "nosuch"], 2, "usage:"),
    (["--ontology", "{movies}", "--dense", "closure"], 2, "usage:"),
    (["theorems", "--max-domain", "0"], 2, "usage:"),
    # Input failures: a file, term or name that does not read.
    (["--ontology", "{movies}", "degree", "movie", "zonk"], 1, "error:"),
    (["--ontology", "{movies}", "unify", "X: movie(", "Y: movie"], 1, "error:"),
    # Semantic failures: the input reads, but the model breaks a validity law.
    (["--ontology", "{movies}", "eval", "--interp", "{invalid}", "X: movie"], 2, "invalid"),
    # Terms next to --batch are refused before either file is read, and an
    # empty term is a term that does not parse.
    (["--ontology", "{movies}", "unify", "--batch", "{invalid}", "X: movie", "Y: zork"], 1, "error:"),
    (["--ontology", "{movies}", "unify", "X: movie", ""], 1, "error:"),
    # One row per subcommand and class not covered above.  theorems reads no
    # input that argparse has not checked, and only eval and theorems can fail
    # semantically; theorems only on a broken package.
    (["--ontology", "{movies}", "check", "extra"], 2, "usage:"),
    (["--ontology", "{movies}", "closure", "extra"], 2, "usage:"),
    (["--ontology", "{movies}", "glb", "movie"], 2, "usage:"),
    (["--ontology", "{movies}", "normalize"], 2, "usage:"),
    (["--ontology", "{movies}", "unify", "--nosuch"], 2, "usage:"),
    (["--ontology", "{movies}", "subsumes", "X: movie"], 2, "usage:"),
    (["--ontology", "{movies}", "enrich", "extra"], 2, "usage:"),
    (["--ontology", "{movies}", "dot", "--nosuch"], 2, "usage:"),
    (["--ontology", "{movies}", "eval", "X: movie"], 2, "usage:"),
    (["--ontology", "{invalid}", "check"], 1, "error:"),
    (["closure"], 1, "error:"),
    (["--ontology", "{movies}", "glb", "movie", "zonk"], 1, "error:"),
    (["--ontology", "{movies}", "normalize", "X: zonk"], 1, "error:"),
    (["--ontology", "{movies}", "subsumes", "X: movie", "Y: zonk"], 1, "error:"),
    (["--ontology", "{movies}", "enrich"], 1, "error:"),
    (["--ontology", "{movies}", "dot", "--term", "X: movie("], 1, "error:"),
    (
        ["--ontology", "{movies}", "eval", "--interp", "{invalid}", "--at", "x", "--assign", "X=x", "X: movie"],
        1,
        "error:",
    ),
]


@pytest.mark.parametrize("argv,code,first_word", EXIT_CLASSES)
def test_exit_code_classes(capsys, movies_file, tmp_path, argv, code, first_word):
    invalid = tmp_path / "bad.interp"
    invalid.write_text(INVALID_MODEL, encoding="utf-8")
    argv = [arg.format(movies=movies_file, invalid=invalid) for arg in argv]
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert (got, captured.out, captured.err.split()[0]) == (code, "", first_word)


def test_unify_batch_refuses_terms_before_reading_files(capsys, chain_file, tmp_path):
    batch = tmp_path / "pairs.txt"
    batch.write_text("X: u\tY: v\n", encoding="utf-8")
    refused = "error: --batch cannot be combined with terms: the file holds the pairs\n"
    for ontology, path in ((chain_file, batch), (tmp_path / "no.onto", tmp_path / "no.tsv")):
        argv = ["--ontology", str(ontology), "unify", "--batch", str(path)]
        assert run(capsys, *argv, "X: p", "Y: zork") == (1, "", refused)
        assert run(capsys, *argv, "") == (1, "", refused)
    # Without --batch, an empty term fails on its syntax, like any other term.
    code, out, err = run(capsys, "--ontology", chain_file, "unify", "X: p", "")
    assert (code, out, err) == (1, "", "error: unexpected end of input; expected a term\n")


# -- input boundaries ------------------------------------------------------------------


def test_closure_json_lists_every_positive_pair(capsys, tmp_ontology):
    path = tmp_ontology("sort a b\nfeature f\nedge a b 0.5\n", "tiny.txt")
    pairs = [
        ("a", "a", 1.0), ("a", "b", 0.5), ("a", "top", 1.0), ("b", "b", 1.0), ("b", "top", 1.0),
        ("bot", "a", 1.0), ("bot", "b", 1.0), ("bot", "bot", 1.0), ("bot", "top", 1.0),
        ("top", "top", 1.0),
    ]
    expected = json.dumps([{"sub": s, "sup": t, "degree": d} for s, t, d in pairs]) + "\n"
    assert run(capsys, "--ontology", path, "--json", "closure") == (0, expected, "")


def test_enrich_json_lists_edges_and_dropped(capsys, tmp_ontology):
    path = tmp_ontology(
        "sort car bike vehicle\nedge car vehicle 1\nedge bike vehicle 1\nsim car bike 0.4\n", "sim.txt"
    )
    payload = {
        "sorts": ["car", "bike", "vehicle", "bot", "top"],
        "features": [],
        "edges": [["car", "vehicle", 1.0], ["bike", "vehicle", 1.0], ["bike", "car", 0.4]],
        "dropped": [{"sub": "car", "sup": "bike", "degree": 0.4, "reason": "cycle"}],
    }
    assert run(capsys, "--ontology", path, "--json", "enrich") == (0, json.dumps(payload) + "\n", "")


@pytest.mark.parametrize(
    "command, message",
    [
        (["unify", "--batch", "{batch}"], "{batch}:2: expected two tab-separated terms"),
        (["eval", "--interp", "{interp}", "--assign", "X", "X: movie"], "bad --assign (want TAG=ELEMENT): 'X'"),
        (["eval", "--interp", "{interp}", "--assign", "X=zz", "X: movie"], "unknown element in --assign: zz"),
        (
            ["eval", "--interp", "{interp}", "--assign", "X=halloween", "--assign", "X=psycho", "X: thriller"],
            "--assign gives tag X twice",
        ),
        (["unify", "X: movie"], "unify needs two terms (or --batch <file>)"),
    ],
    ids=[
        "batch-line-without-tab",
        "assign-without-equals",
        "assign-unknown-element",
        "assign-repeated-tag",
        "unify-with-one-term",
    ],
)
def test_cli_input_errors(capsys, movies_file, tmp_path, command, message):
    paths = {"batch": tmp_path / "pairs.txt", "interp": tmp_path / "m.interp"}
    paths["batch"].write_text("X: movie\tY: thriller\nX: movie Y: thriller\n", encoding="utf-8")
    paths["interp"].write_text(MOVIE_MODEL, encoding="utf-8")
    argv = [arg.format(**paths) for arg in command]
    expected = "error: " + message.format(**paths) + "\n"
    assert run(capsys, "--ontology", movies_file, *argv) == (1, "", expected)


# -- whole transcripts -----------------------------------------------------------------

GRID = "".join(  # g{i}{j} below g{i+1}{j} and g{i}{j+1}: nine sorts, every pair with a unique GLB
    (f"edge g{i}{j} g{i + 1}{j} 1\n" if i < 2 else "") + (f"edge g{i}{j} g{i}{j + 1} 1\n" if j < 2 else "")
    for i in range(3)
    for j in range(3)
)
AF = "sort a b\nfeature f\n"
ABC = "sort a b c\nfeature f\nedge a b 0.5\n"  # a below b at 0.5

# One row per command line, by name: the ontology, the arguments ('{file}' names a
# second file, written with the row's text), and the whole (exit code,
# stdout, stderr).
TRANSCRIPTS = {
    # eval on a model with one gap: x is in a, not in b above a.
    "eval-gap": (
        "sort a b\nedge a b 1\n",
        ["eval", "--interp", "{file}", "X: a"],
        "elem x\ndeg a x 1\n",
        (
            2,
            "",
            "invalid interpretation: membership gap: a(x)=1 and degree(a,b)=1 force b(x) >= 1, found 0\n"
            "error: 1 validity violations\n",
        ),
    ),
    # The two sim lines state a ~ b both ways, so b -> a would close the
    # cycle a -> b -> a and is dropped; the result is a lattice.
    "enrich-drops-cycle": (
        "sort a b c\nedge a c 1\nedge b c 1\nsim a b 0.5\nsim b a 0.5\n",
        ["enrich"],
        None,
        (0, "sort a\nsort b\nsort c\nedge a c 1\nedge b c 1\nedge a b 0.5\n# dropped b a 0.5 (cycle)\n", ""),
    ),
    # A stray character outranks the unknown sort before it.
    "unify-stray-character-first": (
        "sort a b\n",
        ["unify", "X: nosuch(f -> Y) é", "Z: b"],
        None,
        (1, "", "error: unexpected character 'é' at position 18\n"),
    ),
    # A batch line that ends inside a term is named.
    "batch-line-inside-term": (
        "sort a b\n",
        ["unify", "--batch", "{file}"],
        "X: a\tY: b\nX: a(\tY: b\n",
        (1, "", "error: {file}:2: unexpected end of input; expected a feature name\n"),
    ),
    # The loader reads the lines again and names the first that declares a step of the cycle.
    "check-cycle-line": (
        "edge c d 1\nedge b a 1\nedge a b 1\n",
        ["check"],
        None,
        (1, "", "error: line 2: subsumption cycle: b -> a -> b\n"),
    ),
    # An out-of-range degree on line 2 outranks a bad name on line 3.
    "check-degree-before-name": (
        "sort a\nedge a b 2\nsort Bad\n",
        ["check"],
        None,
        (1, "", "error: line 2: edge degree must lie in (0, 1]: 2\n"),
    ),
    "check-grid": (GRID, ["check"], None, (0, "ok: 11 sorts, 0 features, 12 edges\n", "")),
    "glb-grid": (GRID, ["glb", "g12", "g21"], None, (0, "g11\n", "")),
    "dot-term": (
        AF,
        ["dot", "--term", "X: a(f -> Y: b)"],
        None,
        (
            0,
            'digraph term {\n  rankdir=LR;\n  "X" [label="X: a", peripheries=2];\n  "Y" [label="Y: b"];\n'
            '  "X" -> "Y" [label="f"];\n}\n',
            "",
        ),
    ),
    "unify": (
        AF,
        ["unify", "X: a(f -> Y: b)", "Z: a"],
        None,
        (0, "_Z0: a(f -> _Z1: b)\nbeta1=1 beta2=1 beta=1\nclass _Z0 = X Z\nclass _Z1 = Y\n", ""),
    ),
    # Term 2's clashing X becomes X___: X_ and X__ are taken.
    "unify-renames-clash": (
        AF,
        ["unify", "X: a(f -> X_: b)", "X: a(f -> X__: b)"],
        None,
        (0, "_Z0: a(f -> _Z1: b)\nbeta1=1 beta2=1 beta=1\nclass _Z0 = X X___\nclass _Z1 = X_ X__\n", ""),
    ),
    "normalize": (AF, ["normalize", "X: a & X.f = Y & X.f ≐ Z & Z: b"], None, (0, "X:a & Y:b & X.f ≐ Y\nEQ Y Z\n", "")),
    # Only term 2's W moves down (b to a), so beta1 is 1 and beta2 is 0.5.
    "unify-betas": (
        ABC,
        ["unify", "X: a(f -> Y: b)", "Z: b(f -> W: b)"],
        None,
        (0, "_Z0: a(f -> _Z1: b)\nbeta1=1 beta2=0.5 beta=0.5\nclass _Z0 = X Z\nclass _Z1 = Y W\n", ""),
    ),
    # b meets c at bot, so the pair is BOTTOM at degree 1.
    "unify-bottom": (ABC, ["unify", "X: a(f -> Y: b)", "Z: b(f -> W: c)"], None, (0, "BOTTOM beta=1\n", "")),
    # The two values of X.f force Y = Z, and the merged class meets b and c
    # at bot: one trace line per rule firing, in firing order.
    "normalize-trace": (
        ABC,
        ["--trace", "normalize", "X: b & X: a & X.f = Y & X.f = Z & Y: b & Z: c"],
        None,
        (
            0,
            "INCONSISTENT (Y)\n"
            "trace: sort-intersection: X : glb(b, a) = a\n"
            "trace: feature-functionality: X.f forces Y = Z\n"
            "trace: tag-elimination: Z -> Y\n"
            "trace: sort-intersection: Y : glb(b, c) = bot\n"
            "trace: inconsistent-sort: Y is bot\n",
            "",
        ),
    ),
}


@pytest.mark.parametrize("ontology,argv,text,expected", list(TRANSCRIPTS.values()), ids=list(TRANSCRIPTS))
def test_transcripts(capsys, tmp_ontology, tmp_path, ontology, argv, text, expected):
    path = tmp_path / "file.txt"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    argv = [arg.replace("{file}", str(path)) for arg in argv]
    code, out, err = expected
    expected = (code, out, err.replace("{file}", str(path)))
    assert run(capsys, "--ontology", tmp_ontology(ontology), *argv) == expected

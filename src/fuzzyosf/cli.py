"""Command-line front end.

Subcommands: check, closure, degree, glb, normalize, unify, subsumes,
enrich, dot, eval, theorems.  Global flags: --ontology FILE, --json,
--trace, --seed N.

Exit codes: 0 success (data-level outcomes like an inconsistent clause or a
bottom unifier are still success), 1 input failure (unreadable or malformed
files, bad terms, invalid ontologies), 2 semantic failure (invalid
interpretation, failing self-checks).  A usage error (a missing argument,
an unknown command or flag, or a flag value argparse rejects, such as
``theorems --max-domain 0``) also exits 2, with ``usage:`` on stderr.
Operands that a flag rules out (``eval --at`` with ``--assign``, terms next
to ``unify --batch``) are an input failure, found before any file is read.
An empty term is still a term: ``unify 'X: a' ''`` fails on its syntax.
stderr carries diagnostics only.
"""

from __future__ import annotations

import argparse
import json
import sys

from .lattice import (
    OntologyError,
    SortLattice,
    _fmt,
    enrich_from_similarity,
    format_ontology,
    load_ontology,
)
from .terms import (
    Clause,
    format_clause,
    format_term,
    graph_to_dot,
    parse_clause,
    parse_term,
    term_tags,
    term_to_clause,
    term_to_graph,
)
from .normalize import Inconsistent, normalize, unify
from .subsumption import subsumption_witness
from .semantics import (
    best_denotation,
    check_theorems,
    denote,
    load_interpretation,
    validate_interpretation,
)


class _InputFailure(Exception):
    """Wraps anything that should exit 1 with a diagnostic."""


class _SemanticFailure(Exception):
    """Wraps anything that should exit 2 with a diagnostic."""


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise _InputFailure(f"cannot read {path}: {err.strerror}") from err
    except UnicodeDecodeError as err:
        raise _InputFailure(f"cannot read {path}: {err}") from err


def _maybe_file(arg: str) -> str:
    """Inline text, or the contents of a file when the argument is @path."""
    if arg.startswith("@"):
        return _read_text(arg[1:]).strip()
    return arg


def _positive_int(text: str) -> int:
    """argparse type for a count of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {value}")
    return value


def _ontology(args):
    """The ``--ontology`` file as :func:`load_ontology` reads it: ``(graph, sims)``."""
    if not args.ontology:
        raise _InputFailure("this command needs --ontology <file>")
    return load_ontology(_read_text(args.ontology))


def _load_session(args) -> SortLattice:
    graph, _ = _ontology(args)
    return SortLattice(graph).validate()


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(text)


# -- subcommands ---------------------------------------------------------------


def cmd_check(args) -> int:
    graph, sim = _ontology(args)
    SortLattice(graph).validate()
    n_sorts = len(graph.sorts)
    payload = {
        "ok": True,
        "sorts": n_sorts,
        "features": len(graph.features),
        "edges": len(graph.edges),
        "sims": sum(1 for a, b in sim if a <= b),
    }
    _emit(
        args,
        payload,
        f"ok: {n_sorts} sorts, {len(graph.features)} features, "
        f"{len(graph.edges)} edges",
    )
    return 0


def cmd_closure(args) -> int:
    lattice = _load_session(args)
    pairs = lattice.closure_pairs()
    if args.json:
        print(json.dumps([{"sub": s, "sup": t, "degree": d} for s, t, d in pairs]))
    else:
        for s, t, d in pairs:
            print(f"degree {s} {t} {_fmt(d)}")
    return 0


def cmd_degree(args) -> int:
    lattice = _load_session(args)
    d = lattice.degree(args.sub, args.sup)
    _emit(args, {"sub": args.sub, "sup": args.sup, "degree": d}, _fmt(d))
    return 0


def cmd_glb(args) -> int:
    lattice = _load_session(args)
    meet = lattice.glb(args.left, args.right)
    _emit(args, {"left": args.left, "right": args.right, "glb": meet}, meet)
    return 0


def _parse_term_or_clause(text: str, graph) -> Clause:
    """A clause either way: text with '&', '=' or '≐', which no term has, is
    parsed as a clause; any other is parsed as a term and flattened."""
    if any(mark in text for mark in "&=≐"):
        return parse_clause(text, graph)
    return term_to_clause(parse_term(text, graph))


def cmd_normalize(args) -> int:
    lattice = _load_session(args)
    clause = _parse_term_or_clause(_maybe_file(args.input), lattice.graph)
    nf = normalize(clause, lattice, trace=args.trace)
    if isinstance(nf, Inconsistent):
        payload = {"inconsistent": True, "witness": nf.tag, "trace": nf.trace}
        lines = [f"INCONSISTENT ({nf.tag})"]
    else:
        payload = {
            "inconsistent": False,
            "solved": format_clause(nf.solved),
            "equalities": [[a, b] for a, b in nf.equalities],
            "trace": nf.trace,
        }
        lines = [format_clause(nf.solved) if nf.solved.constraints else "(empty)"]
        for a, b in nf.equalities:
            lines.append(f"EQ {a} {b}")
    if args.trace:
        lines.extend(f"trace: {line}" for line in nf.trace)
    _emit(args, payload, "\n".join(lines))
    return 0


def _unify_payload(result) -> dict:
    return {
        "unifier": None if result.unifier is None else format_term(result.unifier),
        "beta1": result.beta1,
        "beta2": result.beta2,
        "beta": result.beta,
        "classes": {rep: list(members) for rep, members in result.tag_classes.items()},
    }


def _unify_text(result) -> str:
    if result.is_bottom:
        return "BOTTOM beta=1"
    lines = [
        format_term(result.unifier),
        f"beta1={_fmt(result.beta1)} beta2={_fmt(result.beta2)} beta={_fmt(result.beta)}",
    ]
    for rep, members in result.tag_classes.items():
        lines.append(f"class {rep} = {' '.join(members)}")
    return "\n".join(lines)


def cmd_unify(args) -> int:
    if args.batch is not None and args.term1 is not None:
        raise _InputFailure("--batch cannot be combined with terms: the file holds the pairs")
    lattice = _load_session(args)
    if args.batch is not None:
        records = []
        for lineno, raw in enumerate(_read_text(args.batch).splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise _InputFailure(
                    f"{args.batch}:{lineno}: expected two tab-separated terms"
                )
            try:
                t1 = parse_term(parts[0], lattice.graph)
                t2 = parse_term(parts[1], lattice.graph)
                records.append(unify(t1, t2, lattice))
            except (OntologyError, ValueError) as err:
                raise _InputFailure(f"{args.batch}:{lineno}: {err}") from err
        if args.json:
            print(json.dumps([_unify_payload(r) for r in records]))
        else:
            for r in records:
                if r.is_bottom:
                    print("BOTTOM beta=1")
                else:
                    print(f"beta={_fmt(r.beta)}\t{format_term(r.unifier)}")
        return 0
    if args.term2 is None:
        raise _InputFailure("unify needs two terms (or --batch <file>)")
    t1 = parse_term(_maybe_file(args.term1), lattice.graph)
    t2 = parse_term(_maybe_file(args.term2), lattice.graph)
    result = unify(t1, t2, lattice)
    _emit(args, _unify_payload(result), _unify_text(result))
    return 0


def cmd_subsumes(args) -> int:
    lattice = _load_session(args)
    specific = parse_term(_maybe_file(args.term1), lattice.graph)
    general = parse_term(_maybe_file(args.term2), lattice.graph)
    witness = subsumption_witness(specific, general, lattice)
    if witness is None:
        _emit(args, {"degree": 0.0, "witness": None}, "none")
        return 0
    payload = {"degree": witness.degree, "witness": witness.mapping}
    lines = [f"degree={_fmt(witness.degree)}"]
    for general_tag, specific_tag in witness.mapping.items():
        lines.append(f"{specific_tag} <- {general_tag}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_enrich(args) -> int:
    graph, sim = _ontology(args)
    enriched, dropped = enrich_from_similarity(graph, sim)
    SortLattice(enriched).validate()
    if args.json:
        payload = {
            "sorts": [s for s in enriched.sorts],
            "features": list(enriched.features),
            "edges": [[a, b, d] for a, b, d in enriched.edges],
            "dropped": [
                {"sub": e.sub, "sup": e.sup, "degree": e.degree, "reason": e.reason}
                for e in dropped
            ],
        }
        print(json.dumps(payload))
    else:
        sys.stdout.write(format_ontology(enriched))
        for e in dropped:
            print(f"# dropped {e.sub} {e.sup} {_fmt(e.degree)} ({e.reason})")
    return 0


def cmd_dot(args) -> int:
    lattice = _load_session(args)
    if args.term:
        term = parse_term(_maybe_file(args.term), lattice.graph)
        print(graph_to_dot(term_to_graph(term)))
    else:
        print(lattice.graph.to_dot())
    return 0


def cmd_eval(args) -> int:
    if args.at is not None and args.assign:
        raise _InputFailure("--at cannot be combined with --assign: the assignment fixes the root's element")
    lattice = _load_session(args)
    model = load_interpretation(_read_text(args.interp), lattice.graph)
    problems = validate_interpretation(model, lattice)
    if problems:
        for p in problems:
            print(f"invalid interpretation: {p}", file=sys.stderr)
        raise _SemanticFailure(f"{len(problems)} validity violations")
    term = parse_term(_maybe_file(args.term), lattice.graph)
    domain = set(model.elements)
    if args.assign:
        alpha: dict[str, str] = {}
        tags = term_tags(term)
        for item in args.assign:
            if "=" not in item:
                raise _InputFailure(f"bad --assign (want TAG=ELEMENT): {item!r}")
            tag, _, elem = item.partition("=")
            if tag not in tags:
                raise _InputFailure(f"--assign names a tag the term does not have: {tag}")
            if tag in alpha:
                raise _InputFailure(f"--assign gives tag {tag} twice")
            if elem not in domain:
                raise _InputFailure(f"unknown element in --assign: {elem}")
            alpha[tag] = elem
        degree = denote(term, model, alpha)
        _emit(args, {"degree": degree}, _fmt(degree))
        return 0
    if args.at is not None:
        if args.at not in domain:
            raise _InputFailure(f"unknown element: {args.at}")
        degree = best_denotation(term, model, args.at)
        _emit(args, {"element": args.at, "degree": degree}, _fmt(degree))
        return 0
    table = {e: best_denotation(term, model, e) for e in model.elements}
    _emit(args, table, "\n".join(f"{e}\t{_fmt(degree)}" for e, degree in table.items()))
    return 0


def cmd_theorems(args) -> int:
    report = check_theorems(
        seed=args.seed,
        max_domain=args.max_domain,
        max_sorts=args.max_sorts,
        max_features=args.max_features,
    )
    payload = {
        "passed": report.passed,
        "seed": report.seed,
        "checks": [
            {"name": c.name, "cases": c.cases, "failures": c.failures}
            for c in report.checks
        ],
    }
    _emit(args, payload, report.summary())
    return 0 if report.passed else 2


# -- wiring ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzyosf",
        description="Graded order-sorted feature terms: lattices, unification, models.",
    )
    parser.add_argument("--ontology", metavar="FILE", help="ontology file for the session")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--trace", action="store_true", help="log rewrite rules (normalize)")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized commands")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate an ontology file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("closure", help="print every positive subsumption degree")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("degree", help="one graded-subsumption query")
    p.add_argument("sub")
    p.add_argument("sup")
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("glb", help="greatest lower bound of two sorts")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_glb)

    p = sub.add_parser("normalize", help="normalize a term or clause")
    p.add_argument("input", help="term, clause, or @file")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("unify", help="unify two terms")
    p.add_argument("term1", nargs="?", help="term or @file")
    p.add_argument("term2", nargs="?", help="term or @file")
    p.add_argument("--batch", metavar="FILE", help="newline-delimited tab-separated term pairs")
    p.set_defaults(func=cmd_unify)

    p = sub.add_parser("subsumes", help="does the first term specialize the second?")
    p.add_argument("term1", help="the more specific term, or @file")
    p.add_argument("term2", help="the more general term, or @file")
    p.set_defaults(func=cmd_subsumes)

    p = sub.add_parser("enrich", help="weave sim lines into graded edges")
    p.set_defaults(func=cmd_enrich)

    p = sub.add_parser("dot", help="GraphViz output for the ontology or a term")
    p.add_argument("--term", help="term or @file (omit for the ontology)")
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("eval", help="denotation degrees against an interpretation")
    p.add_argument("term", help="term or @file")
    p.add_argument("--interp", required=True, metavar="FILE", help="interpretation file")
    p.add_argument("--at", metavar="ELEMENT", help="evaluate at one element")
    p.add_argument(
        "--assign",
        action="append",
        metavar="TAG=ELEMENT",
        help="total assignment entries (repeatable); uses assignment-level degrees",
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("theorems", help="run the semantic self-check harness")
    p.add_argument("--max-domain", type=_positive_int, default=4)
    p.add_argument("--max-sorts", type=_positive_int, default=5)
    p.add_argument("--max-features", type=_positive_int, default=2)
    p.set_defaults(func=cmd_theorems)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _SemanticFailure as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (_InputFailure, OntologyError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

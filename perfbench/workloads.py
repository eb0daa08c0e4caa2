"""The three workloads: their inputs as text, their ops, and each op's check.

A workload is built from a seed alone.  The program sees only the texts:
the ontology, the interpretation, and per op a term, clause or list of sort
names.  Every op carries the answer the generator expects, and
:func:`check` compares the program's result with it after the timed pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter

import gen

from fuzzyosf import (
    EqualityConstraint,
    FeatureConstraint,
    Inconsistent,
    SortConstraint,
    SortLattice,
    best_denotation,
    format_clause,
    format_term,
    fuzzy_subsumption_degree,
    load_interpretation,
    load_ontology,
    normalize,
    parse_clause,
    parse_term,
    subsumption_witness,
    unify,
    validate_interpretation,
)

DEGREE_BATCH = 50


@dataclass
class Op:
    kind: str  # unify | subsume | normalize | eval | degree
    payload: object
    expect: object


@dataclass
class Workload:
    name: str
    ontology: str
    ops: list[Op]
    setup_reps: int  # set-ups timed back to back in one set-up sample (about a second)
    interpretation: str | None = None
    cli_pairs: list[gen.UnifyCase] = field(default_factory=list)
    degree_query: tuple[str, str, float] | None = None  # for CLI cold starts


@dataclass
class Session:
    lattice: SortLattice
    model: object | None
    timings: dict[str, float]


def setup(wl: Workload) -> Session:
    """Load and validate the ontology (and interpretation); time each step."""
    timings: dict[str, float] = {}
    t0 = perf_counter()
    graph, _ = load_ontology(wl.ontology)
    t1 = perf_counter()
    lattice = SortLattice(graph).validate()
    t2 = perf_counter()
    timings["lattice.load_ontology_s"] = t1 - t0
    timings["lattice.validate_s"] = t2 - t1
    model = None
    if wl.interpretation is not None:
        model = load_interpretation(wl.interpretation, graph)
        t3 = perf_counter()
        problems = validate_interpretation(model, lattice)
        t4 = perf_counter()
        if problems:
            raise RuntimeError(f"generated interpretation rejected: {problems[0]}")
        timings["semantics.load_interpretation_s"] = t3 - t2
        timings["semantics.validate_interpretation_s"] = t4 - t3
    timings["setup_s"] = perf_counter() - t0
    return Session(lattice, model, timings)


# -- builders ----------------------------------------------------------------------


def build_query_mix(seed: int) -> Workload:
    """300 sorts, 150 elements; 1,000 ops: 50 % unify, 25 % subsumption,
    15 % normalize, 10 % eval; 2,000 pairs for the CLI batch."""
    rng = random.Random(seed)
    h = gen.make_hierarchy(rng, 300, 8)
    upper = gen.concept_pool(h)
    concepts = [gen.random_shape(rng, h, rng.randint(3, 8), upper, extra=0.25) for _ in range(20)]
    model = gen.make_model(rng, h, 150, concepts)
    concept_texts = [c.text("C", h) for c in concepts]
    pairs = [gen.unify_case(rng, h, 5, 40, sideways=0.15) for _ in range(2000)]
    ops = [Op("unify", (c.left, c.right), c) for c in pairs[:500]]
    for _ in range(250):
        k = rng.randrange(len(concepts))
        spec = gen.specialise(rng, h, concepts[k])
        ops.append(Op("subsume", (spec.text("S", h), concept_texts[k]), gen.expect_witness(h, spec, concepts[k])))
    pool = list(range(len(h.names)))
    for i in range(150):
        base = gen.random_shape(rng, h, rng.randint(5, 20), pool)
        case = gen.raw_clause(rng, h, base, inconsistent=i % 5 == 0)
        ops.append(Op("normalize", case.text, case))
    denotations = [
        [gen.expect_denotation(h, model, c, e) for e in range(len(model.elements))] for c in concepts
    ]
    for _ in range(100):
        k = rng.randrange(len(concepts))
        ops.append(Op("eval", concept_texts[k], denotations[k]))
    rng.shuffle(ops)
    leaf = len(h.names) - 1
    query = (h.names[leaf], h.names[h.parents[leaf][0][0]])
    return Workload("query_mix", h.text(), ops, 5, model.text(h), pairs, (*query, h.degree(*query)))


def build_wide_ontology(seed: int) -> Workload:
    """2,000 sorts; 1,000 ops: 60 % unify on 5-15 tags, 40 % batches of 50
    degree queries from uniformly drawn sources."""
    rng = random.Random(seed)
    h = gen.make_hierarchy(rng, 2000, 8)
    n = len(h.names)
    ops = [Op("unify", (c.left, c.right), c) for c in (gen.unify_case(rng, h, 5, 15, sideways=0.15) for _ in range(600))]
    for _ in range(400):
        batch = []
        for _ in range(DEGREE_BATCH):
            s = rng.randrange(n)
            up = h.up(s)
            t = rng.choice(sorted(up)) if rng.random() < 0.5 else rng.randrange(n)
            batch.append((h.names[s], h.names[t]))
        ops.append(Op("degree", batch, [h.degree(s, t) for s, t in batch]))
    rng.shuffle(ops)
    return Workload("wide_ontology", h.text(), ops, 1)


def build_deep_terms(seed: int) -> Workload:
    """A few sorts; a 10,000-tag chain pair, a ring pair whose unifier has
    gcd(n, m) classes, large subsumptions and two large raw clauses.  The
    seed moves sizes by a few percent only, so every seed costs about the
    same."""
    rng = random.Random(seed)
    h = gen.deep_hierarchy()
    s, a, b, ab = (h.index[x] for x in ("s", "a", "b", "ab"))
    chain_n = 10_000
    n, m, g = gen.coprime_ring_sizes(rng, 4000, 6000)
    pairs = [
        gen.UnifyCase(gen.chain(chain_n, s).text("A", h), gen.chain(chain_n, s).text("B", h), False, 1.0, 1.0, chain_n),
        gen.UnifyCase(gen.ring(n, a).text("R", h), gen.ring(m, b).text("Q", h), False,
                      h.degree("ab", "a"), h.degree("ab", "b"), g),
    ]
    ops = [Op("unify", (c.left, c.right), c) for c in pairs]
    d = rng.randrange(1950, 2050)
    for spec, general in (
        (gen.ring(d, ab), gen.ring(2 * d, a)),
        (gen.chain(chain_n, ab), gen.chain(chain_n // 2, b)),
        (gen.chain(d, ab), gen.ring(d + rng.randrange(1, 100), a)),
    ):
        ops.append(Op("subsume", (spec.text("S", h), general.text("G", h)), gen.expect_witness(h, spec, general)))
    k = rng.randrange(2950, 3050)
    base = gen.chain(k, s)
    for i in range(k):
        base.sorts[i] = rng.choice((s, ab))
        if rng.random() < 0.3:
            base.edges[i][1] = rng.randrange(k)
    for inconsistent in (False, True):
        case = gen.raw_clause(rng, h, base, inconsistent, noise=0.5)
        ops.append(Op("normalize", case.text, case))
    return Workload("deep_terms", h.text(), ops, 20_000)


BUILDERS = {
    "query_mix": build_query_mix,
    "wide_ontology": build_wide_ontology,
    "deep_terms": build_deep_terms,
}


# -- running one op ------------------------------------------------------------------


def plain_call(name, fn, *args):
    return fn(*args)


def run_op(op: Op, sess: Session, lattice: SortLattice, call=plain_call):
    """Execute one op from its text inputs; ``call`` wraps each layer call."""
    graph = lattice.graph
    if op.kind == "unify":
        left, right = op.payload
        t1 = call("terms.parse_term", parse_term, left, graph)
        t2 = call("terms.parse_term", parse_term, right, graph)
        return t1, t2, call("unify.unify", unify, t1, t2, lattice)
    if op.kind == "subsume":
        spec_text, general_text = op.payload
        t0 = call("terms.parse_term", parse_term, spec_text, graph)
        t1 = call("terms.parse_term", parse_term, general_text, graph)
        return t0, t1, call("subsumption.witness", subsumption_witness, t0, t1, lattice)
    if op.kind == "normalize":
        clause = call("terms.parse_clause", parse_clause, op.payload, graph)
        return call("normalize.normalize", normalize, clause, lattice)
    if op.kind == "eval":
        t = call("terms.parse_term", parse_term, op.payload, graph)
        model = sess.model
        return [call("semantics.best_denotation", best_denotation, t, model, e) for e in model.elements]
    if op.kind == "degree":
        return [lattice.degree(s, t) for s, t in op.payload]
    raise ValueError(f"unknown op kind: {op.kind}")


def canonical(op: Op, result, call=plain_call) -> str:
    """The op's printed output, as one string (the basis of the run digest)."""
    if isinstance(result, Exception):
        return f"error {type(result).__name__}: {result}"
    if op.kind == "unify":
        r = result[2]
        if r.is_bottom:
            return "BOTTOM beta=1"
        text = call("terms.format_term", format_term, r.unifier)
        return f"{text}\nbeta1={r.beta1!r} beta2={r.beta2!r} beta={r.beta!r}\n{sorted(r.tag_classes.items())}"
    if op.kind == "subsume":
        w = result[2]
        return "none" if w is None else f"{w.degree!r} {sorted(w.mapping.items())}"
    if op.kind == "normalize":
        if isinstance(result, Inconsistent):
            return f"INCONSISTENT {result.tag}"
        return f"{format_clause(result.solved)}\n{result.equalities}"
    return repr(result)


def check(op: Op, result, lattice: SortLattice) -> str | None:
    """None when the result matches the generator's expectation, else why not."""
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}"
    want = op.expect
    if op.kind == "unify":
        t1, t2, r = result
        if r.is_bottom != want.bottom:
            return f"bottom={r.is_bottom}, expected {want.bottom}"
        if r.is_bottom:
            return None if (r.beta1, r.beta2, r.beta) == (1.0, 1.0, 1.0) else "BOTTOM without degree 1"
        if (r.beta1, r.beta2) != (want.beta1, want.beta2) or r.beta != min(r.beta1, r.beta2):
            return f"betas {r.beta1}, {r.beta2}, {r.beta}; expected {want.beta1}, {want.beta2}"
        if len(r.tag_classes) != want.classes:
            return f"{len(r.tag_classes)} classes, expected {want.classes}"
        for t, beta in ((t1, r.beta1), (t2, r.beta2)):
            if fuzzy_subsumption_degree(r.unifier, t, lattice) != beta:
                return "subsumption degree of the unifier differs from its beta"
        return None
    if op.kind == "subsume":
        w = result[2]
        got = None if w is None else w.degree
        return None if got == want else f"witness degree {got}, expected {want}"
    if op.kind == "normalize":
        if isinstance(result, Inconsistent) != want.inconsistent:
            return f"inconsistent={not want.inconsistent}, expected {want.inconsistent}"
        if want.inconsistent:
            return None
        solved = result.solved.constraints
        sorts = sorted(c.sort for c in solved if isinstance(c, SortConstraint))
        n_feats = sum(1 for c in solved if isinstance(c, FeatureConstraint))
        if sorts != want.sorts:
            return f"class sorts differ from the expected {len(want.sorts)} base sorts"
        if n_feats != want.features:
            return f"{n_feats} feature constraints, expected {want.features}"
        if any(isinstance(c, EqualityConstraint) for c in solved):
            return "solved clause keeps an equality"
        again = normalize(result.solved, lattice)
        if isinstance(again, Inconsistent) or again.solved != result.solved or again.equalities:
            return "a normalized clause does not normalize to itself"
        return None
    return None if result == want else "values differ from the expected ones"


"""In-memory spans for the traced run, recorded around calls into each layer.

Spans are recorded from the benchmark's side of each call; nothing inside
``fuzzyosf`` is instrumented.  To see the lattice work that ``unify`` and
``normalize`` do, the traced run hands them a :class:`TracedLattice`, whose
``glb`` and ``degree`` record spans of their own.
"""

from __future__ import annotations

import gzip
import json
import statistics
from time import perf_counter

from fuzzyosf import (
    BOT,
    TOP,
    Clause,
    EqualityConstraint,
    Normalized,
    SortLattice,
    check_normal,
    clause_to_term,
    normalize,
    term_to_clause,
    term_to_graph,
)

NAME, START, END, PARENT, OP, INFO = range(6)


class Recorder:
    """Spans as ``[name, start, end, parent index, op id, info]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.last: list | None = None

    def call(self, name, fn, *args, info=None):
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, info]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        try:
            return fn(*args)
        finally:
            span[END] = perf_counter()
            self.stack.pop()
            self.last = span

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


class TracedLattice(SortLattice):
    """A :class:`SortLattice` that spans each ``glb`` and ``degree`` call.

    A ``degree`` call whose answer needs a closure row is tagged ``first``
    when the call builds that row and ``repeat`` when the row already exists,
    whoever built it; the answers that need no row (equal sorts, ``bot``,
    ``top``) are untagged.
    """

    rec: Recorder

    @classmethod
    def adopt(cls, lattice: SortLattice, rec: Recorder) -> "TracedLattice":
        """Share an already validated lattice's state (memo tables included)."""
        traced = cls.__new__(cls)
        traced.__dict__.update(lattice.__dict__)
        traced.rec = rec
        return traced

    def glb(self, s, t):
        return self.rec.call("lattice.glb", super().glb, s, t)

    def degree(self, s, t):
        rows = len(self._rows)
        value = self.rec.call("lattice.degree", super().degree, s, t)
        if s != t and s not in (BOT, TOP) and t not in (BOT, TOP):
            self.rec.last[INFO] = "first" if len(self._rows) > rows else "repeat"
        return value


def replay(rec: Recorder, op_span: int, kind: str, result, lattice: SortLattice) -> None:
    """Annotate the op's layer span with its outcome, then re-run the public
    steps of the op's pipeline, each in its own span.

    For ``unify``: ``check_normal`` and ``term_to_clause`` on both terms,
    ``normalize`` on the combined clause and ``clause_to_term`` on its solved
    form.  For ``subsume``: ``term_to_graph`` on both terms.
    """
    layer = next(
        (s for s in rec.spans[op_span + 1 :] if s[PARENT] == op_span and s[NAME] in _OUTCOME), None
    )
    if layer is not None:
        layer[INFO] = _OUTCOME[layer[NAME]](result)
    if kind == "unify":
        t1, t2, _ = result
        for t in (t1, t2):
            rec.call("terms.check_normal", check_normal, t, lattice.graph)
        c1 = rec.call("terms.term_to_clause", term_to_clause, t1)
        c2 = rec.call("terms.term_to_clause", term_to_clause, t2)
        combined = Clause(
            c1.constraints + c2.constraints + (EqualityConstraint(t1.tag, t2.tag),), root=t1.tag
        )
        nf = rec.call("normalize.normalize", normalize, combined, lattice)
        rec.last[INFO] = _normalize_outcome(nf)
        if isinstance(nf, Normalized):
            rec.call("terms.clause_to_term", clause_to_term, nf.solved)
    elif kind == "subsume":
        for t in result[:2]:
            rec.call("graphs.term_to_graph", term_to_graph, t)


def _normalize_outcome(nf):
    return len(nf.equalities) if isinstance(nf, Normalized) else "inconsistent"


_OUTCOME = {
    "unify.unify": lambda r: None if r[2].is_bottom else len(r[2].tag_classes),
    "subsumption.witness": lambda r: r[2] is not None,
    "normalize.normalize": _normalize_outcome,
}


def _mean_us(durations: list[float]) -> float | None:
    return statistics.fmean(durations) * 1e6 if durations else None


def layer_metrics(spans: list[list], passes: int, rounds: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``passes`` traced passes in ``rounds``
    rounds; a metric whose layer was never called is left out."""
    by_name: dict[str, list[list]] = {}
    self_time: dict[int, float] = {}  # unify span index -> span time minus lattice children
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(span)
        if span[NAME] == "unify.unify":
            self_time[i] = self_time.get(i, 0.0) + span[END] - span[START]
        elif span[PARENT] >= 0 and span[NAME].startswith("lattice.") and spans[span[PARENT]][NAME] == "unify.unify":
            self_time[span[PARENT]] = self_time.get(span[PARENT], 0.0) - (span[END] - span[START])

    def durations(name, pick=None):
        return [s[END] - s[START] for s in by_name.get(name, ()) if pick is None or pick(s)]

    out: dict[str, float | None] = {}
    glbs = by_name.get("lattice.glb", [])
    degrees = by_name.get("lattice.degree", [])
    out["lattice.glb_calls"] = len(glbs) / passes
    out["lattice.glb_us"] = _mean_us(durations("lattice.glb"))
    out["lattice.degree_calls"] = len(degrees) / passes
    out["lattice.degree_first_touch_us"] = _mean_us(durations("lattice.degree", lambda s: s[INFO] == "first"))
    out["lattice.degree_repeat_us"] = _mean_us(durations("lattice.degree", lambda s: s[INFO] == "repeat"))
    out["lattice.rows_touched"] = sum(1 for s in degrees if s[INFO] == "first") / rounds
    for name in (
        "terms.parse_term", "terms.parse_clause", "terms.format_term", "terms.check_normal",
        "terms.term_to_clause", "terms.clause_to_term", "normalize.normalize",
        "graphs.term_to_graph", "subsumption.witness", "unify.unify", "semantics.best_denotation",
    ):
        out[name + "_us"] = _mean_us(durations(name))
    norms = [s[INFO] for s in by_name.get("normalize.normalize", [])]
    if norms:
        merges = [x for x in norms if x != "inconsistent"]
        out["normalize.merges_per_op"] = statistics.fmean(merges) if merges else 0.0
        out["normalize.inconsistent_share"] = (len(norms) - len(merges)) / len(norms)
    unifies = by_name.get("unify.unify", [])
    if unifies:
        out["unify.self_us"] = statistics.fmean(self_time.values()) * 1e6
        classes = [s[INFO] for s in unifies if s[INFO] is not None]
        out["unify.bottom_share"] = 1 - len(classes) / len(unifies)
        out["unify.classes_per_op"] = statistics.fmean(classes) if classes else 0.0
    witnesses = by_name.get("subsumption.witness", [])
    if witnesses:
        out["subsumption.found_share"] = sum(1 for s in witnesses if s[INFO]) / len(witnesses)
    return {k: v for k, v in out.items() if v is not None}


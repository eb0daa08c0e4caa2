"""Independent brute-force reference implementations used by the tests.

Everything here recomputes results through a different route than the
library: closure by Floyd–Warshall-style relaxation over a materialized
node set, meets by explicit down-set intersection, similarity enrichment by
a fresh reachability search per candidate edge, crisp subsumption by a
naive substitution-based solver plus a from-scratch rooted-graph matcher,
term equality by recursion over the fields, denotation by translating a
term into its constraint reading and scoring each constraint directly, and
normalization by a small-step engine that fires one rule instance at a time
in a random order.  Slow on purpose;
used only on small instances to cross-check the fast paths.  The module
imports nothing from the library: it reads library objects through their
fields, and the small-step engine takes its meets from a ``glb`` callable.
"""

from __future__ import annotations

import itertools

BOT = "bot"
TOP = "top"


# -- max-min closure -------------------------------------------------------------


def closure_table(
    sorts: list[str], edges: list[tuple[str, str, float]]
) -> dict[tuple[str, str], float]:
    """All-pairs max-min reflexive-transitive closure, bounds materialized.

    Returns a complete table over sorts + bot/top.  Iterates the relaxation
    d[i][j] = max(d[i][j], min(d[i][k], d[k][j])) until it stops changing.
    """
    nodes = [BOT, *[s for s in sorts if s not in (BOT, TOP)], TOP]
    table = {(a, b): 0.0 for a in nodes for b in nodes}
    for n in nodes:
        table[(n, n)] = 1.0
        table[(BOT, n)] = 1.0
        table[(n, TOP)] = 1.0
    for a, b, d in edges:
        table[(a, b)] = max(table[(a, b)], d)
    changed = True
    while changed:
        changed = False
        for k in nodes:
            for i in nodes:
                ik = table[(i, k)]
                if ik == 0.0:
                    continue
                for j in nodes:
                    via = min(ik, table[(k, j)])
                    if via > table[(i, j)]:
                        table[(i, j)] = via
                        changed = True
    return table


def down_set(
    sorts: list[str], edges: list[tuple[str, str, float]], target: str
) -> set[str]:
    """Everything crisply below ``target`` (positive-degree reachability)."""
    nodes = [BOT, *[s for s in sorts if s not in (BOT, TOP)], TOP]
    if target == TOP:
        return set(nodes)
    below: dict[str, set[str]] = {n: set() for n in nodes}
    for a, b, d in edges:
        if d > 0.0:
            below[b].add(a)
    seen = {target, BOT}
    stack = [target]
    while stack:
        node = stack.pop()
        for child in below.get(node, ()):
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


def down_sets(
    sorts: list[str], edges: list[tuple[str, str, float]]
) -> dict[str, set[str]]:
    nodes = [BOT, *[s for s in sorts if s not in (BOT, TOP)], TOP]
    return {n: down_set(sorts, edges, n) for n in nodes}


def glb_candidates(
    sorts: list[str],
    edges: list[tuple[str, str, float]],
    s: str,
    t: str,
    downs: dict[str, set[str]] | None = None,
) -> list[str]:
    """Maximal elements of the common down-set; a singleton iff the meet exists."""
    if downs is None:
        downs = down_sets(sorts, edges)
    common = downs[s] & downs[t]
    maximal = []
    for x in common:
        if any(y != x and x in downs[y] for y in common):
            continue
        maximal.append(x)
    return sorted(maximal)


def is_lattice(sorts: list[str], edges: list[tuple[str, str, float]]) -> bool:
    names = [s for s in sorts if s not in (BOT, TOP)]
    for s, t in itertools.combinations(names, 2):
        if len(glb_candidates(sorts, edges, s, t)) != 1:
            return False
    return True


# -- similarity enrichment ---------------------------------------------------------


def _reaches(edges: list[tuple[str, str]], source: str, target: str) -> bool:
    """Breadth-first search for a path of one or more edges."""
    frontier, seen = [source], set()
    while frontier:
        node = frontier.pop(0)
        for a, b in edges:
            if a == node and b not in seen:
                if b == target:
                    return True
                seen.add(b)
                frontier.append(b)
    return False


def enrich(
    sorts: list[str],
    edges: list[tuple[str, str, float]],
    pairs: list[tuple[str, str, float]],
) -> tuple[list[str], list[tuple[str, str, float]], list[tuple[str, str, float, str]]]:
    """Similarity enrichment by its definition: ``(sorts, edges, dropped)``.

    Every ``sim(u, s2) = b > 0``, read both ways, seeds ``(s, s2, b)`` for
    each ``s`` crisply below ``u`` over the declared edges (reflexive, no
    implicit bounds); seeds are max-combined per pair and walked in sorted
    name order.  A candidate is dropped as ``self`` if its ends agree and
    as ``cycle`` if its target already reaches its source: reachability is
    searched afresh for each candidate over the declared edges, the edges
    accepted so far and the implicit ``bot -> s -> top`` bounds.  The
    enriched edges are the declared ones and then the accepted ones, a
    repeated pair keeping its larger degree at its first place.
    """
    declared = [(a, b) for a, b, _ in edges]
    candidates: dict[tuple[str, str], float] = {}
    for a, b, d in pairs:
        if d <= 0.0:
            continue
        for u, s2 in ((a, b), (b, a)):
            for s in [u] + [s for s in sorts if _reaches(declared, s, u)]:
                candidates[(s, s2)] = max(candidates.get((s, s2), 0.0), d)
    bounds = [(BOT, s) for s in sorts if s != BOT] + [(s, TOP) for s in sorts if s != TOP]
    accepted: list[tuple[str, str, float]] = []
    dropped: list[tuple[str, str, float, str]] = []
    for (sub, sup), d in sorted(candidates.items()):
        working = declared + [(a, b) for a, b, _ in accepted] + bounds
        if sub == sup:
            dropped.append((sub, sup, d, "self"))
        elif _reaches(working, sup, sub):
            dropped.append((sub, sup, d, "cycle"))
        else:
            accepted.append((sub, sup, d))
    merged: dict[tuple[str, str], float] = {}
    for a, b, d in edges + accepted:
        merged[(a, b)] = max(merged.get((a, b), 0.0), d)
    names = [s for s in sorts if s not in (BOT, TOP)] + [BOT, TOP]
    return names, [(a, b, d) for (a, b), d in merged.items()], dropped


# -- crisp subsumption over the support lattice ----------------------------------
#
# Route: t0 is below t1 exactly when their meet is t0 itself.  The meet is
# computed by a naive substitution solver over the combined constraint
# readings (no union-find, no production code), and "is t0 itself" by a
# from-scratch rooted-graph matcher.


def term_constraints(term) -> tuple[set, str]:
    """Constraint reading of a term: (set of tuples, root tag).

    Tuples: ("sort", X, s) for non-top sorts, ("feat", X, f, Y).
    Accepts the library's Term objects but only touches .tag/.sort/.args.
    """
    out: set = set()
    stack = [term]
    seen = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.sort != TOP:
            out.add(("sort", node.tag, node.sort))
        for feat, sub in node.args:
            out.add(("feat", node.tag, feat, sub.tag))
            stack.append(sub)
    return out, term.tag


def _tags(c: tuple) -> tuple[str, ...]:
    """The tags a tuple constraint mentions."""
    if c[0] == "sort":
        return (c[1],)
    if c[0] == "feat":
        return (c[1], c[3])
    return c[1:]


def _substitute(c: tuple, old: str, new: str) -> tuple:
    """``c`` with tag ``old`` renamed ``new``."""
    if c[0] == "sort":
        _, x, s = c
        return ("sort", new if x == old else x, s)
    if c[0] == "feat":
        _, x, f, y = c
        return ("feat", new if x == old else x, f, new if y == old else y)
    _, x, y = c
    return ("eq", new if x == old else x, new if y == old else y)


def naive_meet(
    constraints: set, root: str, sorts, edges
) -> tuple[dict, dict, str] | None:
    """Fixpoint solver: returns (sort-of-tag, out-edges, root) or None on clash."""
    work = set(constraints)
    root_tag = root
    while True:
        by_slot: dict[tuple[str, str], str] = {}
        merge = None
        for c in work:
            if c[0] == "feat":
                _, x, f, y = c
                if (x, f) in by_slot and by_slot[(x, f)] != y:
                    merge = (by_slot[(x, f)], y)
                    break
                by_slot[(x, f)] = y
        if merge is not None:
            keep, drop = merge
            work = {_substitute(c, drop, keep) for c in work}
            if root_tag == drop:
                root_tag = keep
            continue
        by_tag: dict[str, list[str]] = {}
        for c in work:
            if c[0] == "sort":
                by_tag.setdefault(c[1], []).append(c[2])
        pair = None
        for tag, tag_sorts in by_tag.items():
            if len(tag_sorts) > 1:
                pair = (tag, sorted(tag_sorts)[0], sorted(tag_sorts)[1])
                break
            if tag_sorts[0] == BOT:
                return None
        if pair is None:
            break
        tag, s, t = pair
        meets = glb_candidates(sorts, edges, s, t)
        if len(meets) != 1:
            raise ValueError(f"support is not a lattice at ({s}, {t})")
        work.discard(("sort", tag, s))
        work.discard(("sort", tag, t))
        if meets[0] == BOT:
            return None
        if meets[0] != TOP:
            work.add(("sort", tag, meets[0]))
    sort_of = {c[1]: c[2] for c in work if c[0] == "sort"}
    out = {(c[1], c[2]): c[3] for c in work if c[0] == "feat"}
    return sort_of, out, root_tag


def _strip_top_leaves(sort_of: dict, out: dict, root: str) -> dict:
    """Drop non-root unsorted sinks with exactly one parent, repeatedly.

    Such nodes say nothing: the feature pointing at them is total anyway.
    Shared sinks (two or more parents) assert coreference and stay.
    """
    edges = dict(out)
    while True:
        in_deg: dict[str, int] = {}
        has_out: set[str] = set()
        for (x, _), y in edges.items():
            has_out.add(x)
            in_deg[y] = in_deg.get(y, 0) + 1
        victims = {
            y
            for y in in_deg
            if y != root
            and y not in has_out
            and in_deg[y] == 1
            and sort_of.get(y, TOP) == TOP
        }
        if not victims:
            return edges
        edges = {k: y for k, y in edges.items() if y not in victims}


def _reachable_shape(sort_of: dict, out: dict, root: str):
    """(nodes, sorts, edges) of the part reachable from the root."""
    succ: dict[str, dict[str, str]] = {}
    for (x, f), y in out.items():
        succ.setdefault(x, {})[f] = y
    seen = {root}
    order = [root]
    stack = [root]
    while stack:
        node = stack.pop()
        for f in sorted(succ.get(node, {})):
            y = succ[node][f]
            if y not in seen:
                seen.add(y)
                order.append(y)
                stack.append(y)
    return seen, succ


def shapes_match(a: tuple[dict, dict, str], b: tuple[dict, dict, str]) -> bool:
    """Rooted bijective matcher written from scratch for the oracle."""
    sort_a, out_a, root_a = a
    sort_b, out_b, root_b = b
    out_a = _strip_top_leaves(sort_a, out_a, root_a)
    out_b = _strip_top_leaves(sort_b, out_b, root_b)
    seen_a, succ_a = _reachable_shape(sort_a, out_a, root_a)
    seen_b, succ_b = _reachable_shape(sort_b, out_b, root_b)
    if len(seen_a) != len(seen_b):
        return False
    fwd: dict[str, str] = {}
    bwd: dict[str, str] = {}
    queue = [(root_a, root_b)]
    while queue:
        x, y = queue.pop()
        if x in fwd:
            if fwd[x] != y or bwd.get(y) != x:
                return False
            continue
        if y in bwd:
            return False
        if sort_a.get(x, TOP) != sort_b.get(y, TOP):
            return False
        feats_x = succ_a.get(x, {})
        feats_y = succ_b.get(y, {})
        if set(feats_x) != set(feats_y):
            return False
        fwd[x] = y
        bwd[y] = x
        for f in feats_x:
            queue.append((feats_x[f], feats_y[f]))
    return len(fwd) == len(seen_a)


def crisp_subsumes(specific, general, sorts, edges) -> bool:
    """Is ``specific`` crisply below ``general`` on the support lattice?

    Computes meet(specific, general) with the naive solver and asks whether
    it matches ``specific`` itself.
    """
    c0, r0 = term_constraints(specific)
    c1, r1 = term_constraints(general)
    renames = {t for _, t, *_ in c1} | {c[3] for c in c1 if c[0] == "feat"} | {r1}
    fresh = {t: f"o_{i}" for i, t in enumerate(sorted(renames))}
    c1 = {
        ("sort", fresh[c[1]], c[2]) if c[0] == "sort"
        else ("feat", fresh[c[1]], c[2], fresh[c[3]])
        for c in c1
    }
    combined = set(c0) | c1 | {("feat", "o_root", "_r", r0), ("feat", "o_root", "_r", fresh[r1])}
    meet = naive_meet(combined, r0, sorts, edges)
    if meet is None:
        return False
    sort_of, out, root = meet
    out = {k: v for k, v in out.items() if k[0] != "o_root"}
    own = naive_meet(set(c0), r0, sorts, edges)
    assert own is not None
    return shapes_match((sort_of, out, root), own)


# -- term identity ---------------------------------------------------------------


def same_term(a, b) -> bool:
    """Field-by-field equality by recursion: tag, sort, then each feature name
    and argument in order.  Reads only .tag/.sort/.args; small terms only."""
    if a.tag != b.tag or a.sort != b.sort or len(a.args) != len(b.args):
        return False
    return all(f == g and same_term(x, y) for (f, x), (g, y) in zip(a.args, b.args))


# -- denotation ------------------------------------------------------------------


def denotation(term, model, alpha: dict) -> float:
    """Constraint-reading score of a term under a total assignment.

    min over sort constraints of the membership degree, 0 when any feature
    constraint is violated.  bot scores 0, top scores 1.
    """
    constraints, _ = term_constraints(term)
    tags = {term.tag}
    for c in constraints:
        tags.add(c[1])
        if c[0] == "feat":
            tags.add(c[3])
    degree = 1.0
    for tag in tags:
        if tag not in alpha:
            return 0.0
    for c in sorted(constraints):
        if c[0] == "sort":
            _, x, s = c
            if s == BOT:
                return 0.0
            degree = min(degree, model.sort_degree(s, alpha[x]))
        else:
            _, x, f, y = c
            if model.feature_image(f, alpha[x]) != alpha[y]:
                return 0.0
    return degree


def best_denotation(term, model, element: str) -> float:
    """Max over all root-anchored total assignments of ``denotation``."""
    constraints, root = term_constraints(term)
    tags = sorted({root} | {c[1] for c in constraints} | {c[3] for c in constraints if c[0] == "feat"})
    best = 0.0
    others = [t for t in tags if t != root]
    for images in itertools.product(model.elements, repeat=len(others)):
        alpha = dict(zip(others, images))
        alpha[root] = element
        best = max(best, denotation(term, model, alpha))
    return best


# -- model validity ---------------------------------------------------------------


def exact(degree: float) -> str:
    """A degree written so that it reads back as the same float: its ``%g``
    text where that is enough, else its shortest round-trip text."""
    short = f"{degree:g}"
    return short if float(short) == degree else repr(degree)


def lattice_problems(model, sorts: list[str], edges: list[tuple[str, str, float]]) -> list[str]:
    """Membership and meet gaps of a well-formed model, by a dense scan.

    Visits every sort at every element (in ``sorts`` order), twice: once for
    graded-subsumption gaps against the relaxed closure table, once for
    pairs of positive sorts whose maximal common lower bounds are not one
    positive sort.  The messages are those of ``validate_interpretation``.
    """
    table = closure_table(sorts, edges)
    downs = down_sets(sorts, edges)
    problems = []
    for e in model.elements:
        for s0 in sorts:
            d0 = model.sort_degree(s0, e)
            if d0 <= 0.0:
                continue
            for s1 in sorts:
                d = table[(s0, s1)]
                bound = min(d0, d)
                if d > 0.0 and bound > model.sort_degree(s1, e):
                    problems.append(
                        f"membership gap: {s0}({e})={exact(d0)} and "
                        f"degree({s0},{s1})={exact(d)} force "
                        f"{s1}({e}) >= {exact(bound)}, found {exact(model.sort_degree(s1, e))}"
                    )
    for e in model.elements:
        positive = [s for s in sorts if model.sort_degree(s, e) > 0.0]
        for s0, s1 in itertools.combinations(positive, 2):
            maximal = glb_candidates(sorts, edges, s0, s1, downs)
            if len(maximal) != 1:
                problems.append(
                    f"no unique greatest lower bound for ({s0}, {s1}); "
                    f"maximal common lower bounds: {', '.join(maximal)}"
                )
            elif model.sort_degree(maximal[0], e) <= 0.0:
                problems.append(
                    f"meet gap: {s0} and {s1} both hold of {e} but "
                    f"glb {maximal[0]} does not"
                )
    return problems


# -- small-step normalization -------------------------------------------------------
#
def disjoint_rename(tags1: list[str], tags2: list[str]) -> dict[str, str]:
    """Renames of the second term's tags that clash with the first's, one
    suffix at a time: each clashing tag, in order, appends ``_`` until its
    name is neither a tag of either term nor an earlier rename."""
    taken = set(tags1) | set(tags2)
    mapping = {}
    for tag in tags2:
        if tag in tags1:
            candidate = tag + "_"
            while candidate in taken:
                candidate += "_"
            mapping[tag] = candidate
            taken.add(candidate)
    return mapping


# The reference engine for the four rewrite rules of the library's
# ``normalize``: it applies one rule instance at a time, in a seedable random
# order, to a list of tuple constraints, and rewrites by renaming tuples.
# Meets come from a callable, so the engine imports nothing from the library.


def clause_constraints(clause) -> list[tuple]:
    """Tuple reading of a clause, in order: ("sort", X, s), ("feat", X, f, Y)
    and ("eq", X, Y).  Touches only ``.constraints`` and their fields."""
    out = []
    for c in clause.constraints:
        if hasattr(c, "sort"):
            out.append(("sort", c.tag, c.sort))
        elif hasattr(c, "feature"):
            out.append(("feat", c.tag, c.feature, c.target))
        else:
            out.append(("eq", c.left, c.right))
    return out


def step_bound(constraints: list[tuple]) -> int:
    """Upper bound on small-step rule applications: |constraints| + |tags|^2."""
    tags = {tag for c in constraints for tag in _tags(c)}
    return len(constraints) + len(tags) ** 2


def normalize_small_step(
    constraints: list[tuple], glb, rng=None, max_steps: int | None = None
) -> tuple[tuple | None, int]:
    """Apply one applicable rule instance at a time until none remains.

    ``glb(s, t)`` is the meet of two sorts.  ``rng`` picks the instance
    uniformly at random (the first instance when None).  Returns the normal
    form and the number of steps taken: the form is None for a collapsed
    clause, else the pair (solved constraints, equality pairs).  Raises
    RuntimeError if ``max_steps`` (default: :func:`step_bound`) is exceeded,
    which would falsify the termination bound.
    """
    state = list(constraints)
    limit = step_bound(state) if max_steps is None else max_steps
    steps = 0
    while True:
        found = _instances(state)
        if not found:
            break
        rule, where = found[0] if rng is None else rng.choice(found)
        steps += 1
        if steps > limit:
            raise RuntimeError(f"normalization exceeded its step bound ({limit}) on: {constraints}")
        if rule == "inconsistent-sort":
            state = [state[where[0]]]
        elif rule == "tag-elimination":
            (i,) = where
            _, keep, drop = state[i]
            state = [c if k == i else _substitute(c, drop, keep) for k, c in enumerate(state)]
        elif rule == "feature-functionality":
            i, j = where
            first, second = state[i], state.pop(j)
            state.append(("eq", first[3], second[3]))
        else:  # sort-intersection
            i, j = where
            _, tag, s = state[i]
            state[i] = ("sort", tag, glb(s, state.pop(j)[2]))

    if any(c[0] == "sort" and c[2] == BOT for c in state):
        return None, steps
    solved = [c for c in state if c[0] != "eq"]
    equalities = tuple(c[1:] for c in state if c[0] == "eq")
    return (solved, equalities), steps


def _instances(state: list[tuple]) -> list[tuple[str, tuple]]:
    """Every applicable rule instance as (rule, positions in ``state``)."""
    found: list[tuple[str, tuple]] = []
    if len(state) > 1:
        found += [("inconsistent-sort", (i,)) for i, c in enumerate(state) if c[0] == "sort" and c[2] == BOT]
    for i, c in enumerate(state):
        if c[0] == "eq" and c[1] != c[2]:
            if any(c[2] in _tags(other) for k, other in enumerate(state) if k != i):
                found.append(("tag-elimination", (i,)))
    by_slot: dict[tuple, list[int]] = {}
    by_tag: dict[str, list[int]] = {}
    for i, c in enumerate(state):
        if c[0] == "feat":
            by_slot.setdefault(c[1:3], []).append(i)
        elif c[0] == "sort":
            by_tag.setdefault(c[1], []).append(i)
    found += [("feature-functionality", (at[0], at[1])) for at in by_slot.values() if len(at) > 1]
    found += [("sort-intersection", (at[0], at[1])) for at in by_tag.values() if len(at) > 1]
    return found


# -- normal-form fingerprints ---------------------------------------------------------
#
# Confluence checks compare normal forms up to tag renaming.  The classes of
# eliminated tags are rebuilt by merging plain sets (no union-find), and each
# class is named by its least member.


def canonical_normal_form(nf) -> tuple:
    """Rename-independent fingerprint of a normal form.

    ``nf`` is a form of :func:`normalize_small_step`, or the library's
    ``Normalized`` or ``Inconsistent``, read through ``.solved.constraints``
    and ``.equalities`` only.  A collapsed form is told by its shape: None,
    or a ``tag`` and no ``solved``, whatever its class (a named tuple too).
    The fingerprint is ``("inconsistent",)`` for a collapsed clause;
    otherwise ``("normalized", constraints, partition)``: the solved
    constraints as a set of tuples over canonical tags, and the equality
    classes with more than one member.
    """
    if hasattr(nf, "solved"):
        nf = clause_constraints(nf.solved), nf.equalities
    elif nf is None or hasattr(nf, "tag"):
        return ("inconsistent",)
    solved, equalities = nf
    classes: dict[str, frozenset] = {}
    for a, b in equalities:
        merged = classes.get(a, frozenset((a,))) | classes.get(b, frozenset((b,)))
        for tag in merged:
            classes[tag] = merged

    def canon(tag: str) -> str:
        return min(classes.get(tag, (tag,)))

    constraints = set()
    for c in solved:
        if c[0] == "sort":
            constraints.add(("sort", canon(c[1]), c[2]))
        elif c[0] == "feat":
            constraints.add(("feat", canon(c[1]), c[2], canon(c[3])))
    partition = frozenset(group for group in classes.values() if len(group) > 1)
    return ("normalized", frozenset(constraints), partition)


# -- term reading -------------------------------------------------------------------
#
# A character-level recursive-descent reader of the term grammar
#
#     term ::= Tag [':' sort] [args] | sort [args]
#     args ::= '(' f '->' term {',' f '->' term} ')'
#
# with tags starting uppercase or '_', sorts and features lowercase, and
# whitespace allowed between any two units.  It shares no code with the
# library's tokenizer.

_WORD = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")


class _Reject(Exception):
    def __init__(self, kind: str):
        self.kind = kind


class _Reader:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> tuple[str, str]:
        """The next unit as (kind, text) without consuming it; kind is
        "tag", "name", "end", "stray", or the mark itself."""
        self._skip()
        text, start = self.text, self.pos
        if start == len(text):
            return "end", ""
        c = text[start]
        if c.isascii() and (c.isalpha() or c == "_"):
            end = start
            while end < len(text) and text[end] in _WORD:
                end += 1
            return ("name" if c.islower() else "tag"), text[start:end]
        if text.startswith("->", start):
            return "->", "->"
        if c in "():,.":
            return c, c
        return "stray", c

    def take(self) -> tuple[str, str]:
        kind, word = self.peek()
        self.pos += len(word)
        return kind, word


def parse_term_shape(text: str, sorts=None, features=None):
    """The term ``text`` reads as, as nested ``(tag, sort, args)`` tuples with
    ``args`` a tuple of ``(feature, term)`` pairs; or, when it does not read,
    the name of the error class: ``"TermSyntaxError"``, ``"UnknownSort"`` or
    ``"UnknownFeature"``.

    ``sorts`` and ``features`` are the signature (None accepts every name).
    A stray character anywhere outranks every other error; otherwise the
    first error in reading order wins.  A bare tag is a top-sorted
    back-reference, and untagged nodes are named ``_Z0``, ``_Z1``, ... in
    reading order, skipping every tag the text writes.
    """
    scan = _Reader(text)
    while True:
        kind, _ = scan.take()
        if kind == "stray":
            return "TermSyntaxError"
        if kind == "end":
            break
    reader = _Reader(text)
    try:
        tree = _read_term(reader, sorts, features)
        if reader.take()[0] != "end":
            raise _Reject("TermSyntaxError")
    except _Reject as e:
        return e.kind
    written: set[str] = set()
    _collect_tags(tree, written)
    names = (f"_Z{n}" for n in itertools.count() if f"_Z{n}" not in written)
    return _name_untagged(tree, names)


def _read_term(reader: _Reader, sorts, features) -> list:
    kind, word = reader.take()
    if kind == "tag":
        tag = word
        if reader.peek()[0] == ":":
            reader.take()
            kind, sort = reader.take()
            if kind != "name":
                raise _Reject("TermSyntaxError")
            _check_sort(sort, sorts)
        else:
            sort = TOP
    elif kind == "name":
        if reader.peek()[0] == ":":
            raise _Reject("TermSyntaxError")
        tag, sort = None, word
        _check_sort(sort, sorts)
    else:
        raise _Reject("TermSyntaxError")
    args = []
    if reader.peek()[0] == "(":
        reader.take()
        while True:
            kind, feature = reader.take()
            if kind != "name":
                raise _Reject("TermSyntaxError")
            if features is not None and feature not in features:
                raise _Reject("UnknownFeature")
            if reader.take()[0] != "->":
                raise _Reject("TermSyntaxError")
            args.append((feature, _read_term(reader, sorts, features)))
            kind, _ = reader.take()
            if kind == ")":
                break
            if kind != ",":
                raise _Reject("TermSyntaxError")
    return [tag, sort, args]


def _check_sort(sort: str, sorts) -> None:
    if sorts is not None and sort not in sorts:
        raise _Reject("UnknownSort")


def _collect_tags(node: list, into: set) -> None:
    if node[0] is not None:
        into.add(node[0])
    for _, child in node[2]:
        _collect_tags(child, into)


def _name_untagged(node: list, names) -> tuple:
    tag = node[0] if node[0] is not None else next(names)
    return (tag, node[1], tuple((f, _name_untagged(child, names)) for f, child in node[2]))

"""Feature terms, constraint clauses and rooted graphs, with parsing and printing.

A term is a tagged, sorted record: ``X: movie(title -> Y: string)``.  Tags
(uppercase or ``_``-initial identifiers) let subterms share structure or form
cycles; sorts and features are lowercase names from a signature.  A clause is
a conjunction of atomic constraints over tags — sort membership ``X:s``,
feature value ``X.f ≐ Y``, and tag equality ``X ≐ Y`` — and is the flattened
form a term compiles to.  A rooted graph (:class:`OsfGraph`) is the third
view: a term's gate record re-keyed by tag name.  Queries build no graph
(``unify`` and subsumption read the records themselves); a graph is the
public view for rendering, equivalence and the canonical algebra.

A term is read into its graph once: parsing over a signature builds the
record that :func:`_walk` would, for the first :func:`_gate` over that
signature to take; any other term, or a second gate, is walked.

All traversals here are iterative, so deeply nested terms (thousands of
levels) never hit the recursion limit.
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple
from collections.abc import Iterator

from .lattice import BOT, TOP, SignatureMismatch, SortGraph, UnknownFeature, UnknownSort, _Frozen, _Names, _Slots


class TermSyntaxError(ValueError):
    """Input text does not match the term or clause grammar."""


class NotNormalTerm(ValueError):
    """A term failed the normal-form side conditions."""


class NotSolved(ValueError):
    """A clause is not in solved form."""


class NotRooted(ValueError):
    """A clause has tags unreachable from the root, or unsorted tags."""

    def __init__(self, msg: str, tags: list[str]):
        self.tags = list(tags)
        super().__init__(msg)


class Term(namedtuple("Term", ("tag", "sort", "args"), defaults=((),))):
    """An immutable feature term: tag, sort, and ordered feature arguments.

    A root parsed over a signature has a fourth element, unseen by iteration: see :func:`_gate`.
    """

    __slots__ = ()

    tag: str
    sort: str
    args: tuple[tuple[str, Term], ...]

    def __reduce__(self):
        # A flat table, so that a deep term pickles and copies without recursion.
        return _unflatten, (_preorder(self),)

    def __iter__(self):
        return iter(self[:3])

    def __str__(self) -> str:
        return format_term(self, style="explicit")

    def __repr__(self) -> str:
        return f"Term({self.tag}:{self.sort}, {len(self.args)} args)"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return False  # not NotImplemented: a plain tuple would then compare as one
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.tag != b.tag or a.sort != b.sort or len(a.args) != len(b.args):
                return False
            for (f, x), (g, y) in zip(a.args, b.args):
                if f != g:
                    return False
                stack.append((x, y))
        return True

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash(_preorder(self))  # equal terms have equal tables


_new = tuple.__new__  # builds a Term or a record from its fields without a Python-level call


def _preorder(t: Term) -> tuple:
    """Each node's tag, sort and feature names, in preorder."""
    return tuple((n.tag, n.sort, tuple(f for f, _ in n.args)) for n in term_nodes(t))


def _unflatten(table: tuple) -> Term:
    """The term of a :func:`_preorder` table, built bottom-up in one loop."""
    done: list[Term] = []  # finished subterms: a node's k children are the top k, first child last
    for tag, sort, feats in reversed(table):
        k = len(feats)
        done[len(done) - k :] = [_new(Term, (tag, sort, tuple(zip(feats, done[: -k - 1 : -1]))))]
    return done[0]


class SortConstraint(_Frozen, namedtuple("SortConstraint", ("tag", "sort"))):
    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.tag}:{self.sort}"


class FeatureConstraint(_Frozen, namedtuple("FeatureConstraint", ("tag", "feature", "target"))):
    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.tag}.{self.feature} ≐ {self.target}"


class EqualityConstraint(_Frozen, namedtuple("EqualityConstraint", ("left", "right"))):
    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.left} ≐ {self.right}"


class Clause(_Frozen, namedtuple("Clause", ("constraints", "root"), defaults=(None,))):
    """A conjunction of constraints (a tuple of the three kinds), optionally rooted at one tag."""

    __slots__ = ()

    def tags(self) -> list[str]:
        """Every tag mentioned, in first-occurrence order."""
        seen: dict[str, None] = {}
        for c in self.constraints:
            if isinstance(c, SortConstraint):
                seen.setdefault(c.tag, None)
            elif isinstance(c, FeatureConstraint):
                seen.setdefault(c.tag, None)
                seen.setdefault(c.target, None)
            elif isinstance(c, EqualityConstraint):
                seen.setdefault(c.left, None)
                seen.setdefault(c.right, None)
            else:
                raise _not_a_constraint(c)
        return list(seen)

    def __str__(self) -> str:
        return format_clause(self)


def format_clause(clause: Clause) -> str:
    return " & ".join(str(c) for c in clause.constraints)


def _not_a_constraint(c: object) -> TypeError:
    return TypeError(f"not a constraint: {type(c).__name__}")


# -- tag utilities -----------------------------------------------------------


def fresh_tags(avoid: set[str], prefix: str = "_Z") -> Iterator[str]:
    """Yield ``<prefix>0``, ``<prefix>1``, ... skipping names already in use."""
    n = 0
    while True:
        name = f"{prefix}{n}"
        if name not in avoid:
            yield name
        n += 1


def term_nodes(t: Term) -> Iterator[Term]:
    """Every subterm occurrence, preorder, iteratively."""
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        for _, child in reversed(node.args):
            stack.append(child)


def term_tags(t: Term) -> dict[str, int]:
    """Occurrence count per tag, in first-occurrence order."""
    counts: dict[str, int] = {}
    for node in term_nodes(t):
        counts[node.tag] = counts.get(node.tag, 0) + 1
    return counts


def _walk(t: Term, graph: SortGraph | None) -> tuple[list[tuple[bool, str]], tuple | None]:
    """One preorder walk of ``t``, the reading of a term that :func:`parse_term`
    repeats as it parses.

    Returns the normal-form violations in walk order, each flagged True when
    it names a sort or feature outside ``graph``'s signature, and, for a
    normal term, its record: the tags numbered by first occurrence, each
    tag's sort at its structured occurrence (top if it has none), and each
    node with arguments as ``{tag number: {feature: child number}}``, in
    preorder.
    """
    problems: list[tuple[bool, str]] = []
    number: dict[str, int] = {}
    sorts: list[str] = []
    edges: dict[int, dict[str, int]] = {}
    structured: dict[str, int] = {}  # structured occurrences per tag, in first-occurrence order
    known_sorts = graph._index if graph is not None else None
    known_features = graph._feature_names if graph is not None else None
    stack: list[tuple] = [(t, {}, None)]  # node, its parent's edges, the feature to it
    while stack:
        node, up, feature = stack.pop()
        tag, sort, args = node.tag, node.sort, node.args
        x = up[feature] = number.setdefault(tag, len(number))
        if x == len(sorts):
            sorts.append(TOP)
        if sort == BOT:
            problems.append((False, f"tag {tag} is sorted {BOT}"))
        if known_sorts is not None and sort not in known_sorts:
            problems.append((True, f"unknown sort: {sort}"))
        if args:
            feats, children = zip(*args)
            if known_features is not None:
                problems += [(True, f"unknown feature: {f}") for f in feats if f not in known_features]
            if len(set(feats)) != len(feats):
                dup = sorted(f for f, k in Counter(feats).items() if k > 1)
                problems.append((False, f"tag {tag} repeats feature(s): {', '.join(dup)}"))
            out = edges[x] = {}
            stack += [(child, out, f) for f, child in reversed(args)]
        elif sort == TOP:
            continue
        structured[tag] = structured.get(tag, 0) + 1
        sorts[x] = sort
    problems += [(False, f"tag {tag} has {k} structured occurrences")
                 for tag, k in structured.items() if k > 1]
    return problems, None if problems else (list(number), sorts, edges)


def check_normal(t: Term, graph: SortGraph | None = None) -> list[str]:
    """Violations of the normal-form conditions (empty list means normal)."""
    return [msg for _, msg in _walk(t, graph)[0]]


def _gate(t: Term, graph: SortGraph | None) -> tuple:
    """Raise SignatureMismatch if ``t`` uses names outside ``graph``'s
    signature, else NotNormalTerm if it breaks another normal-form condition;
    on success, return :func:`_walk`'s record, which the caller owns.

    :func:`parse_term` leaves a normal root's record in a one-item list, its
    fourth element; a gate over the same ``graph`` empties it instead of
    walking, so a term keeps no record once gated and a second gate walks.
    """
    cell = t[3] if len(t) > 3 else None
    if cell and cell[0][0] is graph:
        return cell.pop()[1:]
    problems, record = _walk(t, graph)
    if problems:
        unknown = [msg for signature, msg in problems if signature]
        if unknown:
            raise SignatureMismatch("; ".join(unknown))
        raise NotNormalTerm("; ".join(msg for _, msg in problems))
    return record


# -- parsing -----------------------------------------------------------------

_ANY_NAME = _Names()  # the names of no signature

_TAG = "[A-Z_][A-Za-z0-9_]*"
_NAME = "[a-z][A-Za-z0-9_]*"
# One match per node, in preorder: its head (``Tag``, ``Tag: sort`` or a bare
# sort), then '(' or a run of ')' and a ',' with the next feature and its
# arrow, or else a last run of ')'.  A stray match swallows the rest of the
# text.  Whitespace is skipped after each part, never before, which would
# retry a whitespace tail from each of its positions.
_NODE = re.compile(
    rf"(?:({_TAG})(?:\s*:\s*({_NAME}))?|({_NAME}))\s*"
    rf"(?:(\(|[)\s]*,)\s*({_NAME})\s*->\s*|([)\s]*))"
    r"|(\S[\s\S]*)"
)
# A stray character, where a token starts but none can: not a letter, digit,
# '_', mark or '->', or a digit outside a name, or a '-' or '>' outside '->'.
_STRAY = re.compile(r"[^\sA-Za-z0-9_():,.>-]|(?<![A-Za-z0-9_])[0-9]|-(?!>)|(?<!-)>")
# The word or mark a token starts with, as error messages quote it ('' at the end).
_LEAD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|->|.?")


def parse_term(text: str, graph: SortGraph | None) -> Term:
    """Parse ``tag [':' sort] [args] | sort [args]`` against a signature.

    Untagged subterms get fresh ``_Z<n>`` tags (never colliding with tags
    written in the input), assigned in parse order.  A bare tag with neither
    sort nor args is a back-reference.  With ``graph=None``, any sort and
    feature names are accepted; over a signature, they are its own strings,
    and a normal term's root carries :func:`_walk`'s record for :func:`_gate`.
    Text that is not one term raises what :func:`_reject` finds where the
    loop stops.
    """
    units = _NODE.findall(text)
    stray = units.pop()[-1] if units and units[-1][-1] else ""  # the text after the last node
    sort_names = graph._sort_names if graph is not None else _ANY_NAME
    feature_names = graph._feature_names if graph is not None else _ANY_NAME
    fresh = None
    # The walk record, built as the heads arrive; a sort is None until its tag
    # is structured.  The term is normal if no tag is structured twice, no
    # node repeats a feature and no sort is bot.
    number: dict[str, int] = {}
    sorts: list[str | None] = [None] * len(units)  # one per node: more than the tags
    edges: dict[int, dict[str, int]] = {}
    normal = True
    # The innermost open term (at first, a list for the root) collects ``args``
    # and ``out`` and waits for ``feature``'s value; ``stack`` holds each open
    # term's tag, number and sort with its parent's args, edges and feature.
    stack: list[tuple] = []
    args: list = []
    out: dict = {}
    feature = unit = error = None
    rest = iter(units)
    try:
        for unit in rest:
            tag, sort, bare, link, feature_text, tail, _ = unit
            if tag:
                sort = sort_names[sort] if sort else TOP
            else:
                sort = sort_names[bare]
                if fresh is None:
                    fresh = fresh_tags({u[0] for u in units})
                tag = next(fresh)
            x = number.setdefault(tag, len(number))
            if link == "(":
                normal &= sorts[x] is None
                sorts[x] = sort
                stack.append((tag, x, sort, args, out, feature))
                args, out = [], {}
                edges[x] = out
            else:
                if sort != TOP:
                    normal &= sorts[x] is None
                    sorts[x] = sort
                args.append((feature, _new(Term, (tag, sort, ()))))
                out[feature] = x
                if link != ",":
                    for _ in range((link or tail).count(")")):
                        if len(out) < len(args):  # a repeated feature
                            normal = False
                        tag, x, sort, parent, out, feature = stack.pop()
                        node = _new(Term, (tag, sort, tuple(args)))
                        args = parent
                        args.append((feature, node))
                        out[feature] = x
                if not feature_text:
                    break
            feature = feature_names[feature_text]
    except (IndexError, UnknownSort, UnknownFeature) as e:  # an unmatched ')', or an unknown name
        error = e  # rejected below, outside the handler, so that no error chains to this one
    nxt = next(rest, None)
    if error or nxt or stray or len(args) != 1 or stack or unit[4]:
        # The text after the unit starts with the next node's tag or sort, or is the stray match.
        _reject(text, unit, (nxt[0] or nxt[2]) if nxt else stray, error, stack, args, feature_names)
    node = args[0][1]
    del sorts[len(number):]
    if normal and graph is not None and BOT not in sorts:
        if None in sorts:
            sorts = [TOP if s is None else s for s in sorts]
        node = _new(Term, (*node, [(graph, list(number), sorts, edges)]))
    return node


def _reject(text: str, unit: tuple | None, after: str, error: Exception | None,
            stack: list, args: list, feature_names: dict) -> NoReturn:  # noqa: F821 (never evaluated)
    """Raise the first error in ``text``, which is not one term.

    A stray character outranks all.  Otherwise the first error in reading
    order is a ',' after the root, if the loop read on past one, or else it
    lies at ``unit``, where :func:`parse_term`'s loop stopped (on ``error``,
    at a node that no feature follows, or at the last node), or in ``after``,
    the text right after it.  ``stack`` and ``args`` are the loop's open terms
    and innermost arguments.  Builds nothing.
    """
    stray = _STRAY.search(text)
    if stray:
        raise TermSyntaxError(f"unexpected character {stray[0]!r} at position {stray.start()}")
    if unit is None:
        raise _expected("a term", after)
    _, sort, bare, link, feature_text, tail, _ = unit
    root = stack[0][3] if stack else args  # the root's one entry, once it is closed
    if root and (error or stack or feature_text or len(root) > 1):
        # The root closed: at this unit, with one ')' too many, or else
        # before a ',' that the loop read on past.
        mark = ")" if isinstance(error, IndexError) and len(root) == 1 else ","
        raise TermSyntaxError(f"trailing input after term: {mark!r}")
    lead = _LEAD.match(after)[0]
    if lead == ":" and not (sort or link or tail):
        if bare:
            raise TermSyntaxError(f"tags start with an uppercase letter or '_': {bare!r}")
        after = after[1:].lstrip()
        if not after:
            raise TermSyntaxError("unexpected end of input; expected a sort name")
        raise TermSyntaxError(f"expected a sort name after ':', found {_LEAD.match(after)[0]!r}")
    if error:
        raise error
    if feature_text:  # the text ends, or a mark follows, where a term was expected
        raise _expected("a term", after)
    if lead == "(" and not tail or lead == "," and stack:
        # A feature that lacks its arrow, or none.
        after = after[1:].lstrip()
        name = _LEAD.match(after)[0]
        if name < "a":
            raise _expected("a feature name", after)
        feature_names[name]
        raise _expected("'->'", after[len(name):].lstrip())
    if stack:
        raise _expected("',' or ')'", after)
    raise TermSyntaxError(f"trailing input after term: {lead!r}")


def _expected(what: str, after: str) -> TermSyntaxError:
    if not after:
        return TermSyntaxError(f"unexpected end of input; expected {what}")
    return TermSyntaxError(f"expected {what}, found {_LEAD.match(after)[0]!r}")


# Clause atoms, with the tags and names of terms.
_ATOM_SORT_RE = re.compile(rf"\s*({_TAG})\s*:\s*({_NAME})\s*\Z")
_ATOM_FEAT_RE = re.compile(rf"\s*({_TAG})\s*\.\s*({_NAME})\s*(?:≐|=)\s*({_TAG})\s*\Z")
_ATOM_EQ_RE = re.compile(rf"\s*({_TAG})\s*(?:≐|=)\s*({_TAG})\s*\Z")


def parse_clause(text: str, graph: SortGraph | None) -> Clause:
    """Parse ``&``-separated constraints: ``X:s``, ``X.f ≐ Y``, ``X ≐ Y``.

    ASCII ``=`` is accepted for ``≐``.  With ``graph=None``, any sort and
    feature names are accepted; otherwise they are the signature's own strings.
    """
    sort_names = graph._sort_names if graph is not None else _ANY_NAME
    feature_names = graph._feature_names if graph is not None else _ANY_NAME
    constraints = []
    for atom in text.split("&"):
        if not atom.strip():
            raise TermSyntaxError("empty constraint in clause")
        m = _ATOM_SORT_RE.match(atom)
        if m:
            constraints.append(_new(SortConstraint, (m.group(1), sort_names[m.group(2)])))
            continue
        m = _ATOM_FEAT_RE.match(atom)
        if m:
            constraints.append(_new(FeatureConstraint, (m.group(1), feature_names[m.group(2)], m.group(3))))
            continue
        m = _ATOM_EQ_RE.match(atom)
        if m:
            constraints.append(_new(EqualityConstraint, m.groups()))
            continue
        raise TermSyntaxError(f"cannot parse constraint: {atom.strip()!r}")
    return _new(Clause, (tuple(constraints), None))


# -- printing ----------------------------------------------------------------


def format_term(t: Term, style: str = "explicit") -> str:
    """Render a term.

    ``explicit`` prints every tag (``X: s(f -> Y: t)``) and round-trips
    through :func:`parse_term` to an identical term.  ``compact`` elides tags
    that occur only once and prints repeated tags bare after binding them.
    """
    if style not in ("explicit", "compact"):
        raise ValueError(f"unknown style: {style!r}")
    counts = term_tags(t) if style == "compact" else None
    out: list[str] = []
    stack: list[Term | str] = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
            continue
        if counts is not None and counts[node.tag] == 1:
            out.append(node.sort)
        elif node.sort == TOP and not node.args:
            out.append(node.tag)
        else:
            out.append(f"{node.tag}: {node.sort}")
        if node.args:
            # Push right-to-left so pops emit left-to-right; every label after
            # the first carries the ", " that follows its left sibling's subtree.
            stack.append(")")
            for k in range(len(node.args) - 1, -1, -1):
                f, child = node.args[k]
                stack.append(child)
                stack.append(f", {f} -> " if k else f"{f} -> ")
            stack.append("(")
    return "".join(out)


# -- term <-> clause ---------------------------------------------------------


def term_to_clause(t: Term) -> Clause:
    """Flatten a term into constraints, rooted at the term's tag.

    Emits a sort constraint for every non-top sort at its occurrence, a
    feature constraint per argument, and a trailing ``X:top`` for tags that
    never received a sort (so every tag of the result is explicitly sorted).
    """
    constraints = []
    sorted_tags: set[str] = set()
    all_tags: dict[str, None] = {}
    stack = [t]
    while stack:
        node = stack.pop()
        all_tags.setdefault(node.tag, None)
        if node.sort != TOP:
            constraints.append(_new(SortConstraint, (node.tag, node.sort)))
            sorted_tags.add(node.tag)
        for f, child in node.args:
            constraints.append(_new(FeatureConstraint, (node.tag, f, child.tag)))
        for _, child in reversed(node.args):
            stack.append(child)
    for tag in all_tags:
        if tag not in sorted_tags:
            constraints.append(_new(SortConstraint, (tag, TOP)))
    return _new(Clause, (tuple(constraints), t.tag))


def _solved_structure(
    clause: Clause,
) -> tuple[dict[str, str], dict[str, list[tuple[str, str]]]]:
    """Explicit sort and ordered out-edges per tag of a solved clause.

    Raises NotSolved for leftover equalities, duplicate sorts or features,
    and bot sorts.
    """
    sort_of: dict[str, str] = {}
    feats: dict[str, list[tuple[str, str]]] = {}
    valued: set[tuple[str, str]] = set()
    for c in clause.constraints:
        if isinstance(c, SortConstraint):
            if c.tag in sort_of:
                raise NotSolved(f"tag {c.tag} has more than one sort constraint")
            if c.sort == BOT:
                raise NotSolved(f"tag {c.tag} is sorted {BOT}")
            sort_of[c.tag] = c.sort
        elif isinstance(c, FeatureConstraint):
            if (c.tag, c.feature) in valued:
                raise NotSolved(f"tag {c.tag} has more than one value for feature {c.feature}")
            valued.add((c.tag, c.feature))
            feats.setdefault(c.tag, []).append((c.feature, c.target))
        elif isinstance(c, EqualityConstraint):
            raise NotSolved(f"clause still has an equality: {c}")
        else:
            raise _not_a_constraint(c)
    return sort_of, feats


def clause_to_term(clause: Clause) -> Term:
    """Rebuild the term of a solved, rooted clause.

    Each tag expands (sort plus feature arguments) at its first encounter in
    the depth-first walk from the root; later encounters print as bare
    back-references.  Raises NotSolved for duplicate sorts/features or
    leftover equalities, NotRooted when tags are unreachable or unsorted.
    """
    if clause.root is None:
        raise NotRooted("clause has no root", [])
    sort_of, feats = _solved_structure(clause)
    all_tags = clause.tags()
    if clause.root not in all_tags:
        raise NotRooted(f"root {clause.root} does not occur in the clause", [clause.root])
    number = {tag: x for x, tag in enumerate(all_tags)}
    out = [{f: number[y] for f, y in feats[tag]} if tag in feats else None for tag in all_tags]
    t = _expand(number[clause.root], all_tags, list(map(sort_of.get, all_tags)), out)
    reachable = term_tags(t)
    stray = [tag for tag in all_tags if tag not in reachable]
    unsorted = [tag for tag in all_tags if tag in reachable and tag not in sort_of]
    if stray or unsorted:
        parts = []
        if stray:
            parts.append("unreachable from root: " + ", ".join(stray))
        if unsorted:
            parts.append("unsorted: " + ", ".join(unsorted))
        raise NotRooted("; ".join(parts), stray + unsorted)
    return t


def _expand(root: int, names: list, sorts: list, out: list) -> Term:
    """The term of a rooted, numbered structure: ``names[x]`` is the tag,
    ``sorts[x]`` the sort and ``out[x]`` (None for none) the ordered
    ``{feature: number}`` edges of ``root`` and of every number they reach.

    Depth-first from ``root``, each number expands at its first encounter;
    revisits become bare top leaves (back-references).
    """
    expanded = {root}
    x, edges, args = root, iter((out[root] or {}).items()), []
    stack = []  # open ancestors: number, edge iterator, args so far, feature to the child
    while True:
        for f, y in edges:
            if y in expanded:
                args.append((f, _new(Term, (names[y], TOP, ()))))
                continue
            expanded.add(y)
            if not out[y]:
                args.append((f, _new(Term, (names[y], sorts[y], ()))))
                continue
            stack.append((x, edges, args, f))
            x, edges, args = y, iter(out[y].items()), []
            break
        else:
            node = _new(Term, (names[x], sorts[x], tuple(args)))
            if not stack:
                return node
            x, edges, args, f = stack.pop()
            args.append((f, node))


# -- term <-> graph, canonical form and equivalence --------------------------


class OsfGraph(_Slots):
    """A rooted, sort-labeled, feature-edged graph.

    ``sorts`` maps each node to its sort, and ``out`` each node to its
    ``(feature, target)`` edges, in order (feature names unique per node).
    Equality (``==``) is representation equality; use
    :func:`graph_isomorphic` or :func:`graph_equivalent` for the semantic
    relations.
    """

    __match_args__ = __slots__ = ("root", "sorts", "out")

    def __init__(self, root: str, sorts: dict[str, str], out: dict[str, tuple[tuple[str, str], ...]]):
        self.root, self.sorts, self.out = root, sorts, out


def term_to_graph(t: Term) -> OsfGraph:
    """Graph of a normal term: one node per tag, keyed depth-first, edges from
    the structured occurrence."""
    tags, sorts, edges = _gate(t, None)
    ordered: dict[str, str] = {}
    out: dict[str, tuple[tuple[str, str], ...]] = {}
    walk = [0]
    while walk:
        x = walk.pop()
        tag = tags[x]
        if tag in ordered:
            continue
        ordered[tag] = sorts[x]
        targets = edges.get(x, {})
        out[tag] = tuple((f, tags[y]) for f, y in targets.items())
        walk += reversed(targets.values())
    return OsfGraph(root=t.tag, sorts=ordered, out=out)


def graph_to_term(g: OsfGraph) -> Term:
    """Term of a graph: depth-first, each node expanded at first encounter."""
    names = list(g.sorts)
    number = {tag: x for x, tag in enumerate(names)}
    out = [{f: number[y] for f, y in g.out.get(tag, ())} for tag in names]
    return _expand(number[g.root], names, list(g.sorts.values()), out)


def canonical_form(g: OsfGraph) -> OsfGraph:
    """Strip redundant top leaves: non-root, top-labeled, no out-edges, one in-edge.

    Removing one such node can expose another (its parent may become a
    leaf), so stripping runs to a fixpoint; the result is independent of
    removal order because removability only grows as the fringe peels.  A
    removed leaf has no out-edges, so no in-degree ever changes: one pass
    counts them, and a worklist peels each parent whose out-degree drops to 0.
    """
    sorts = g.sorts
    indeg = dict.fromkeys(sorts, 0)
    parent: dict[str, str] = {}
    for n, edges in g.out.items():
        for _, target in edges:
            indeg[target] += 1
            parent[target] = n
    outdeg = {n: len(edges) for n, edges in g.out.items()}
    peelable = {n for n in sorts if n != g.root and sorts[n] == TOP and indeg[n] == 1}
    doomed = [n for n in peelable if not outdeg.get(n)]
    for n in doomed:  # the loop also visits what it appends
        up = parent[n]
        outdeg[up] -= 1
        if outdeg[up] == 0 and up in peelable:
            doomed.append(up)
    gone = set(doomed)
    out = {n: tuple((f, t) for f, t in e if t not in gone) for n, e in g.out.items() if n not in gone}
    return OsfGraph(g.root, {n: s for n, s in sorts.items() if n not in gone}, out)


def graph_isomorphic(g0: OsfGraph, g1: OsfGraph) -> bool:
    """Rooted isomorphism up to tag renaming: same sorts, same feature shape.

    Features are matched as sets per node (edge order is presentation, not
    substance); the witness map must be a bijection.
    """
    fwd: dict[str, str] = {g0.root: g1.root}
    bwd: dict[str, str] = {g1.root: g0.root}
    queue = [(g0.root, g1.root)]
    while queue:
        a, b = queue.pop()
        if g0.sorts[a] != g1.sorts[b]:
            return False
        ea = dict(g0.out.get(a, ()))
        eb = dict(g1.out.get(b, ()))
        if set(ea) != set(eb):
            return False
        for f in ea:
            ta, tb = ea[f], eb[f]
            sa, sb = fwd.get(ta), bwd.get(tb)
            if sa is None and sb is None:
                fwd[ta] = tb
                bwd[tb] = ta
                queue.append((ta, tb))
            elif sa != tb or sb != ta:
                return False
    return len(fwd) == len(g0.sorts) and len(bwd) == len(g1.sorts)


def graph_equivalent(g0: OsfGraph, g1: OsfGraph) -> bool:
    """Equality of canonical forms, up to tag renaming."""
    return graph_isomorphic(canonical_form(g0), canonical_form(g1))


def graph_to_dot(g: OsfGraph) -> str:
    """GraphViz rendering; the root is drawn with a double ellipse."""
    lines = ["digraph term {", "  rankdir=LR;"]
    for node, sort in g.sorts.items():
        extra = ", peripheries=2" if node == g.root else ""
        lines.append(f'  "{node}" [label="{node}: {sort}"{extra}];')
    for node, edges in g.out.items():
        for f, target in edges:
            lines.append(f'  "{node}" -> "{target}" [label="{f}"];')
    lines.append("}")
    return "\n".join(lines)

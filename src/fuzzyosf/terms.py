"""Feature terms and constraint clauses, with parsing and printing.

A term is a tagged, sorted record: ``X: movie(title -> Y: string)``.  Tags
(uppercase or ``_``-initial identifiers) let subterms share structure or form
cycles; sorts and features are lowercase names from a signature.  A clause is
a conjunction of atomic constraints over tags — sort membership ``X:s``,
feature value ``X.f ≐ Y``, and tag equality ``X ≐ Y`` — and is the flattened
form a term compiles to.

All traversals here are iterative, so deeply nested terms (thousands of
levels) never hit the recursion limit.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Union

from .lattice import BOT, TOP, SignatureMismatch, SortGraph, UnknownFeature, UnknownSort


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


class Term:
    """An immutable feature term: tag, sort, and ordered feature arguments."""

    __slots__ = ("tag", "sort", "args")
    __match_args__ = ("tag", "sort", "args")

    tag: str
    sort: str
    args: tuple[tuple[str, Term], ...]

    def __init__(self, tag: str, sort: str, args: tuple[tuple[str, Term], ...] = ()):
        # The slot descriptors' setters bypass the __setattr__ guard below.
        _set_tag(self, tag)
        _set_sort(self, sort)
        _set_args(self, args)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Term, (self.tag, self.sort, self.args)

    def __str__(self) -> str:
        return format_term(self, style="explicit")

    def __repr__(self) -> str:
        return f"Term({self.tag}:{self.sort}, {len(self.args)} args)"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
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

    def __hash__(self) -> int:
        # Equal terms have equal preorder node sequences.
        return hash(tuple((n.tag, n.sort, tuple(f for f, _ in n.args)) for n in term_nodes(self)))


_set_tag = Term.tag.__set__
_set_sort = Term.sort.__set__
_set_args = Term.args.__set__


@dataclass(frozen=True)
class SortConstraint:
    tag: str
    sort: str

    def __str__(self) -> str:
        return f"{self.tag}:{self.sort}"


@dataclass(frozen=True)
class FeatureConstraint:
    tag: str
    feature: str
    target: str

    def __str__(self) -> str:
        return f"{self.tag}.{self.feature} ≐ {self.target}"


@dataclass(frozen=True)
class EqualityConstraint:
    left: str
    right: str

    def __str__(self) -> str:
        return f"{self.left} ≐ {self.right}"


Constraint = Union[SortConstraint, FeatureConstraint, EqualityConstraint]


@dataclass(frozen=True)
class Clause:
    """A conjunction of constraints, optionally rooted at one tag."""

    constraints: tuple[Constraint, ...]
    root: str | None = None

    def tags(self) -> list[str]:
        """Every tag mentioned, in first-occurrence order."""
        seen: dict[str, None] = {}
        for c in self.constraints:
            if isinstance(c, SortConstraint):
                seen.setdefault(c.tag, None)
            elif isinstance(c, FeatureConstraint):
                seen.setdefault(c.tag, None)
                seen.setdefault(c.target, None)
            else:
                seen.setdefault(c.left, None)
                seen.setdefault(c.right, None)
        return list(seen)

    def __str__(self) -> str:
        return format_clause(self)


def format_clause(clause: Clause) -> str:
    return " & ".join(str(c) for c in clause.constraints)


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


def _walk(t: Term, graph: SortGraph | None) -> tuple[list[tuple[bool, str]], dict[str, str], dict]:
    """One preorder walk of ``t``, the only place a term is read into its graph.

    Returns the normal-form violations in walk order, each flagged True when
    it names a sort or feature outside ``graph``'s signature; each tag's sort
    at its structured occurrence (top if it has none) in first-occurrence
    order; and each structured tag's args, keyed in preorder (the last
    occurrence's when a term that is not normal has several).
    """
    problems: list[tuple[bool, str]] = []
    sorts: dict[str, str] = {}
    structured: dict[str, tuple[tuple[str, Term], ...]] = {}
    repeats: dict[str, int] = {}  # structured occurrences of a tag that has several
    known_sorts = graph._index if graph is not None else None
    known_features = graph._feature_set if graph is not None else None
    stack = [t]
    while stack:
        node = stack.pop()
        tag, sort, args = node.tag, node.sort, node.args
        if sort == BOT:
            problems.append((False, f"tag {tag} is sorted {BOT}"))
        if known_sorts is not None and sort not in known_sorts:
            problems.append((True, f"unknown sort: {sort}"))
        if args:
            feats, children = zip(*args)
            if known_features is not None and not known_features.issuperset(feats):
                problems += [(True, f"unknown feature: {f}") for f in feats if f not in known_features]
            if len(set(feats)) != len(feats):
                dup = sorted(f for f, k in Counter(feats).items() if k > 1)
                problems.append((False, f"tag {tag} repeats feature(s): {', '.join(dup)}"))
            stack += children[::-1]
        elif sort == TOP:
            sorts.setdefault(tag, TOP)
            continue
        if tag in structured:
            repeats[tag] = repeats.get(tag, 1) + 1
        structured[tag] = args
        sorts[tag] = sort
    if repeats:  # reported in first-occurrence order
        problems += [(False, f"tag {tag} has {repeats[tag]} structured occurrences")
                     for tag in structured if tag in repeats]
    return problems, sorts, structured


def check_normal(t: Term, graph: SortGraph | None = None) -> list[str]:
    """Violations of the normal-form conditions (empty list means normal)."""
    return [msg for _, msg in _walk(t, graph)[0]]


def is_normal(t: Term, graph: SortGraph | None = None) -> bool:
    return not _walk(t, graph)[0]


def _gate(t: Term, graph: SortGraph | None) -> tuple[dict[str, str], dict]:
    """Raise SignatureMismatch if ``t`` uses names outside ``graph``'s
    signature, else NotNormalTerm if it breaks another normal-form condition;
    on success, return :func:`_walk`'s sorts and args."""
    problems, sorts, structured = _walk(t, graph)
    if problems:
        unknown = [msg for signature, msg in problems if signature]
        if unknown:
            raise SignatureMismatch("; ".join(unknown))
        raise NotNormalTerm("; ".join(msg for _, msg in problems))
    return sorts, structured


# -- parsing -----------------------------------------------------------------

# One match per grammar unit, without the whitespace after it: a node head
# (``Tag``, ``Tag:`` or ``Tag: sort``), a bare sort, a feature with its arrow
# (``f ->``), a punctuation mark, or a stray character.  A stray character
# swallows the rest of the text, so it can only be the last token.  The
# whitespace is skipped after a token, not before: skipping it before would
# retry a whitespace tail from each of its positions, quadratic in its length.
_TOKEN = re.compile(
    r"([A-Z_][A-Za-z0-9_]*(?:\s*:\s*(?:[a-z][A-Za-z0-9_]*)?)?"
    r"|[a-z][A-Za-z0-9_]*(?:\s*->)?"
    r"|->|[():,.]"
    r"|\S[\s\S]*)\s*"
)
# Every first character of a token that is not stray; '-' starts only '->'.
_STARTS = frozenset(string.ascii_letters + "_():,.")
# The word or mark a token starts with, as error messages quote it.
_LEAD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|->|.")


def _lead(tok: str) -> str:
    return _LEAD.match(tok).group()


def parse_term(text: str, graph: SortGraph | None) -> Term:
    """Parse ``tag [':' sort] [args] | sort [args]`` against a signature.

    Untagged subterms get fresh ``_Z<n>`` tags (never colliding with tags
    written in the input), assigned in parse order.  A bare tag with neither
    sort nor args is a back-reference.  With ``graph=None``, any sort and
    feature names are accepted.
    """
    toks = _TOKEN.findall(text)
    if toks and toks[-1][0] not in _STARTS and toks[-1] != "->":
        rest = toks[-1]
        raise TermSyntaxError(f"unexpected character {rest[0]!r} at position {len(text) - len(rest)}")
    toks.append("")  # end of input
    known_sorts = graph._index if graph is not None else None
    known_features = graph._feature_set if graph is not None else None
    fresh = None

    # With no stray token left, a token's first character tells its kind:
    # names sort from 'a' up, tags ('A'-'Z', '_') from 'A' up, punctuation
    # below 'A', and the empty end marker below everything.  The innermost
    # open term collects ``args`` and waits for ``feature``'s value; ``stack``
    # holds each open term's tag and sort with its parent's args and feature
    # (None at the top level).
    stack: list[tuple] = []
    args: list | None = None
    feature = None
    i = 0
    while True:
        # A term: its head, then '(' or the end of the term.
        tok = toks[i]
        i += 1
        if tok >= "a":
            if tok[-1] == ">":
                # A sort leaf followed by '->', which no rule accepts next.
                name = tok[:-2].rstrip()
                if known_sorts is not None and name not in known_sorts:
                    raise UnknownSort(name)
                if args is not None:
                    raise TermSyntaxError("expected ',' or ')', found '->'")
                raise TermSyntaxError("trailing input after term: '->'")
            if toks[i] == ":":
                raise TermSyntaxError(f"tags start with an uppercase letter or '_': {tok!r}")
            if known_sorts is not None and tok not in known_sorts:
                raise UnknownSort(tok)
            if fresh is None:
                fresh = fresh_tags({_lead(t) for t in toks if "A" <= t < "a"})
            tag = next(fresh)
            sort = tok
        elif tok >= "A":
            if ":" in tok:
                tag, _, sort = tok.partition(":")
                tag = tag.rstrip()
                sort = sort.lstrip()
                if not sort:
                    if not toks[i]:
                        raise TermSyntaxError("unexpected end of input; expected a sort name")
                    raise TermSyntaxError(f"expected a sort name after ':', found {_lead(toks[i])!r}")
                if known_sorts is not None and sort not in known_sorts:
                    raise UnknownSort(sort)
            else:
                tag = tok
                sort = TOP
        elif tok:
            raise TermSyntaxError(f"expected a term, found {tok!r}")
        else:
            raise TermSyntaxError("unexpected end of input; expected a term")
        if toks[i] == "(":
            i += 1
            stack.append((tag, sort, args, feature))
            args = []
        else:
            # A finished term closes every open term whose ')' follows it.
            node = Term(tag, sort)
            while True:
                if args is None:
                    if toks[i]:
                        raise TermSyntaxError(f"trailing input after term: {_lead(toks[i])!r}")
                    return node
                args.append((feature, node))
                tok = toks[i]
                i += 1
                if tok == ",":
                    break
                if tok != ")":
                    if not tok:
                        raise TermSyntaxError("unexpected end of input; expected ',' or ')'")
                    raise TermSyntaxError(f"expected ',' or ')', found {_lead(tok)!r}")
                tag, sort, parent, feature = stack.pop()
                node = Term(tag, sort, tuple(args))
                args = parent
        # A feature and its arrow.
        tok = toks[i]
        i += 1
        if tok < "a":
            if not tok:
                raise TermSyntaxError("unexpected end of input; expected a feature name")
            raise TermSyntaxError(f"expected a feature name, found {_lead(tok)!r}")
        arrow = tok[-1] == ">"
        feature = tok[:-2].rstrip() if arrow else tok
        if known_features is not None and feature not in known_features:
            raise UnknownFeature(feature)
        if not arrow:
            if not toks[i]:
                raise TermSyntaxError("unexpected end of input; expected '->'")
            raise TermSyntaxError(f"expected '->', found {_lead(toks[i])!r}")


_ATOM_SORT_RE = re.compile(r"\s*([A-Z_]\w*)\s*:\s*([a-z]\w*)\s*\Z")
_ATOM_FEAT_RE = re.compile(r"\s*([A-Z_]\w*)\s*\.\s*([a-z]\w*)\s*(?:≐|=)\s*([A-Z_]\w*)\s*\Z")
_ATOM_EQ_RE = re.compile(r"\s*([A-Z_]\w*)\s*(?:≐|=)\s*([A-Z_]\w*)\s*\Z")


def parse_clause(text: str, graph: SortGraph | None) -> Clause:
    """Parse ``&``-separated constraints: ``X:s``, ``X.f ≐ Y``, ``X ≐ Y``.

    ASCII ``=`` is accepted for ``≐``.  With ``graph=None``, any sort and
    feature names are accepted.
    """
    known_sorts = graph._index if graph is not None else None
    known_features = graph._feature_set if graph is not None else None
    constraints: list[Constraint] = []
    for atom in text.split("&"):
        if not atom.strip():
            raise TermSyntaxError("empty constraint in clause")
        m = _ATOM_SORT_RE.match(atom)
        if m:
            if known_sorts is not None and m.group(2) not in known_sorts:
                raise UnknownSort(m.group(2))
            constraints.append(SortConstraint(m.group(1), m.group(2)))
            continue
        m = _ATOM_FEAT_RE.match(atom)
        if m:
            if known_features is not None and m.group(2) not in known_features:
                raise UnknownFeature(m.group(2))
            constraints.append(FeatureConstraint(m.group(1), m.group(2), m.group(3)))
            continue
        m = _ATOM_EQ_RE.match(atom)
        if m:
            constraints.append(EqualityConstraint(m.group(1), m.group(2)))
            continue
        raise TermSyntaxError(f"cannot parse constraint: {atom.strip()!r}")
    return Clause(tuple(constraints))


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
    constraints: list[Constraint] = []
    sorted_tags: set[str] = set()
    all_tags: dict[str, None] = {}
    stack = [t]
    while stack:
        node = stack.pop()
        all_tags.setdefault(node.tag, None)
        if node.sort != TOP:
            constraints.append(SortConstraint(node.tag, node.sort))
            sorted_tags.add(node.tag)
        for f, child in node.args:
            constraints.append(FeatureConstraint(node.tag, f, child.tag))
        for _, child in reversed(node.args):
            stack.append(child)
    for tag in all_tags:
        if tag not in sorted_tags:
            constraints.append(SortConstraint(tag, TOP))
    return Clause(tuple(constraints), root=t.tag)


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
        if isinstance(c, EqualityConstraint):
            raise NotSolved(f"clause still has an equality: {c}")
        if isinstance(c, SortConstraint):
            if c.tag in sort_of:
                raise NotSolved(f"tag {c.tag} has more than one sort constraint")
            if c.sort == BOT:
                raise NotSolved(f"tag {c.tag} is sorted {BOT}")
            sort_of[c.tag] = c.sort
        else:
            if (c.tag, c.feature) in valued:
                raise NotSolved(f"tag {c.tag} has more than one value for feature {c.feature}")
            valued.add((c.tag, c.feature))
            feats.setdefault(c.tag, []).append((c.feature, c.target))
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

    reachable: set[str] = set()
    stack = [clause.root]
    while stack:
        tag = stack.pop()
        if tag in reachable:
            continue
        reachable.add(tag)
        for _, target in feats.get(tag, ()):
            stack.append(target)
    stray = [tag for tag in all_tags if tag not in reachable]
    unsorted = [tag for tag in all_tags if tag in reachable and tag not in sort_of]
    if stray or unsorted:
        parts = []
        if stray:
            parts.append("unreachable from root: " + ", ".join(stray))
        if unsorted:
            parts.append("unsorted: " + ", ".join(unsorted))
        raise NotRooted("; ".join(parts), stray + unsorted)
    return _expand(clause.root, {tag: (tag, sort_of[tag], feats.get(tag, ())) for tag in all_tags})


def _expand(root, nodes) -> Term:
    """The term of a rooted structure: ``nodes[key]`` is ``(tag, sort, edges)``
    for the ``root`` key and every key its ordered ``(feature, key)`` edges
    reach, with keys of any hashable kind.

    Depth-first from ``root``, each node expands at its first encounter;
    revisits become bare top leaves (back-references).
    """
    expanded = {root}
    tag, sort, edges = nodes[root]
    edges, args = iter(edges), []
    stack = []  # open ancestors: tag, sort, edge iterator, args so far, feature to the child
    while True:
        for f, key in edges:
            if key in expanded:
                args.append((f, Term(nodes[key][0], TOP, ())))
            else:
                expanded.add(key)
                stack.append((tag, sort, edges, args, f))
                tag, sort, edges = nodes[key]
                edges, args = iter(edges), []
                break
        else:
            node = Term(tag, sort, tuple(args))
            if not stack:
                return node
            tag, sort, edges, args, f = stack.pop()
            args.append((f, node))

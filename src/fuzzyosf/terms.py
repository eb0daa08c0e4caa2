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
from dataclasses import dataclass, field
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


@dataclass(frozen=True, repr=False)
class Term:
    """An immutable feature term: tag, sort, and ordered feature arguments."""

    tag: str
    sort: str
    args: tuple[tuple[str, "Term"], ...] = ()

    def __str__(self) -> str:
        return format_term(self, style="explicit")

    def __repr__(self) -> str:
        return f"Term({self.tag}:{self.sort}, {len(self.args)} args)"


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


def term_sorts(t: Term) -> dict[str, str]:
    """The sort each tag carries at its structured occurrence (top if bare-only).

    Requires a normal term (at most one structured occurrence per tag).
    """
    sorts: dict[str, str] = {}
    for node in term_nodes(t):
        if node.sort != TOP or node.args:
            prev = sorts.get(node.tag)
            if prev is not None and prev != TOP:
                raise NotNormalTerm(f"tag {node.tag} has more than one structured occurrence")
            sorts[node.tag] = node.sort
        else:
            sorts.setdefault(node.tag, TOP)
    return sorts


def _violations(t: Term, graph: SortGraph | None) -> list[tuple[bool, str]]:
    """Normal-form violations in walk order, each flagged True when it names
    a sort or feature outside ``graph``'s signature."""
    problems: list[tuple[bool, str]] = []
    structured: dict[str, int] = {}
    for node in term_nodes(t):
        if node.sort == BOT:
            problems.append((False, f"tag {node.tag} is sorted {BOT}"))
        if graph is not None:
            if not graph.has_sort(node.sort):
                problems.append((True, f"unknown sort: {node.sort}"))
            for f, _ in node.args:
                if not graph.has_feature(f):
                    problems.append((True, f"unknown feature: {f}"))
        feats = [f for f, _ in node.args]
        if len(set(feats)) != len(feats):
            dup = sorted({f for f in feats if feats.count(f) > 1})
            problems.append((False, f"tag {node.tag} repeats feature(s): {', '.join(dup)}"))
        if node.sort != TOP or node.args:
            structured[node.tag] = structured.get(node.tag, 0) + 1
    for tag, k in structured.items():
        if k > 1:
            problems.append((False, f"tag {tag} has {k} structured occurrences"))
    return problems


def check_normal(t: Term, graph: SortGraph | None = None) -> list[str]:
    """Violations of the normal-form conditions (empty list means normal)."""
    return [msg for _, msg in _violations(t, graph)]


def is_normal(t: Term, graph: SortGraph | None = None) -> bool:
    return not _violations(t, graph)


def assert_normal(t: Term, graph: SortGraph | None = None) -> None:
    """Raise SignatureMismatch if ``t`` uses names outside ``graph``'s
    signature, else NotNormalTerm if it breaks another normal-form condition."""
    problems = _violations(t, graph)
    if problems:
        unknown = [msg for signature, msg in problems if signature]
        if unknown:
            raise SignatureMismatch("; ".join(unknown))
        raise NotNormalTerm("; ".join(msg for _, msg in problems))


def rename_term(t: Term, mapping: dict[str, str]) -> Term:
    """Rebuild a term with tags renamed (iterative postorder)."""
    out: dict[int, Term] = {}
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        node, done = stack.pop()
        if done:
            args = tuple((f, out[id(child)]) for f, child in node.args)
            out[id(node)] = Term(mapping.get(node.tag, node.tag), node.sort, args)
        else:
            stack.append((node, True))
            for _, child in node.args:
                stack.append((child, False))
    return out[id(t)]


# -- parsing -----------------------------------------------------------------

_TOKEN_RE = re.compile(r"->|[():,.]|[A-Za-z_][A-Za-z0-9_]*")
_WS_RE = re.compile(r"\s*")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    pos = 0
    n = len(text)
    while pos < n:
        pos = _WS_RE.match(text, pos).end()
        if pos >= n:
            break
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise TermSyntaxError(f"unexpected character {text[pos]!r} at position {pos}")
        tokens.append((m.group(), pos))
        pos = m.end()
    return tokens


def _is_tag(tok: str) -> bool:
    return bool(re.match(r"[A-Z_]", tok[0])) and re.fullmatch(r"[A-Z_][A-Za-z0-9_]*", tok) is not None


def _is_lower(tok: str) -> bool:
    return re.fullmatch(r"[a-z][A-Za-z0-9_]*", tok) is not None


class _TokenStream:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.text = text

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self, what: str = "token") -> str:
        if self.i >= len(self.tokens):
            raise TermSyntaxError(f"unexpected end of input; expected {what}")
        tok, _ = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, literal: str) -> None:
        tok = self.next(repr(literal))
        if tok != literal:
            raise TermSyntaxError(f"expected {literal!r}, found {tok!r}")

    def done(self) -> bool:
        return self.i >= len(self.tokens)


def parse_term(text: str, graph: SortGraph | None) -> Term:
    """Parse ``tag [':' sort] [args] | sort [args]`` against a signature.

    Untagged subterms get fresh ``_Z<n>`` tags (never colliding with tags
    written in the input), assigned in parse order.  A bare tag with neither
    sort nor args is a back-reference.  With ``graph=None``, any sort and
    feature names are accepted.
    """
    stream = _TokenStream(text)
    user_tags = {tok for tok, _ in stream.tokens if _is_tag(tok)}
    fresh = fresh_tags(user_tags)

    # frames: [tag, sort, args_list, pending_feature]
    frames: list[list] = []
    cur: Term | None = None
    state = "term"
    while True:
        if state == "term":
            tok = stream.next("a term")
            if _is_tag(tok):
                tag = tok
                if stream.peek() == ":":
                    stream.expect(":")
                    sort = stream.next("a sort name")
                    if not _is_lower(sort):
                        raise TermSyntaxError(f"expected a sort name after ':', found {sort!r}")
                    if graph is not None and not graph.has_sort(sort):
                        raise UnknownSort(sort)
                else:
                    sort = TOP
            elif _is_lower(tok):
                if stream.peek() == ":":
                    raise TermSyntaxError(
                        f"tags start with an uppercase letter or '_': {tok!r}"
                    )
                if graph is not None and not graph.has_sort(tok):
                    raise UnknownSort(tok)
                tag = next(fresh)
                sort = tok
            else:
                raise TermSyntaxError(f"expected a term, found {tok!r}")
            if stream.peek() == "(":
                stream.expect("(")
                frames.append([tag, sort, [], None])
                state = "feature"
            else:
                cur = Term(tag, sort, ())
                state = "after"
        elif state == "feature":
            tok = stream.next("a feature name")
            if not _is_lower(tok):
                raise TermSyntaxError(f"expected a feature name, found {tok!r}")
            if graph is not None and not graph.has_feature(tok):
                raise UnknownFeature(tok)
            stream.expect("->")
            frames[-1][3] = tok
            state = "term"
        else:  # "after"
            if not frames:
                break
            frame = frames[-1]
            frame[2].append((frame[3], cur))
            tok = stream.next("',' or ')'")
            if tok == ",":
                state = "feature"
            elif tok == ")":
                frames.pop()
                cur = Term(frame[0], frame[1], tuple(frame[2]))
                state = "after"
            else:
                raise TermSyntaxError(f"expected ',' or ')', found {tok!r}")
    if not stream.done():
        raise TermSyntaxError(f"trailing input after term: {stream.peek()!r}")
    assert cur is not None
    return cur


_ATOM_SORT_RE = re.compile(r"\s*([A-Z_]\w*)\s*:\s*([a-z]\w*)\s*\Z")
_ATOM_FEAT_RE = re.compile(r"\s*([A-Z_]\w*)\s*\.\s*([a-z]\w*)\s*(?:≐|=)\s*([A-Z_]\w*)\s*\Z")
_ATOM_EQ_RE = re.compile(r"\s*([A-Z_]\w*)\s*(?:≐|=)\s*([A-Z_]\w*)\s*\Z")


def parse_clause(text: str, graph: SortGraph | None) -> Clause:
    """Parse ``&``-separated constraints: ``X:s``, ``X.f ≐ Y``, ``X ≐ Y``.

    ASCII ``=`` is accepted for ``≐``.  With ``graph=None``, any sort and
    feature names are accepted.
    """
    constraints: list[Constraint] = []
    for atom in text.split("&"):
        if not atom.strip():
            raise TermSyntaxError("empty constraint in clause")
        m = _ATOM_SORT_RE.match(atom)
        if m:
            if graph is not None and not graph.has_sort(m.group(2)):
                raise UnknownSort(m.group(2))
            constraints.append(SortConstraint(m.group(1), m.group(2)))
            continue
        m = _ATOM_FEAT_RE.match(atom)
        if m:
            if graph is not None and not graph.has_feature(m.group(2)):
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
    counts = term_tags(t) if style == "compact" else {}
    out: list[str] = []
    # Stack items: ("term", node) or ("lit", text).
    stack: list[tuple[str, object]] = [("term", t)]
    while stack:
        kind, item = stack.pop()
        if kind == "lit":
            out.append(item)  # type: ignore[arg-type]
            continue
        node: Term = item  # type: ignore[assignment]
        bare = node.sort == TOP and not node.args
        if style == "explicit":
            head = f"{node.tag}: {node.sort}" if not bare else node.tag
        else:
            multi = counts[node.tag] > 1
            if bare:
                head = node.tag if multi else node.sort
            elif multi:
                head = f"{node.tag}: {node.sort}"
            else:
                head = node.sort
        out.append(head)
        if node.args:
            # Push right-to-left so pops emit left-to-right; the ", " pushed
            # before every arg except the rightmost lands after the preceding
            # child's subtree.
            stack.append(("lit", ")"))
            last = True
            for f, child in reversed(node.args):
                if not last:
                    stack.append(("lit", ", "))
                last = False
                stack.append(("term", child))
                stack.append(("lit", f"{f} -> "))
            stack.append(("lit", "("))
    return "".join(out)


# -- term <-> clause ---------------------------------------------------------


def term_to_clause(t: Term, graph: SortGraph | None = None) -> Clause:
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
            bucket = feats.setdefault(c.tag, [])
            if any(f == c.feature for f, _ in bucket):
                raise NotSolved(f"tag {c.tag} has more than one value for feature {c.feature}")
            bucket.append((c.feature, c.target))
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
    return _expand(clause.root, sort_of, feats)


def _expand(root: str, sort_of: dict[str, str], out: dict) -> Term:
    """The term of a rooted structure, given each reachable tag's sort and
    ordered ``(feature, target)`` edges.

    Depth-first from ``root``, each tag expands at its first encounter;
    revisits become bare top leaves (back-references).
    """
    expanded: set[str] = set()
    # Frames: [tag, args_accumulated]; drive with an explicit control stack of
    # ("visit", tag) / ("close", frame) entries.
    result: Term | None = None
    frames: list[list] = []
    control: list[tuple[str, object]] = [("visit", root)]
    while control:
        op, payload = control.pop()
        if op == "visit":
            tag = payload  # type: ignore[assignment]
            if tag in expanded:
                node = Term(tag, TOP, ())
                if frames:
                    frames[-1][1].append(node)
                else:
                    result = node
                continue
            expanded.add(tag)
            frame = [tag, []]
            frames.append(frame)
            control.append(("close", frame))
            for _, target in reversed(out.get(tag, ())):
                control.append(("visit", target))
        else:
            frame = payload  # type: ignore[assignment]
            frames.pop()
            tag = frame[0]
            names = [f for f, _ in out.get(tag, ())]
            node = Term(tag, sort_of[tag], tuple(zip(names, frame[1])))
            if frames:
                frames[-1][1].append(node)
            else:
                result = node
    assert result is not None
    return result

"""The package's public surface."""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
import types
from pathlib import Path

import fuzzyosf

# Adding or removing an export is a deliberate act: it must come with an edit here.
EXPORTS = [
    "BOT",
    "CanonicalAlgebra",
    "Clause",
    "CycleDetected",
    "DegreeOutOfRange",
    "DroppedEdge",
    "DuplicateName",
    "EqualityConstraint",
    "FeatureConstraint",
    "Inconsistent",
    "Interpretation",
    "Morphism",
    "Normalized",
    "NotALattice",
    "NotNormalTerm",
    "NotRooted",
    "NotSolved",
    "OntologyError",
    "OsfGraph",
    "SignatureMismatch",
    "SortConstraint",
    "SortGraph",
    "SortLattice",
    "SubsumptionWitness",
    "TOP",
    "Term",
    "TermSyntaxError",
    "TheoremReport",
    "UnifyResult",
    "UnknownFeature",
    "UnknownSort",
    "approximation_degree",
    "best_denotation",
    "build_similarity",
    "canonical_form",
    "check_normal",
    "check_theorems",
    "clause_to_term",
    "crisp_subsumes",
    "denote",
    "enrich_from_similarity",
    "find_morphism",
    "format_clause",
    "format_ontology",
    "format_term",
    "fuzzy_subsumption_degree",
    "generated_subalgebra",
    "graph_equivalent",
    "graph_isomorphic",
    "graph_to_dot",
    "graph_to_term",
    "load_interpretation",
    "load_ontology",
    "morphism_max_beta",
    "normalize",
    "parse_clause",
    "parse_term",
    "satisfaction_degree",
    "satisfies",
    "subsumption_witness",
    "term_to_clause",
    "term_to_graph",
    "unify",
    "validate_interpretation",
]

# Each module's module-level ``from .x import`` edges.  A new edge is a new
# dependency between layers: it must come with an edit here.
MODULE_IMPORTS = {
    "__init__": {"lattice", "normalize", "semantics", "subsumption", "terms"},
    "cli": {"lattice", "normalize", "semantics", "subsumption", "terms"},
    "lattice": set(),
    "normalize": {"lattice", "terms"},
    "samples": {"lattice", "semantics"},
    "semantics": {"lattice", "normalize", "subsumption", "terms"},
    "subsumption": {"lattice", "terms"},
    "terms": {"lattice"},
}


def test_every_export_resolves_once():
    names = fuzzyosf.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(fuzzyosf, name), name


def test_exports_are_frozen():
    assert len(EXPORTS) == 64
    assert sorted(fuzzyosf.__all__) == EXPORTS


def test_everything_importable_is_exported():
    # The README promises that __all__ lists every public name of the package.
    public = {
        name
        for name, value in vars(fuzzyosf).items()
        if not name.startswith("_")
        and not isinstance(value, types.ModuleType)
        and name != "annotations"
    }
    assert public == set(fuzzyosf.__all__)


def test_module_imports_are_frozen():
    found = {}
    for path in sorted(Path(fuzzyosf.__file__).parent.glob("*.py")):
        body = ast.parse(path.read_text()).body
        found[path.stem] = {
            stmt.module for stmt in body if isinstance(stmt, ast.ImportFrom) and stmt.level == 1
        }
    assert found == MODULE_IMPORTS


def test_the_cli_does_not_import_random():
    # Only the harness draws, and it imports random itself.  The records are
    # plain classes and annotations are never evaluated, so neither
    # dataclasses (with inspect under it) nor typing is read either.  -S keeps
    # site out: a .pth file can import any of them before the package is read.
    parent = str(Path(fuzzyosf.__file__).parent.parent)
    unwanted = ["dataclasses", "inspect", "typing", "random"]
    code = (
        f"import sys; sys.path.insert(0, {parent!r}); import fuzzyosf.cli; "
        f"print([m for m in {unwanted!r} if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_no_unused_imports():
    # A module-level import that nothing reads is dead code and a false dependency.
    unused = []
    for path in sorted(Path(fuzzyosf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        module = importlib.import_module(f"fuzzyosf.{path.stem}".removesuffix(".__init__"))
        exported = set(getattr(module, "__all__", ()))
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read and name not in exported:
                    unused.append(f"{path.name}:{stmt.lineno}: {name}")
    assert unused == []


def test_no_unused_private_names():
    # A module-level private function, class or constant that no module of the
    # package reads is dead code (a leftover after a refactor).
    defined = []
    used: set[str] = set()
    for path in sorted(Path(fuzzyosf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(path.name, name) for name in names if _is_private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert len(defined) > 0
    assert [f"{module}: {name}" for module, name in defined if name not in used] == []


def test_no_unused_public_names():
    # A module-level public function, class or constant that is neither
    # exported nor read by any module of the package is dead code; so is a
    # public method of a package class that no module reads as an attribute.
    defined = []
    methods = []
    used: set[str] = set()
    read_attributes: set[str] = set()
    for path in sorted(Path(fuzzyosf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, stmt.name))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined += [
                    (path.name, n.id) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
                ]
            if isinstance(stmt, ast.ClassDef):
                methods += [
                    (path.name, f"{stmt.name}.{f.name}")
                    for f in stmt.body
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    read_attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    public = [(module, name) for module, name in defined if not name.startswith("_")]
    assert len(public) > len(fuzzyosf.__all__)
    exported = set(fuzzyosf.__all__)
    assert [f"{m}: {name}" for m, name in public if name not in exported and name not in used] == []
    assert len(methods) > 0
    unread = [f"{m}: {name}" for m, name in methods if name.split(".")[1] not in read_attributes]
    assert unread == []


def test_no_unread_function_parameters():
    # A parameter that a module-level function never reads is an input callers
    # must supply for nothing.  Methods are exempt: a model's sort_degree,
    # positive_sorts, feature_image and is_trivial take what the protocol
    # passes, needed or not.
    unread = []
    for path in sorted(Path(fuzzyosf.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, ast.FunctionDef):
                continue
            params = stmt.args.posonlyargs + stmt.args.args + stmt.args.kwonlyargs
            params += [a for a in (stmt.args.vararg, stmt.args.kwarg) if a is not None]
            read = {
                node.id
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            unread += [f"{path.name}: {stmt.name}({a.arg})" for a in params if a.arg not in read]
    assert unread == []


def test_no_pop_from_the_front_of_a_list():
    # list.pop(0) shifts every remaining element, so a queue drained with it
    # is quadratic; walk it with an index or use a deque.
    found = []
    for path in sorted(Path(fuzzyosf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "pop"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == 0
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_sources_parse_as_the_oldest_supported_python():
    # pyproject.toml promises Python 3.10.  Under ``feature_version`` the
    # parser rejects most later syntax (``except*``, for one); the CI matrix
    # runs the suite on 3.10 for the rest.
    paths = sorted(Path(fuzzyosf.__file__).parent.rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_oracles_import_nothing_from_the_package():
    # The reference implementations must not share code with what they check.
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        found += [f"line {node.lineno}: {m}" for m in modules if m.split(".")[0] == "fuzzyosf"]
    assert found == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")

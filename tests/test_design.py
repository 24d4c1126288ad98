"""Design guards: the family string is read in two places only, the three
ideal engines share one base class and answer to the same names, only the
groups module knows how a segment is stored, and only the dplusm module knows
how a leveled module is stored."""

from __future__ import annotations

import ast
import dataclasses
import inspect
import pathlib

from semistar import operations
from semistar.dplusm import LeveledModule

SRC = pathlib.Path(operations.__file__).parent

# (file, enclosing scope) pairs allowed to look at the family string
ALLOWED = {("operations.py", "DomainHandle.engine"), ("exprs.py", "parse_domain")}


def _is_family(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "family") or (
        isinstance(node, ast.Name) and node.id == "family"
    )


class _FamilyReads(ast.NodeVisitor):
    """Comparisons against, matches on, and lookups keyed by a family."""

    def __init__(self):
        self.scope = []
        self.hits = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_ClassDef = _enter

    def _hit(self, node):
        self.hits.append((".".join(self.scope), node.lineno))

    def visit_Compare(self, node):
        if any(_is_family(x) for x in (node.left, *node.comparators)):
            self._hit(node)
        self.generic_visit(node)

    def visit_Match(self, node):
        if _is_family(node.subject):
            self._hit(node)
        self.generic_visit(node)

    def visit_Subscript(self, node):
        if _is_family(node.slice):
            self._hit(node)
        self.generic_visit(node)


def _family_reads(source: str):
    finder = _FamilyReads()
    finder.visit(ast.parse(source))
    return finder.hits


def test_the_guard_sees_a_family_branch():
    planted = "def f(dom):\n    if dom.family in ('numsgr',):\n        return CAPS[dom.family]\n"
    assert _family_reads(planted) == [("f", 2), ("f", 3)]


def test_only_the_engine_table_and_the_domain_parser_read_the_family():
    stray = []
    for path in sorted(SRC.rglob("*.py")):
        for scope, line in _family_reads(path.read_text(encoding="utf-8")):
            if (path.name, scope) not in ALLOWED:
                stray.append(f"{path.relative_to(SRC)}:{line} in {scope or 'module'}")
    assert stray == []


def test_the_engines_expose_the_same_public_names():
    engines = set(operations._ENGINES.values())
    assert {e.__name__ for e in engines} == {"_NumsgrEngine", "_PullbackEngine", "_ValuationEngine"}
    names = {e.__name__: frozenset(n for n in dir(e) if not n.startswith("_")) for e in engines}
    union = frozenset().union(*names.values())
    assert {name: sorted(union - got) for name, got in names.items()} == {name: [] for name in names}


def _bound_functions(cls):
    """Class attributes that are functions defined outside the class body,
    such as a module-level stub bound under an engine name."""
    return sorted(
        name for name, attr in vars(cls).items()
        if inspect.isfunction(attr) and attr.__qualname__.rpartition(".")[0] != cls.__qualname__
    )


def test_the_guard_sees_a_bound_module_function():
    planted = (
        "def stub(self, a):\n    raise ValueError\n\n"
        "class Engine:\n    localize = stub\n\n    def tail(self, a):\n        return a\n\n    hull = tail\n"
    )
    namespace = {}
    exec(planted, namespace)
    assert _bound_functions(namespace["Engine"]) == ["localize"]


def test_every_engine_subclasses_the_base_and_binds_no_module_function():
    engines = set(operations._ENGINES.values())
    assert all(issubclass(e, operations._Engine) for e in engines)
    assert {e.__name__: _bound_functions(e) for e in (operations._Engine, *engines)} == {
        e.__name__: [] for e in (operations._Engine, *engines)
    }


def _segment_key_uses(source: str):
    """Lines that read a stored segment key or build a Segment from a raw key."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "key":
            hits.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Segment":
            hits.append(node.lineno)
    return sorted(hits)


def test_the_guard_sees_a_segment_key_read():
    planted = "def f(s, g):\n    if s.key[2]:\n        return Segment(g, (0, 1, 0))\n"
    assert _segment_key_uses(planted) == [2, 3]


def test_only_the_groups_module_reads_the_segment_key():
    groups = SRC / "algebra" / "groups.py"
    stray = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py")) if path != groups
        for line in _segment_key_uses(path.read_text(encoding="utf-8"))
    ]
    assert stray == []


# every handle has a domain too, and reading it says nothing of the format
MODULE_FIELDS = frozenset(f.name for f in dataclasses.fields(LeveledModule)) - {"domain"}


def _module_field_reads(source: str):
    """Lines that read an attribute named after a stored LeveledModule field;
    calling a method of that name (the engines' `hull`) is no read."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in MODULE_FIELDS and id(node) not in called
    )


def test_the_guard_sees_a_module_field_read():
    planted = "def f(m, eng):\n    if m.space is None:\n        return eng.hull(m)\n    return m.hull.cut\n"
    assert _module_field_reads(planted) == [2, 4]


def test_only_the_dplusm_module_reads_a_leveled_module_field():
    dplusm = SRC / "dplusm.py"
    stray = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py")) if path != dplusm
        for line in _module_field_reads(path.read_text(encoding="utf-8"))
    ]
    assert stray == []

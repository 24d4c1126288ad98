"""Design guards: the family string is read in two places only, and the
three ideal engines answer to the same names."""

from __future__ import annotations

import ast
import pathlib

from semistar import operations

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

"""The package's surface: each definition has a caller in the package, or a named reason to stay.

A top-level function or class counts as called when its name is read
(``ast.Name``) somewhere in ``src/polymat`` outside its own definition
and outside ``__init__.py``, whose re-export list is not a caller.  A
method counts when it is read as an attribute (``ast.Attribute``)
outside every definition of the same name, so a method that only a
same-named wrapper reads counts as uncalled.  Dunder methods are exempt:
the language calls them.
"""

from __future__ import annotations

import ast
import types
from collections import Counter
from pathlib import Path

import polymat

PACKAGE = Path(polymat.__file__).parent

# Definitions with no caller in the package, each with what needs it.
KEPT = {
    "core.RankTable.from_function": "tests/conftest.py and tests/generators.py build "
    "tables with it",
    "core.RankTable.rank_of": "tests/oracles.py reads ranks of element sets from bare "
    "tables; its package caller is the KEPT Polymatroid.rank_of",
    "core.Polymatroid.rank_of": "tests/test_acceptance.py and tests/oracles.py read ranks of "
    "element sets",
    "core.Polymatroid.slice_at": "test_slice_bases_partition_by_coordinate, "
    "test_minors_match_their_definitions_past_n5, test_delete_and_contract_ranks",
    "documents.emit_document": "tests/test_documents.py round trips; CI writes its large "
    "inputs with it",
    "graphs.Graph.subset_rank": "test_subset_rank_is_vertices_minus_components; "
    "tests/generators.py builds the doubled K5 table with it",
    "matroids.Matroid.subset_rank": "test_subset_rank; tests/oracles.py reads matroid "
    "ranks through it",
}


def _definitions(tree: ast.Module, module: str):
    """(key, name, node, is_method) for each top-level def and class and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{module}.{node.name}.{item.name}", item.name, item, True


def _reads(node: ast.AST) -> Counter:
    """How often each name is read below ``node``: ("attr", x) for ``.x``, ("name", x) for ``x``."""
    return Counter(
        ("attr", n.attr) if isinstance(n, ast.Attribute) else ("name", n.id)
        for n in ast.walk(node)
        if isinstance(n, (ast.Attribute, ast.Name))
    )


def _package() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}


def _uncalled(trees: dict[str, ast.Module]) -> set[str]:
    reads = sum((_reads(tree) for module, tree in trees.items() if module != "__init__"), Counter())
    definitions = [d for module, tree in trees.items() for d in _definitions(tree, module)]
    flagged = set()
    for key, name, definition, is_method in definitions:
        read = ("attr" if is_method else "name", name)
        # An attribute read inside any same-named definition is that
        # definition's own or a wrapper's call, not a caller of this one.
        bodies = [definition]
        if is_method:
            bodies = [d for _, other, d, _ in definitions if other == name]
        if reads[read] == sum(_reads(body)[read] for body in bodies):
            flagged.add(key)
    return flagged


def test_every_definition_has_a_caller_or_a_kept_reason():
    flagged = _uncalled(_package())
    uncalled, stale = sorted(flagged - KEPT.keys()), sorted(KEPT.keys() - flagged)
    assert not uncalled, f"no caller in the package and no KEPT reason: {uncalled}"
    assert not stale, f"KEPT names that now have a caller: {stale}"


def test_a_same_named_wrapper_is_not_a_caller():
    source = """
class Table:
    def rank_of(self, s):
        return len(s)


class Wrapper:
    def rank_of(self, s):
        return self.table.rank_of(s)
"""
    trees = {"m": ast.parse(source)}
    assert _uncalled(trees) == {"m.Table", "m.Wrapper", "m.Table.rank_of", "m.Wrapper.rank_of"}
    # The limit that remains: one read elsewhere covers every method of that name.
    trees["user"] = ast.parse("def use(w):\n    return w.rank_of(())\n")
    assert _uncalled(trees) == {"m.Table", "m.Wrapper", "user.use"}


def test_every_exported_name_resolves():
    missing = [name for name in polymat.__all__ if not hasattr(polymat, name)]
    assert missing == []


def test_the_activity_module_is_not_shadowed_by_a_re_export():
    import polymat.activity as m

    assert isinstance(m, types.ModuleType)
    assert m.polynomial_pair is polymat.polynomial_pair

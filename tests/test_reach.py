"""Reach guard: every top-level function, class and alias of src/logflat is
reached from code that runs, or is named in ENTRY_POINTS with the reason
nothing in the package calls it.

The pass reads the source with ast.  A definition reaches each top-level
name its body refers to, directly (same module), through `from .m import
name`, or as `qm.name` after `from . import m as qm`.  The roots are every
module's import-time statements, minus `if __name__ == "__main__":`
blocks, plus ENTRY_POINTS.  Reach is transitive, so a cluster of symbols
that only call each other is caught too.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "logflat"

ENTRY_POINTS = {
    "cli.main": "the console entry point (project.scripts in pyproject.toml)",
    "bilaurent.BiLaurent": "the name the benchmark tracer books two-variable "
                           "evaluation under, until the tracer is retargeted",
    "extend.generate_connection_corpus": "builds the extend corpus of the tests "
                                         "and the benchmark",
    "serialize.connection_data_to_json": "writes the extend documents of the "
                                         "tests and the benchmark",
    "jordan.central_log": "checked by acceptance criterion 4",
    "castling.pullback_residue": "checked by acceptance criterion 10",
    "matrices.mat_inv": "the benchmark tracer wraps it by name; it goes with "
                        "the other tracer-only names (ROADMAP item 13)",
    "matrices.solve": "the benchmark tracer wraps it by name, and the test "
                      "oracles use it",
}

MODULE = "<import time>"


def _top_level(tree):
    """{name: node} for functions, classes and `name = other` aliases."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)
              and isinstance(node.value, (ast.Name, ast.Attribute))):
            out[node.targets[0].id] = node
    return out


def _is_main_guard(node) -> bool:
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Name)
            and node.test.left.id == "__name__")


def _reference_graph():
    """({(module, name)}, {owner: {(module, name)}}), owners being
    (module, name) for definitions and (module, MODULE) for import-time code."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    defs = {mod: _top_level(tree) for mod, tree in trees.items()}
    edges = {}
    for mod, tree in trees.items():
        names, modules = {}, {}      # local name -> (module, name) / module
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None and alias.name in trees:
                        modules[local] = alias.name
                    elif node.module is not None:
                        names[local] = (node.module, alias.name)

        def refs(node):
            out = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    if sub.id in defs[mod]:
                        out.add((mod, sub.id))
                    elif sub.id in names:
                        out.add(names[sub.id])
                elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                      and sub.value.id in modules):
                    out.add((modules[sub.value.id], sub.attr))
            return out

        for node in tree.body:
            if _is_main_guard(node):
                continue
            owned = next((name for name, d in defs[mod].items() if d is node), None)
            key = (mod, owned or MODULE)
            edges.setdefault(key, set()).update(refs(node) - {key})
    symbols = {(mod, name) for mod, ds in defs.items() for name in ds}
    return symbols, edges


def _reached(edges, roots):
    seen, stack = set(), list(roots)
    while stack:
        key = stack.pop()
        if key not in seen:
            seen.add(key)
            stack.extend(edges.get(key, ()))
    return seen


def test_every_symbol_is_reached():
    symbols, edges = _reference_graph()
    roots = [k for k in edges if k[1] == MODULE] + [tuple(e.split(".")) for e in ENTRY_POINTS]
    unreached = sorted(f"{m}.{n}" for m, n in symbols - _reached(edges, roots))
    assert not unreached, (
        f"nothing that runs reaches {unreached}; delete them, move them to "
        "tests/, or name them in ENTRY_POINTS with a reason")


def test_entry_points_are_defined_and_not_called():
    symbols, edges = _reference_graph()
    for entry in ENTRY_POINTS:
        assert tuple(entry.split(".")) in symbols, f"{entry} is not defined"
    called = {ref for refs in edges.values() for ref in refs}
    stale = sorted(e for e in ENTRY_POINTS if tuple(e.split(".")) in called)
    assert not stale, f"{stale} have callers now; drop them from ENTRY_POINTS"

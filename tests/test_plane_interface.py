"""Planes plug into the node through its public methods only.

``NetworkPeer`` is the one place that owns the directory, the RPC path
and the dispatch table; the planes (partial view, content, analytics,
subscriptions) and the search client take the node and call its public
interface.  These checks read the source, so a private reach-in or a
deferred import fails here rather than in review.
"""

import ast
from pathlib import Path

import repro
from repro.gossip.wire import GOSSIP, ROWS

SRC = Path(repro.__file__).parent
NODE = SRC / "net" / "node.py"


def _names_a_node(expr: ast.expr) -> bool:
    """``node``, ``self.node``, ``nodes[i]``, ``x.node`` ..."""
    if isinstance(expr, ast.Subscript):
        expr = expr.value
    if isinstance(expr, ast.Name):
        return expr.id in {"node", "nodes"}
    return isinstance(expr, ast.Attribute) and expr.attr in {"node", "nodes"}


def test_no_module_but_the_node_touches_its_privates():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == NODE:
            continue
        for sub in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(sub, ast.Attribute)
                and sub.attr.startswith("_")
                and not sub.attr.startswith("__")
                and _names_a_node(sub.value)
            ):
                offenders.append(f"{path.relative_to(SRC)}:{sub.lineno} {ast.unparse(sub)}")
    assert offenders == []


def test_node_has_no_deferred_imports_and_names_no_plane_message():
    tree = ast.parse(NODE.read_text())
    deferred = [
        f"line {sub.lineno}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for sub in ast.walk(fn)
        if isinstance(sub, (ast.Import, ast.ImportFrom))
    ]
    assert deferred == []
    assert "TYPE_CHECKING" not in NODE.read_text()
    plane_messages = {row.cls.__name__ for row in ROWS if row.family not in (None, GOSSIP)}
    named = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    assert named & plane_messages == set()

"""Source rules for the package: no ``assert`` statements (``python -O``
strips them) and no handler that swallows every error."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "robustcontract"
BROAD = {"Exception", "BaseException"}


def _names(node):
    """Exception class names caught by a handler's type expression."""
    if node is None:
        return {"<bare>"}
    if isinstance(node, ast.Tuple):
        return set().union(*(_names(elt) for elt in node.elts))
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def violations(root=SRC):
    """``file:line`` of every assert statement and broad except handler."""
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno} assert")
            elif isinstance(node, ast.ExceptHandler):
                caught = _names(node.type) & (BROAD | {"<bare>"})
                if caught:
                    found.append(f"{path.name}:{node.lineno} except "
                                 f"{'/'.join(sorted(caught))}")
    return found


def test_sources_are_found():
    assert len(list(SRC.glob("*.py"))) >= 9


def test_no_assert_and_no_broad_except():
    assert violations() == []


def test_rules_catch_each_form(tmp_path):
    (tmp_path / "bad.py").write_text(
        "assert 1\n"
        "try:\n    pass\nexcept Exception:\n    pass\n"
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, BaseException):\n    pass\n"
        "try:\n    pass\nexcept builtins.Exception:\n    pass\n"
        "try:\n    pass\nexcept (TypeError, ValueError):\n    pass\n")
    assert violations(tmp_path) == [
        "bad.py:1 assert", "bad.py:4 except Exception",
        "bad.py:8 except <bare>", "bad.py:12 except BaseException",
        "bad.py:16 except Exception"]

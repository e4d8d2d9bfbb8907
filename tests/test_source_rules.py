"""Source rules for the package: no ``assert`` statements (``python -O``
strips them), no handler that swallows every error, and no effort-payoff
coefficient evaluated outside the ``numerics`` effort kernel."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "robustcontract"
BROAD = {"Exception", "BaseException"}
# the coefficients of the agent's response rule, which only the effort
# kernel in numerics.py passes to ``field``
KERNEL_ONLY = {"drift_b", "discount_k", "cost_c", "candidate_effort"}


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


def kernel_bypasses(root=SRC):
    """``file:line`` of every ``field`` call outside ``numerics.py`` whose
    first argument is one of the effort kernel's coefficients."""
    found = []
    for path in sorted(root.glob("*.py")):
        if path.name == "numerics.py":
            continue
        sites = []
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func, first = node.func, node.args[0]
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if (name == "field" and isinstance(first, ast.Attribute)
                    and first.attr in KERNEL_ONLY):
                sites.append((node.lineno, first.attr))
        found += [f"{path.name}:{line} field {attr}"
                  for line, attr in sorted(sites)]
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


def test_effort_coefficients_go_through_the_kernel():
    assert kernel_bypasses() == []


def test_kernel_rule_catches_each_form(tmp_path):
    (tmp_path / "bad.py").write_text(
        "numerics.field(model.drift_b, t, x, a, n)\n"
        "field(m.discount_k, t, x, a, n)\n"
        "np.clip(numerics.field(self.candidate_effort, t, x, z, s), 0, 1)\n"
        "numerics.field(model.vol_sigma, t, x, n)\n"
        "numerics.apply1(model.cost_c, x)\n"
        "numerics.field(fn=model.cost_c)\n"
        "c = numerics.field(\n    model.cost_c, t, x, a)\n")
    (tmp_path / "numerics.py").write_text("field(model.cost_c, t, x, a)\n")
    assert kernel_bypasses(tmp_path) == [
        "bad.py:1 field drift_b", "bad.py:2 field discount_k",
        "bad.py:3 field candidate_effort", "bad.py:7 field cost_c"]

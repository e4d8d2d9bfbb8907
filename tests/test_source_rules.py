"""Source rules for the package: no ``assert`` statements (``python -O``
strips them), no handler that swallows every error, no effort-payoff
coefficient evaluated outside the ``numerics`` effort kernel, and no
defaulted parameter that no call site sets."""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "robustcontract"
# where the call sites of the package's functions live
CALLERS = (REPO / "src", REPO / "tests", REPO / "perfbench")
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


def _defaulted(fn, method):
    """(position or None for keyword-only, name) of each defaulted
    parameter; a method's ``self`` or ``cls`` takes no position."""
    args = fn.args
    pos = args.posonlyargs + args.args
    if method and pos and pos[0].arg in ("self", "cls"):
        pos = pos[1:]
    out = list(enumerate(a.arg for a in pos))[len(pos) - len(args.defaults):]
    return out + [(None, a.arg) for a, d in zip(args.kwonlyargs,
                                                args.kw_defaults)
                  if d is not None]


def _sets(call, index, name):
    """Does ``call`` set the parameter by keyword, by position or through
    a ``*`` or ``**`` splat?"""
    if any(kw.arg in (None, name) for kw in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index
        or any(isinstance(a, ast.Starred) for a in call.args))


def unset_defaults(root=SRC, callers=CALLERS):
    """``file:line name(param)`` of every defaulted parameter of a function
    in ``root`` (presets excepted: their parameters are config keys) that
    no call of that name under ``callers`` sets."""
    calls = {}
    for base in callers:
        for path in sorted(base.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(),
                                           filename=str(path))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) \
                        else getattr(func, "id", None)
                    calls.setdefault(name, []).append(node)
    found = []
    for path in sorted(root.glob("*.py")):
        if path.name == "presets.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {id(fn) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for fn in cls.body}
        defs = [node for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for fn in sorted(defs, key=lambda node: node.lineno):
            for index, name in _defaulted(fn, id(fn) in methods):
                if not any(_sets(call, index, name)
                           for call in calls.get(fn.name, [])):
                    found.append(f"{path.name}:{fn.lineno} {fn.name}({name})")
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


def test_every_default_is_set_by_some_caller():
    assert unset_defaults() == []


def test_default_rule_catches_each_form(tmp_path):
    pkg, use = tmp_path / "pkg", tmp_path / "use"
    pkg.mkdir()
    use.mkdir()
    (pkg / "mod.py").write_text(
        "def f(a, b=1, *, c=2, d=3):\n    pass\n"
        "class K:\n    def m(self, x=0, y=1):\n        pass\n"
        "def g(u=0, *, k=0):\n    pass\n"
        "def h(q=0):\n    pass\n"
        "def lone(r=0):\n    pass\n")
    (pkg / "presets.py").write_text("def preset(w=0):\n    pass\n")
    (use / "use.py").write_text(
        "f(0, 5)\nmod.f(0, c=1)\nother(d=1)\nK().m(4)\n"
        "g(*xs)\nh(**kw)\nlone\n")
    assert unset_defaults(pkg, (tmp_path,)) == [
        "mod.py:1 f(d)", "mod.py:4 m(y)", "mod.py:6 g(k)",
        "mod.py:10 lone(r)"]

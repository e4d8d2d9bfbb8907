"""Source rules for the package: no ``assert`` statements (``python -O``
strips them), no handler that swallows every error, no effort-payoff
coefficient evaluated outside the ``numerics`` effort kernel, no artifact
table or array read outside ``cli._artifact_table`` and
``cli._artifact_array``, no artifact written outside ``cli._write_run``, no
NumPy array-file call (``np.load``, ``np.save``, ``numpy.lib.format``)
outside ``export``'s array reader and writer, no Gaussian draw outside
``sim._path_increments`` and
``sim._draw_increments``, no grid search outside the surface interpolation,
no ``risk_neutral`` read in the engine, no
process environment read outside ``cli.py``, no defaulted parameter that no call site sets, no
function or dataclass field default that every call overrides, and no
module reaching into another package module's underscore-prefixed names."""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "robustcontract"
# where the call sites of the package's functions live
CALLERS = (REPO / "src", REPO / "tests", REPO / "perfbench")
BROAD = {"Exception", "BaseException"}
# the export functions that write an artifact directory
WRITERS = {"write_table", "write_array", "write_manifest", "write_timings"}
# the checked readers of a prior run's files, each of its own export reader
READERS = {"read_table": ("cli.py", "_artifact_table"),
           "read_array": ("cli.py", "_artifact_array")}
# the NumPy functions that load or save array files, and the one home of
# NumPy's array-file code: export's array reader and writer
NPY_FUNCTIONS = {"load", "save", "savez", "savez_compressed"}
ARRAY_FILES = {("export.py", "read_array"), ("export.py", "write_array")}
# the coefficients of the agent's response rule, which only the effort
# kernel in numerics.py passes to ``field``
KERNEL_ONLY = {"drift_b", "discount_k", "cost_c", "candidate_effort"}
# the owners of the increments' per-step splitting rule
DRAWERS = {("sim.py", "_path_increments"), ("sim.py", "_draw_increments")}
# the callers of ``numerics.grid_searchsorted``: the surface interpolation
# alone (``bilinear`` is its inner function); the policy's nearest node is
# arithmetic on its uniform axes
SEARCHERS = {("numerics.py", "surface_value"), ("numerics.py", "bilinear")}
# the process environment's readers in ``os``, and the one module that may
# use them: a tuning constant such as ``principal._BLOCK_ELEMENTS`` stays a
# constant, never an environment knob
ENVIRON = {"environ", "getenv"}
ENVIRON_READER = "cli.py"


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


def _matches(root, match, homes):
    """(file, line, owner, name) of every node in ``root`` that ``match``
    names (it returns a name or None) outside the functions ``homes``,
    each a (file, function name); ``owner`` is the innermost enclosing
    function."""
    found = []

    def visit(node, path, owner):
        for child in ast.iter_child_nodes(node):
            name = match(child)
            if name is not None and (path.name, owner) not in homes:
                found.append((path.name, child.lineno, owner, name))
            visit(child, path, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    for path in sorted(root.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path,
              "<module>")
    return sorted(found)


def _references(root, names, homes):
    """``_matches`` of every reference to one of ``names`` (a call, an
    attribute, a name or an import)."""
    def match(node):
        name = getattr(node, "id", None) or getattr(node, "attr", None) \
            or (node.name if isinstance(node, ast.alias) else None)
        return name if name in names else None

    return _matches(root, match, homes)


def table_reads(root=SRC):
    """``file:line owner`` of every reference to an export reader outside
    its checked reader in ``READERS``, the one read that turns a missing
    or damaged file into exit 3."""
    found = sorted(hit for reader, home in READERS.items()
                   for hit in _references(root, {reader}, {home}))
    return [f"{name}:{line} {owner}" for name, line, owner, _ in found]


def artifact_writes(root=SRC):
    """``file:line owner name`` of every reference to an export writer
    outside ``cli._write_run``, the writer that ``main`` calls, so that a
    manifest lists exactly the files written beside it."""
    return [f"{name}:{line} {owner} {writer}" for name, line, owner, writer in
            _references(root, WRITERS, {("cli.py", "_write_run")})]


def _array_file_name(node):
    """``np.<function>`` or ``numpy.lib.format`` when ``node`` refers to
    one: as an attribute of ``np`` or ``numpy`` (``np.lib.format`` at its
    ``format``), or in an import."""
    if isinstance(node, ast.Attribute):
        if node.attr in NPY_FUNCTIONS and getattr(node.value, "id", None) in (
                "np", "numpy"):
            return f"np.{node.attr}"
        if node.attr == "format" and getattr(node.value, "attr", None) == "lib":
            return "numpy.lib.format"
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        module, names = node.module or "", {a.name for a in node.names}
        if module.startswith("numpy.lib.format") or (
                module == "numpy.lib" and "format" in names):
            return "numpy.lib.format"
        if module == "numpy" and names & NPY_FUNCTIONS:
            return f"np.{min(names & NPY_FUNCTIONS)}"
    elif isinstance(node, ast.Import) and any(
            a.name.startswith("numpy.lib.format") for a in node.names):
        return "numpy.lib.format"
    return None


def array_file_calls(root=SRC):
    """``file:line owner name`` of every reference to NumPy's array-file
    code outside ``ARRAY_FILES``, so that every array artifact is written
    and read with its header checked and pickles refused."""
    return [f"{name}:{line} {owner} {what}" for name, line, owner, what in
            _matches(root, _array_file_name, ARRAY_FILES)]


def gaussian_draws(root=SRC):
    """``file:line owner`` of every reference to ``standard_normal`` outside
    ``DRAWERS``, so that every Monte Carlo increment follows the one
    per-step splitting rule."""
    return [f"{name}:{line} {owner}" for name, line, owner, _ in
            _references(root, {"standard_normal"}, DRAWERS)]


def grid_searches(root=SRC):
    """``file:line owner`` of every reference to ``grid_searchsorted``
    outside ``SEARCHERS``, so that no engine path goes back to a search
    per step where arithmetic on a uniform axis answers."""
    return [f"{name}:{line} {owner}" for name, line, owner, _ in
            _references(root, {"grid_searchsorted"}, SEARCHERS)]


def _risk_neutral_name(node):
    """``risk_neutral`` when ``node`` names it: as an attribute, a name, an
    import, a parameter, a keyword argument or a string (``getattr``)."""
    name = getattr(node, "id", None) or getattr(node, "attr", None) \
        or getattr(node, "arg", None) \
        or (node.name if isinstance(node, ast.alias) else None) \
        or (node.value if isinstance(node, ast.Constant) else None)
    return name if name == "risk_neutral" else None


def flat_game_reads(root=SRC):
    """``file:line owner`` of every reference to ``risk_neutral`` in
    ``sim.py``, so that no engine path or check comes to rest on the
    flat-game claim: the effort shortcut reads the candidate effort and
    ``payoff_free_of_nature``."""
    return [f"{name}:{line} {owner}" for name, line, owner, _ in
            _matches(root, _risk_neutral_name, set())
            if name == "sim.py"]


def _environ_name(node):
    """``os.environ`` or ``os.getenv`` when ``node`` refers to one: as an
    attribute of ``os`` or in an import from ``os``."""
    if isinstance(node, ast.Attribute) and node.attr in ENVIRON \
            and getattr(node.value, "id", None) == "os":
        return f"os.{node.attr}"
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        names = {a.name for a in node.names} & ENVIRON
        if names:
            return f"os.{min(names)}"
    return None


def environment_reads(root=SRC):
    """``file:line owner name`` of every reference to the process
    environment outside ``ENVIRON_READER``."""
    return [f"{name}:{line} {owner} {what}" for name, line, owner, what in
            _matches(root, _environ_name, set()) if name != ENVIRON_READER]


def private_reaches(root=SRC):
    """``file:line module._name`` of every reference from one package
    module to another's underscore-prefixed name, as ``module._name`` or
    ``from .module import _name``; dunder names such as ``__version__``
    are not private."""
    modules = {path.stem for path in root.glob("*.py")}
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith(SRC.name)):
                owner = (node.module or "").rsplit(".", 1)[-1]
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                owner = getattr(node.value, "attr", None) or getattr(
                    node.value, "id", None)
                names = [node.attr]
            else:
                continue
            found += [(path.name, node.lineno, f"{owner}.{name}")
                      for name in names
                      if owner in modules - {path.stem}
                      and name.startswith("_") and not name.endswith("__")]
    return [f"{name}:{line} {ref}" for name, line, ref in sorted(found)]


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


def _calls(callers):
    """Every call under ``callers``, keyed by the called name."""
    calls = {}
    for base in callers:
        for path in sorted(base.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(),
                                           filename=str(path))):
                if isinstance(node, ast.Call):
                    calls.setdefault(_called(node.func), []).append(node)
                # a default_factory is called with no arguments
                if isinstance(node, ast.keyword) \
                        and node.arg == "default_factory":
                    calls.setdefault(_called(node.value), []).append(
                        ast.Call(func=node.value, args=[], keywords=[]))
    return calls


def _called(func):
    """The name a call or decorator expression refers to."""
    if isinstance(func, ast.Call):
        func = func.func
    return func.attr if isinstance(func, ast.Attribute) \
        else getattr(func, "id", None)


def _modules(root):
    """(path, tree) of each module in ``root``, presets excepted: their
    parameters are config keys."""
    for path in sorted(root.glob("*.py")):
        if path.name != "presets.py":
            yield path, ast.parse(path.read_text(), filename=str(path))


def _surely_sets(call, index, name):
    """Does ``call`` set the parameter by keyword or by a position ahead
    of any ``*`` splat?  A splat may leave it to the default."""
    if any(kw.arg == name for kw in call.keywords):
        return True
    plain = next((i for i, a in enumerate(call.args)
                  if isinstance(a, ast.Starred)), len(call.args))
    return index is not None and plain > index


def _defaulted_params(root):
    """(path, function, position or None, name) of each defaulted
    parameter of a function in ``root``, in line order per module."""
    for path, tree in _modules(root):
        methods = {id(fn) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for fn in cls.body}
        defs = [node for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for fn in sorted(defs, key=lambda node: node.lineno):
            for index, name in _defaulted(fn, id(fn) in methods):
                yield path, fn, index, name


def unset_defaults(root=SRC, callers=CALLERS):
    """``file:line name(param)`` of every defaulted parameter of a function
    in ``root`` that no call of that name under ``callers`` sets."""
    calls = _calls(callers)
    return [f"{path.name}:{fn.lineno} {fn.name}({name})"
            for path, fn, index, name in _defaulted_params(root)
            if not any(_sets(call, index, name)
                       for call in calls.get(fn.name, []))]


def overridden_defaults(root=SRC, callers=CALLERS):
    """``file:line name(param)`` of every defaulted parameter of a function
    in ``root`` that every call of that name under ``callers`` surely sets,
    so that no call relies on the default."""
    calls = _calls(callers)
    return [f"{path.name}:{fn.lineno} {fn.name}({name})"
            for path, fn, index, name in _defaulted_params(root)
            if calls.get(fn.name) and all(_surely_sets(call, index, name)
                                          for call in calls[fn.name])]


def _init_fields(cls):
    """(position, name, defaulted) of each ``__init__`` field of a
    dataclass body, in declaration order."""
    fields = []
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)) \
                or "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value, defaulted = stmt.value, stmt.value is not None
        if isinstance(value, ast.Call) and _called(value) in (
                "field", "dc_field"):
            kw = {k.arg: k.value for k in value.keywords}
            init = kw.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            defaulted = "default" in kw or "default_factory" in kw
        fields.append((len(fields), stmt.target.id, defaulted))
    return fields


def unrelied_field_defaults(root=SRC, callers=CALLERS):
    """``file:line Class.field`` of every defaulted field of a dataclass in
    ``root`` that every constructor call of that class under ``callers``
    sets, so that no call relies on the default."""
    calls = _calls(callers)
    found = []
    for path, tree in _modules(root):
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and any(
                    _called(d) == "dataclass" for d in cls.decorator_list)):
                continue
            for index, name, defaulted in _init_fields(cls):
                if defaulted and all(_surely_sets(call, index, name)
                                     for call in calls.get(cls.name, [])):
                    found.append(f"{path.name}:{cls.lineno} "
                                 f"{cls.name}.{name}")
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


def test_artifact_tables_are_read_only_by_the_checked_reader():
    assert table_reads() == []


def test_table_read_rule_catches_each_form(tmp_path):
    (tmp_path / "cli.py").write_text(
        "def _artifact_table(d, name):\n    return export.read_table(name)\n"
        "def _load(d):\n    return export.read_table(d)\n"
        "def _artifact_table(d):\n    def inner():\n"
        "        return read_table(d)\n"
        "reader = export.read_table\n"
        "def _other(d):\n    return export.read_manifest(d)\n"
        "def _artifact_array(d, s):\n    return export.read_array(d, s)\n"
        "def _artifact_table(d):\n    return export.read_array(d, ())\n")
    (tmp_path / "sim.py").write_text(
        "from .export import read_table\n"
        "def _artifact_table(p):\n    return read_table(p)\n"
        "def _artifact_array(p):\n    return export.read_array(p, ())\n")
    assert table_reads(tmp_path) == [
        "cli.py:4 _load", "cli.py:7 inner", "cli.py:8 <module>",
        "cli.py:14 _artifact_table", "sim.py:1 <module>",
        "sim.py:3 _artifact_table", "sim.py:5 _artifact_array"]


def test_artifact_directories_are_written_only_by_main():
    assert artifact_writes() == []


def test_write_rule_catches_each_form(tmp_path):
    (tmp_path / "cli.py").write_text(
        "def _write_run(d, out):\n    export.write_table(d, out)\n"
        "    export.write_manifest(d)\n    export.write_timings(d, {})\n"
        "def cmd_x(d):\n    export.write_manifest(d)\n"
        "def _write_run(d):\n    def inner():\n"
        "        write_timings(d, {})\n"
        "writer = export.write_table\n"
        "def _other(d):\n    return export.read_manifest(d)\n"
        "def _write_run(d):\n    export.write_array(d, ())\n"
        "def cmd_y(d):\n    export.write_array(d, ())\n")
    (tmp_path / "sim.py").write_text(
        "from .export import write_table, write_manifest\n"
        "def _write_run(p):\n    write_table(p, (), ())\n")
    assert artifact_writes(tmp_path) == [
        "cli.py:6 cmd_x write_manifest", "cli.py:9 inner write_timings",
        "cli.py:10 <module> write_table", "cli.py:16 cmd_y write_array",
        "sim.py:1 <module> write_manifest", "sim.py:1 <module> write_table",
        "sim.py:3 _write_run write_table"]


def test_array_files_are_touched_only_by_the_export_reader_and_writer():
    assert array_file_calls() == []


def test_array_file_rule_catches_each_form(tmp_path):
    (tmp_path / "export.py").write_text(
        "def read_array(p, s):\n    np.lib.format.read_magic(p)\n"
        "    return np.load(p, allow_pickle=False)\n"
        "def write_array(p, f):\n    np.save(p, f)\n"
        "def read_table(p):\n    return numpy.load(p)\n"
        "def read_array_too(p):\n    def read_array():\n"
        "        pass\n    return np.lib.format.read_array(p)\n")
    (tmp_path / "cli.py").write_text(
        "import numpy.lib.format\n"
        "import numpy.lib.format as fmt\n"
        "from numpy.lib import format\n"
        "from numpy.lib.format import read_magic\n"
        "from numpy import load, savez\n"
        "def _load(p):\n    return np.load(p), np.savez_compressed(p)\n"
        "def _keep(p):\n    return yaml.safe_load(p), json.load(p), np.loadtxt(p)\n"
        "from numpy import loadtxt, lib\n")
    assert array_file_calls(tmp_path) == [
        "cli.py:1 <module> numpy.lib.format",
        "cli.py:2 <module> numpy.lib.format",
        "cli.py:3 <module> numpy.lib.format",
        "cli.py:4 <module> numpy.lib.format", "cli.py:5 <module> np.load",
        "cli.py:7 _load np.load", "cli.py:7 _load np.savez_compressed",
        "export.py:7 read_table np.load",
        "export.py:11 read_array_too numpy.lib.format"]


def test_gaussian_increments_are_drawn_only_by_the_splitting_rule():
    assert gaussian_draws() == []


def test_gaussian_draw_rule_catches_each_form(tmp_path):
    (tmp_path / "sim.py").write_text(
        "def _draw_increments(s, p, n):\n    g.standard_normal(out=r)\n"
        "def _path_increments(s, p, n):\n"
        "    return (g.standard_normal(p) for k in n)\n"
        "def simulate_system(cfg):\n    rng.standard_normal(cfg.paths)\n"
        "def _path_increments_too(s):\n"
        "    def _path_increments():\n        pass\n"
        "    return np.random.default_rng(s).standard_normal\n"
        "from numpy.random import standard_normal\n")
    (tmp_path / "cli.py").write_text(
        "def _draw_increments(s):\n    return standard_normal(s)\n")
    assert gaussian_draws(tmp_path) == [
        "cli.py:2 _draw_increments", "sim.py:6 simulate_system",
        "sim.py:10 _path_increments_too", "sim.py:11 <module>"]


def test_grid_searches_run_only_in_the_interpolation():
    assert grid_searches() == []


def test_grid_search_rule_catches_each_form(tmp_path):
    (tmp_path / "numerics.py").write_text(
        "def grid_searchsorted(grid, q):\n    return q\n"
        "def surface_value(t, x):\n    def bilinear(p):\n"
        "        return grid_searchsorted(x, p)\n"
        "    return grid_searchsorted(t, 0)\n"
        "def bilinear_too(x):\n    return grid_searchsorted(x, 1)\n")
    (tmp_path / "principal.py").write_text(
        "def _nearest_node(g, v):\n    return numerics.grid_searchsorted(g, v)\n"
        "def gather(self, x):\n"
        "    return numerics.grid_searchsorted(self.x_grid, x)\n"
        "search = numerics.grid_searchsorted\n"
        "from .numerics import grid_searchsorted\n")
    (tmp_path / "sim.py").write_text(
        "def _nearest_node(g, v):\n    return numerics.grid_searchsorted(g, v)\n")
    assert grid_searches(tmp_path) == [
        "numerics.py:8 bilinear_too", "principal.py:2 _nearest_node",
        "principal.py:4 gather", "principal.py:5 <module>",
        "principal.py:6 <module>", "sim.py:2 _nearest_node"]


def test_the_engine_never_reads_risk_neutral():
    assert flat_game_reads() == []


def test_flat_game_rule_catches_each_form(tmp_path):
    (tmp_path / "sim.py").write_text(
        "from .presets import risk_neutral\n"
        "def _response(model, risk_neutral=False):\n"
        "    if model.risk_neutral or risk_neutral:\n"
        "        return getattr(model, 'risk_neutral')\n"
        "    return replace(model, risk_neutral=False)\n"
        "def martingale_sandwich_check(model):\n"
        "    def label():\n        return model.risk_neutral\n"
        "    return 'flat game' if model.risk_neutral else 'probe'\n"
        "def _keep(model):\n"
        "    return model.payoff_free_of_nature, 'risk_neutral preset', risk\n")
    (tmp_path / "principal.py").write_text(
        "def _radius(model):\n    return model.risk_neutral\n")
    assert flat_game_reads(tmp_path) == [
        "sim.py:1 <module>", "sim.py:2 _response", "sim.py:3 _response",
        "sim.py:3 _response", "sim.py:4 _response", "sim.py:5 _response",
        "sim.py:8 label", "sim.py:9 martingale_sandwich_check"]


def test_only_the_cli_reads_the_environment():
    assert environment_reads() == []


def test_environment_rule_catches_each_form(tmp_path):
    (tmp_path / "cli.py").write_text(
        "import os\nout = os.environ.get('ROBUSTCONTRACT_OUT')\n"
        "from os import environ, getenv\n")
    (tmp_path / "principal.py").write_text(
        "import os\n"
        "_BLOCK = int(os.environ.get('BLOCK', 1))\n"
        "def _select():\n    return os.getenv('BLOCK')\n"
        "from os import environ\n"
        "from os import path, getenv\n"
        "def _keep(model):\n"
        "    return os.path.join('a'), model.environ, sys.getenv, os.sep\n"
        "v = os.environ['X']\n")
    assert environment_reads(tmp_path) == [
        "principal.py:2 <module> os.environ",
        "principal.py:4 _select os.getenv",
        "principal.py:5 <module> os.environ",
        "principal.py:6 <module> os.getenv",
        "principal.py:9 <module> os.environ"]


def test_no_module_reaches_into_another_modules_private_names():
    assert private_reaches() == []


def test_private_reach_rule_catches_each_form(tmp_path):
    for name in ("sim", "numerics"):
        (tmp_path / f"{name}.py").write_text("def _own():\n    pass\n")
    (tmp_path / "cli.py").write_text(
        "from . import sim, __version__\n"
        "a = sim._response(1)\n"
        "with sim._shared_increments():\n    pass\n"
        "from .sim import simulate_system, _draw_increments\n"
        "from robustcontract.numerics import _helper\n"
        "b = robustcontract.sim._memo\n"
        "c = sim.simulate_system, self._cache, np._private, _own()\n"
        "from .sim import __all__\n")
    (tmp_path / "sim.py").write_text("x = sim._own\n")
    assert private_reaches(tmp_path) == [
        "cli.py:2 sim._response", "cli.py:3 sim._shared_increments",
        "cli.py:5 sim._draw_increments", "cli.py:6 numerics._helper",
        "cli.py:7 sim._memo"]


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


def test_every_default_is_relied_on_by_some_caller():
    assert overridden_defaults() == []


def test_overridden_default_rule_catches_each_form(tmp_path):
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
        "f(0, 5, c=1)\nmod.f(0, b=2, c=1, d=4)\nK().m(4, y=2)\nK().m(5, 6)\n"
        "g(1, *xs, k=2)\ng(**kw)\nh(*xs)\npreset(w=1)\n")
    assert overridden_defaults(pkg, (tmp_path,)) == [
        "mod.py:1 f(b)", "mod.py:1 f(c)", "mod.py:4 m(x)", "mod.py:4 m(y)"]


def test_every_field_default_is_relied_on():
    assert unrelied_field_defaults() == []


def test_field_rule_catches_each_form(tmp_path):
    pkg, use = tmp_path / "pkg", tmp_path / "use"
    pkg.mkdir()
    use.mkdir()
    (pkg / "mod.py").write_text(
        "@dataclass\nclass A:\n    x: int\n    y: int = 0\n"
        "    z: list = field(default_factory=list)\n"
        "    w: int = field(init=False, default=0)\n"
        "    c: ClassVar[int] = 0\n    v: int = field()\n"
        "@dataclasses.dataclass(frozen=True)\nclass B:\n"
        "    p: int = 0\n    q: int = 1\n"
        "@dataclass\nclass C:\n    s: int = 0\n"
        "@dataclass\nclass D:\n    u: int = 0\n"
        "class Plain:\n    k: int = 0\n")
    (pkg / "presets.py").write_text(
        "@dataclass\nclass P:\n    g: int = 0\n")
    (use / "use.py").write_text(
        "A(1, 2, [], v=0)\nA(0, z=[], v=1, y=3)\n"
        "B(5, q=1)\nB(1, *xs)\nB(p=1, **kw)\n"
        "m = field(default_factory=C)\nP(g=1)\nPlain(k=1)\n")
    assert unrelied_field_defaults(pkg, (tmp_path,)) == [
        "mod.py:2 A.y", "mod.py:2 A.z", "mod.py:10 B.p", "mod.py:17 D.u"]

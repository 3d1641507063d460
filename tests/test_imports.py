"""Tooling gates on ``src/nashnet``: no module imports a name it never
uses, every top-level function and class is named outside its own body
by the package, a demo or ``perfbench/``, every parameter default and
dataclass field default is overridden by some call there, and every
dataclass field is read there as an attribute; what only tests use belongs in
``tests/canonical_reference.py``; no module reads the environment; no
module but ``exprs`` names an expression node class; and no matrix product
but two admitted ones can hand a result to the BLAS. These
are stdlib ``ast`` scans, as the project depends on no linter.
``__future__`` imports and the package ``__init__`` (whose imports are its
public re-exports) are exempt. Three subprocess gates check what the
commands import: never ``numpy.ma``, never ``nashnet.catalog``, and the
process pool only in a parallel ``sweep``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from canonical_reference import many_agents_doc

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nashnet"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
REACHED_ANYWAY = {"save_scenario"}  # the documented round trip with load_scenario


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    # `mod.attr` is an ast.Name at its root, so attribute uses count too
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os (line 1)"]
    assert unused_imports("from a import (b, c as d)\nd()\n") == ["b (line 1)"]


ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(modules: dict) -> list:
    """``module: line N: name`` for each attribute, name or import in
    `modules` (name -> source) that is one of ENVIRONMENT_READS."""
    found = []
    for module, source in modules.items():
        for node in ast.walk(ast.parse(source)):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in ENVIRONMENT_READS:
                found.append(f"{module}: line {node.lineno}: {name}")
    return sorted(found)


def test_no_environment_reads():
    """A run is set by its scenario and its command line alone: no module
    reads an environment variable."""
    assert environment_reads({p.name: p.read_text(encoding="utf-8") for p in MODULES}) == []


def test_scan_finds_an_environment_read():
    modules = {"a": ("import os\nfrom os import getenv as g\nB = os.environ.get('B')\n"
                     "def f():\n    return os.getenvb(b'C'), environ['D']\n")}
    assert environment_reads(modules) == ["a: line 2: getenv", "a: line 3: environ",
                                          "a: line 5: environ", "a: line 5: getenvb"]


MATRIX_PRODUCTS = {"dot", "matmul", "einsum", "inner", "tensordot"}
ALLOWED_PRODUCTS = {"digraph.py: reachability: R @ R", "digraph.py: perron_vector: phi @ A"}


def matrix_products(modules: dict) -> list:
    """``module: function: expression`` for each ``@``, ``@=`` and call to
    a name or attribute in MATRIX_PRODUCTS in `modules` (name -> source),
    the function being the innermost one around it."""
    found = []

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        func = node.func if isinstance(node, ast.Call) else None
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
                or getattr(func, "attr", getattr(func, "id", None)) in MATRIX_PRODUCTS):
            found.append(f"{module}: {where}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for name, source in modules.items():
        visit(ast.parse(source), name, "<module>")
    return sorted(found)


def test_only_two_matrix_products():
    """No BLAS call feeds a state or a stepsize: src's matrix products are
    the boolean closure in ``reachability`` and the residual check in
    ``perron_vector``; every product of weights and values goes through
    the canonical order of ``digraph``."""
    modules = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert matrix_products(modules) == sorted(ALLOWED_PRODUCTS)


def test_scan_finds_a_matrix_product():
    modules = {"a": ("import numpy as np\nfrom numpy import einsum\n"
                     "def f(A, x):\n    y = A @ x\n    y @= A\n    return np.dot(A, x)\n"
                     "z = x.dot(A) + einsum('ij,j', A, x) + np.tensordot(A, x, 1)\n"
                     "def g(A):\n    return np.inner(A, A) * A.T + np.matmul(A, A)\n")}
    assert matrix_products(modules) == [
        "a: <module>: einsum('ij,j', A, x)", "a: <module>: np.tensordot(A, x, 1)",
        "a: <module>: x.dot(A)", "a: f: A @ x", "a: f: np.dot(A, x)", "a: f: y @= A",
        "a: g: np.inner(A, A)", "a: g: np.matmul(A, A)"]


def names_used(tree) -> set:
    """Names `tree` reads: ``name``, ``mod.name`` and ``from mod import name``."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
            | {n.name for n in ast.walk(tree) if isinstance(n, ast.alias)})


def unreached(modules: dict, outside: set) -> list:
    """Top-level functions and classes of `modules` (name -> source) that no
    module names outside their own body and `outside` does not name."""
    trees = {name: ast.parse(source).body for name, source in modules.items()}
    used = {(name, i): names_used(node) for name, body in trees.items()
            for i, node in enumerate(body)}
    found = []
    for name, body in trees.items():
        for i, node in enumerate(body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                seen = outside.union(*(u for key, u in used.items() if key != (name, i)))
                if node.name not in seen:
                    found.append(f"{name}: {node.name}")
    return found


def test_every_definition_is_reached():
    outside = set(REACHED_ANYWAY)
    for path in [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        outside |= names_used(ast.parse(path.read_text(encoding="utf-8")))
    modules = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unreached(modules, outside) == []


def test_scan_finds_an_unreached_definition():
    modules = {"a": "def used():\n    pass\n\ndef dead():\n    dead()\n\nclass Kept:\n    pass\n",
               "b": "from a import used\nprint(Kept)\n"}
    assert unreached(modules, set()) == ["a: dead"]
    assert unreached(modules, {"dead"}) == []


NODE_CLASSES = {"Expr", "Const", "Var", "Sum", "Prod", "Pow", "Abs"}


def node_class_names(modules: dict) -> list:
    """``module: name`` for each node class of ``exprs`` that a module in
    `modules` (file name -> source) other than ``exprs.py`` names."""
    return sorted(f"{module}: {name}" for module, source in modules.items()
                  if module != "exprs.py" for name in names_used(ast.parse(source)) & NODE_CLASSES)


def test_node_classes_stay_in_exprs():
    """Only ``exprs`` builds, tests or annotates expression nodes: the other
    modules take trees from ``parse_expr`` and hand them to ``exprs``
    functions, so which node types there are is decided in one module."""
    modules = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert node_class_names(modules) == []


def test_scan_finds_a_node_class_name():
    modules = {"a.py": ("from .exprs import Sum, parse_expr\nfrom . import exprs\n"
                        "def f(e: Expr):\n    return isinstance(e, exprs.Abs) or Sum((e,))\n"),
               "exprs.py": "class Var(Expr):\n    pass\n"}
    assert node_class_names(modules) == ["a.py: Abs", "a.py: Expr", "a.py: Sum"]


ALLOWED_UNSET = {"build_cycle_matrix.b11"}  # the acceptance property suite draws it


def called_names(tree) -> list:
    """(name, call) for every call in `tree` to a name or an attribute,
    with a name bound by ``import ... as`` resolved to what it imports."""
    aliases = {a.asname: a.name.rsplit(".", 1)[-1] for n in ast.walk(tree)
               if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names if a.asname}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            out.append((aliases.get(node.func.id, node.func.id), node))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            out.append((node.func.attr, node))
    return out


def passes(call, param: str, positional: list) -> bool:
    """Whether `call` sets `param` by keyword, by position, or through a
    ``*`` or ``**`` argument; `positional` names the parameters a
    positional argument binds, in order."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if param not in positional:
        return False
    i = positional.index(param)
    return any(isinstance(a, ast.Starred) or j == i for j, a in enumerate(call.args[:i + 1]))


def is_dataclass(cls) -> bool:
    """Whether `cls` is decorated ``@dataclass`` or ``@dataclass(...)``."""
    for d in cls.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)) == "dataclass":
            return True
    return False


def is_init_field(stmt) -> bool:
    """Whether the dataclass field `stmt` is a constructor parameter, which
    a field declared ``field(init=False)`` is not."""
    v = stmt.value
    return not (isinstance(v, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in v.keywords))


def signatures(tree):
    """(call name, positional parameters, defaulted parameters) of each
    function and method in `tree`, a method's bound first parameter left
    out, and of each dataclass constructor: its call name is the class
    name and its parameters are the annotated fields it takes, in order."""
    methods = {f for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            defaulted = positional[len(positional) - len(a.defaults):] + [
                p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            yield node.name, positional[node in methods:], defaulted
        elif isinstance(node, ast.ClassDef) and is_dataclass(node):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                      and isinstance(s.target, ast.Name) and is_init_field(s)]
            yield (node.name, [f.target.id for f in fields],
                   [f.target.id for f in fields if f.value is not None])


def unset_defaults(modules: dict, callers) -> list:
    """``name.parameter`` for each parameter with a default, of a function,
    method or dataclass field in `modules` (name -> source), that no call
    in `modules` or in the `callers` sources sets. Calls match by the
    called name, so any method of that name counts, and a dataclass field
    is set by a call to the class."""
    trees = [ast.parse(source) for source in modules.values()]
    calls = [c for tree in trees + [ast.parse(s) for s in callers] for c in called_names(tree)]
    found = []
    for tree in trees:
        for fn, positional, defaulted in signatures(tree):
            for param in defaulted:
                if not any(name == fn and passes(call, param, positional) for name, call in calls):
                    found.append(f"{fn}.{param}")
    return sorted(found)


def test_every_default_is_set_by_a_caller():
    """A default that no call in the package, a demo or ``perfbench/``
    overrides is a constant: it belongs in the function body, or for a
    dataclass field in the code that reads it."""
    callers = [p.read_text(encoding="utf-8")
               for p in [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]]
    modules = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert set(unset_defaults(modules, callers)) == ALLOWED_UNSET


def test_scan_finds_an_unset_default():
    modules = {"a": ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n"
                     "class K:\n    def m(self, p=0, q=0):\n        pass\n\n"
                     "def g(z=0):\n    pass\n\n"
                     "@dataclass(frozen=True)\nclass D:\n    u: int\n    v: int = 0\n"
                     "    w: int = 1\n    x: int = field(init=False)\n\n"
                     "class Plain:\n    r: int = 0\n")}
    callers = ["from a import f as h\nh(0, 1, e=5)\n",
               "import a\na.f(*args)\nK().m(1)\nD(1, 2)\n"]
    assert unset_defaults(modules, callers) == ["D.w", "f.d", "g.z", "m.q"]
    assert unset_defaults(modules, callers + ["g(**kw)\nK().m(q=1)\nf(d=0)\n"
                                              "a.D(0, w=1)\n"]) == []


ALLOWED_UNREAD = {}


def unread_fields(modules: dict, readers) -> list:
    """``Class.field`` for each annotated field of a dataclass in `modules`
    (name -> source) that no module there or in the `readers` sources
    reads as an attribute. Reads match by the attribute name, so a read of
    that name on any object counts; a store does not."""
    trees = [ast.parse(source) for source in modules.values()]
    read = {n.attr for tree in trees + [ast.parse(s) for s in readers] for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{c.name}.{f.target.id}" for tree in trees for c in ast.walk(tree)
                  if isinstance(c, ast.ClassDef) and is_dataclass(c) for f in c.body
                  if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                  and f.target.id not in read)


def test_every_field_is_read():
    """A dataclass field that nothing in the package, a demo or
    ``perfbench/`` reads is carried for no one: it goes, or its reason
    is in ALLOWED_UNREAD."""
    readers = [p.read_text(encoding="utf-8")
               for p in [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]]
    modules = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert set(unread_fields(modules, readers)) == set(ALLOWED_UNREAD)


def test_scan_finds_an_unread_field():
    modules = {"a": ("@dataclass(frozen=True)\nclass D:\n    u: int\n    v: int = 0\n"
                     "    w: int = field(init=False)\n\n"
                     "class Plain:\n    r: int = 0\n\n"
                     "def f(d):\n    d.w = d.u\n")}
    assert unread_fields(modules, []) == ["D.v", "D.w"]
    assert unread_fields(modules, ["print(x.v + y.w)\n"]) == []


def _src_on_path():
    """This environment, with the package's source first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


_COMMANDS_SCRIPT = """
import os, sys
from nashnet import cli
scenarios, out = cli.__file__.replace("cli.py", "scenarios"), sys.argv[2]
example1, shsad = (os.path.join(scenarios, f"{n}.yaml") for n in ("example1", "shared_saddle"))
for argv in (["reproduce", "1", "--out", out],
             ["reproduce", "2", "--trust-bundled", "--out", out],
             ["run", sys.argv[1], "--out", os.path.join(out, "t.csv"),
              "--metrics", os.path.join(out, "m.csv")],
             ["oracle", shsad, "--out", os.path.join(out, "r.csv")],
             ["graph-check", example1],
             ["graph-check", sys.argv[1]],
             ["sweep", example1, "--param", "iterations", "--values", "500,1000",
              "--out", out]):
    assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules
             if m.split(".")[:2] in (["numpy", "ma"], ["numpy", "random"])))
"""


def test_commands_never_import_numpy_ma(tmp_path):
    """``reproduce`` (verified and ``--trust-bundled``), ``run`` on a 100 +
    100 agent document, ``oracle``, ``graph-check`` and a one-process
    ``sweep``, in one interpreter, never import ``numpy.ma`` or
    ``numpy.random``: numpy imports each lazily (``numpy.ma`` from
    ``np.unique`` for one), and each costs about 5 MB of RSS."""
    doc = tmp_path / "many.yaml"
    doc.write_text(yaml.dump(many_agents_doc(1), sort_keys=False,
                             Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper)))
    env = _src_on_path()
    proc = subprocess.run([sys.executable, "-c", _COMMANDS_SCRIPT, str(doc), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "[]"


def test_the_cli_never_imports_the_catalog():
    """``nashnet.catalog`` loads example1 when imported, for the benchmark's
    generator alone: neither the package nor the CLI imports it."""
    env = _src_on_path()
    proc = subprocess.run([sys.executable, "-c", "import sys, nashnet.cli; "
                           "print('nashnet.catalog' in sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "False\n"


_POOL_SCRIPT = """
import os, sys
from nashnet import cli

def pool():
    return [m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules]

out = sys.argv[1]
shsad = os.path.join(os.path.dirname(cli.__file__), "scenarios", "shared_saddle.yaml")
print(pool())
assert cli.main(["reproduce", "shared_saddle", "--trust-bundled", "--out", out]) == 0
print(pool())
assert cli.main(["sweep", shsad, "--param", "iterations", "--values", "50,100",
                 "--out", out, "--jobs", "2"]) == 0
print(pool())
"""


def test_only_a_parallel_sweep_imports_the_process_pool(tmp_path):
    """``concurrent.futures`` pulls in ``multiprocessing``, ``logging``,
    ``socket`` and ``subprocess``: about 20 ms and 1.6 MB. Importing the
    CLI and running ``reproduce --trust-bundled`` import neither it nor
    ``multiprocessing``; a sweep with two jobs imports both and runs."""
    proc = subprocess.run([sys.executable, "-c", _POOL_SCRIPT, str(tmp_path)],
                          env=_src_on_path(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert [ln for ln in proc.stdout.splitlines() if ln.startswith("[")] == [
        "[]", "[]", "['concurrent.futures', 'multiprocessing']"]

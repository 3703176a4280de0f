"""Every module-level import and private name in the package is used.

Also: importing the package starts no thread; no function takes an
`upper` cut radius; a cut is a profile.  The
model classes take no option beyond the measure itself.  No warning
filter drops every category, and no handler catches every exception.
The psi and tail tables are values: only `__init__` writes to them.
The benchmark's calls to the package still bind to its signatures.

Checked with the stdlib ast module, no linter.
"""
import ast
import dataclasses
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import templevy
from templevy.model import LevyModel, SpectralMeasure

SOURCES = sorted(pathlib.Path(templevy.__file__).parent.glob("*.py"))
WORKLOADS = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"


def _unused_imports(tree: ast.Module) -> list:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[(a.asname or a.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names re-exported through __all__ count as used
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    # the package __init__ re-exports by design and is left out
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_detector_flags_an_unused_import():
    tree = ast.parse("import math\nimport os\nx = math.pi\n")
    assert _unused_imports(tree) == ["os (line 2)"]


def _private_definitions(tree: ast.Module) -> dict:
    """Module-level private functions, classes and constants -> line."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node.lineno
    return out


def _references(tree: ast.Module) -> set:
    """Names read, attributes taken and names imported anywhere in tree."""
    refs = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute):
            refs.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            refs.update(a.name for a in n.names)
    return refs


def _unused_private_names(trees: dict) -> list:
    refs = set().union(*map(_references, trees.values()))
    return sorted(f"{mod}: {name} (line {line})"
                  for mod, tree in trees.items()
                  for name, line in _private_definitions(tree).items()
                  if name not in refs)


def test_no_unused_private_names():
    trees = {p.name: ast.parse(p.read_text()) for p in SOURCES}
    assert _unused_private_names(trees) == []


def test_detector_flags_an_unused_private_name():
    trees = {"a.py": ast.parse("_K = 1\n_J = 2\ndef _f():\n    return _J\n"),
             "b.py": ast.parse("from a import _f\n")}
    assert _unused_private_names(trees) == ["a.py: _K (line 1)"]


def test_import_loads_no_scipy_signal_or_stats():
    # convolutions go through scipy.fft; scipy.signal and scipy.stats cost
    # import time and nothing uses them
    code = ("import sys, templevy; print(sorted({'scipy.signal', "
            "'scipy.stats'} & set(sys.modules)))")
    src = str(pathlib.Path(templevy.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"


def test_only_the_split_convolutions_start_a_thread():
    # decomp's helper thread starts on the first transform pair: not at
    # import, and not in invert, so the workloads that never decompose stay
    # single-threaded; a decomposition adds one thread where two CPUs are
    # usable, and one only
    code = (
        "import threading, templevy as tl\n"
        "from templevy import decomp\n"
        "counts = [threading.active_count()]\n"
        "m, t, g = tl.poly_model(3.0, 1.0), 0.5, tl.GridSpec(1, 16.0, 256)\n"
        "tl.invert(m, t, g)\n"
        "counts.append(threading.active_count())\n"
        "sm = tl.split(m, tl.default_eps(m, t))\n"
        "for _ in range(2):\n"
        "    tl.recompose(tl.local_density(sm, t, g),\n"
        "                 tl.compound_poisson(sm, t, g))\n"
        "counts.append(threading.active_count() - (decomp._CPUS >= 2))\n"
        "print(counts)\n")
    src = str(pathlib.Path(templevy.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[1, 1, 1]"


def _integrate_imports(tree: ast.Module) -> list:
    """Every import of scipy.integrate or of a name from it, with its line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"{a.name} (line {node.lineno})" for a in node.names
                      if a.name.split(".")[:2] == ["scipy", "integrate"]]
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            found += [f"scipy.integrate (line {node.lineno})"
                      for a in node.names if a.name == "integrate"]
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[:2] == ["scipy", "integrate"]:
            found += [f"{node.module}.{a.name} (line {node.lineno})"
                      for a in node.names]
    return found


@pytest.mark.parametrize("name", ["decomp.py", "montecarlo.py"])
def test_radial_integrals_stay_in_model(name):
    # the big-jump cells and the sampler read the tail table of model.py
    path = pathlib.Path(templevy.__file__).parent / name
    assert _integrate_imports(ast.parse(path.read_text())) == []


def test_detector_flags_a_scipy_integrate_import():
    tree = ast.parse("import numpy\nfrom scipy.integrate import quad\n"
                     "import scipy.integrate as si\n"
                     "from scipy import fft, integrate\n"
                     "def f():\n"
                     "    from scipy.integrate._quadpack_py import dblquad\n")
    assert _integrate_imports(tree) == [
        "scipy.integrate.quad (line 2)", "scipy.integrate (line 3)",
        "scipy.integrate (line 4)",
        "scipy.integrate._quadpack_py.dblquad (line 6)"]


def _upper_parameters(tree: ast.Module) -> list:
    """Functions (and lambdas) with a parameter named `upper`, with lines."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            if "upper" in names:
                found.append(f"{getattr(node, 'name', 'lambda')} "
                             f"(line {node.lineno})")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_upper_parameter(path):
    # the small-jump part is a model with cut profiles (profiles.Truncated)
    assert _upper_parameters(ast.parse(path.read_text())) == []


def test_detector_flags_an_upper_parameter():
    tree = ast.parse("def f(x, upper=1.0):\n    pass\n"
                     "def g(x, *, upper):\n    pass\n"
                     "def h(x, s0):\n    pass\n")
    assert _upper_parameters(tree) == ["f (line 1)", "g (line 3)"]


def _swallowed(tree: ast.Module) -> list:
    """Warning filters that name no category, `except Exception` and bare
    `except:` clauses, with lines."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("simplefilter", "filterwarnings"):
            named = len(node.args) > (1 if node.func.attr == "simplefilter"
                                      else 2) or any(
                k.arg == "category" for k in node.keywords)
            if not named:
                found.append(f"{node.func.attr} (line {node.lineno})")
        elif isinstance(node, ast.ExceptHandler) and (
                node.type is None or isinstance(node.type, ast.Name)
                and node.type.id in ("Exception", "BaseException")):
            found.append(f"except (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_swallowed_warnings_or_errors(path):
    assert _swallowed(ast.parse(path.read_text())) == []


def test_detector_flags_swallowed_warnings_and_errors():
    tree = ast.parse(
        "import warnings\n"
        "warnings.simplefilter('ignore')\n"
        "warnings.simplefilter('ignore', RuntimeWarning)\n"
        "warnings.filterwarnings('ignore', 'msg')\n"
        "warnings.filterwarnings('ignore', category=UserWarning)\n"
        "try:\n    pass\nexcept Exception:\n    pass\n"
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept ValueError:\n    pass\n")
    assert _swallowed(tree) == ["simplefilter (line 2)",
                                "filterwarnings (line 4)",
                                "except (line 8)", "except (line 12)"]


@pytest.mark.parametrize("cls, names", [
    (SpectralMeasure, {"d", "directions", "weights", "density"}),
    (LevyModel, {"d", "alpha", "spectral", "profile", "atom_profiles"}),
], ids=["SpectralMeasure", "LevyModel"])
def test_model_fields_are_the_measure(cls, names):
    # symmetry is checked, and closed forms follow from the profiles: a
    # knob that switches either comes back only through this test
    assert {f.name for f in dataclasses.fields(cls) if f.init} == names


#: classes whose instances are filled once, when built
VALUE_CLASSES = ("PsiTable", "TailTable")


def _writes_self(target) -> bool:
    """Whether an assignment target is an attribute of self, or an item or
    attribute of one."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(map(_writes_self, target.elts))
    if isinstance(target, ast.Starred):
        return _writes_self(target.value)
    root = target
    while isinstance(root, (ast.Attribute, ast.Subscript)):
        root = root.value
    return root is not target and isinstance(root, ast.Name) \
        and root.id == "self"


def _writes_after_init(tree: ast.Module) -> list:
    """Writes to self in a method of a value class other than __init__,
    with lines.  A cached_property stores its value without one."""
    found = []
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and cls.name in VALUE_CLASSES):
            continue
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name == "__init__":
                continue
            for node in ast.walk(fn):
                targets = (node.targets if isinstance(node, ast.Assign) else
                           [node.target] if isinstance(
                               node, (ast.AugAssign, ast.AnnAssign)) else [])
                if any(map(_writes_self, targets)):
                    found.append(f"{cls.name}.{fn.name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_tables_are_values(path):
    # a table read in one place may not change what another has read
    assert _writes_after_init(ast.parse(path.read_text())) == []


def test_detector_flags_a_table_written_after_init():
    tree = ast.parse(
        "from functools import cached_property\n"
        "class TailTable:\n"
        "    def __init__(self):\n"
        "        self.w = [0.0]\n"
        "    @cached_property\n"
        "    def guide(self):\n"
        "        g = list(self.w)\n"
        "        g[0] = 1.0\n"
        "        return g\n"
        "    def grow(self):\n"
        "        self.k_lo -= 1\n"
        "        self.w, y = [1.0], 2\n"
        "        self.w[0] = 2.0\n"
        "        other.guide = None\n"
        "class Other:\n"
        "    def grow(self):\n"
        "        self.w = None\n")
    assert _writes_after_init(tree) == ["TailTable.grow (line 11)",
                                        "TailTable.grow (line 12)",
                                        "TailTable.grow (line 13)"]


def _unbound_calls(tree: ast.Module) -> tuple:
    """(number of calls tl.<name>(...) in tree, those whose positional
    count and keyword names do not bind to templevy.<name>'s signature)."""
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Attribute)
             and isinstance(n.func.value, ast.Name) and n.func.value.id == "tl"]
    unbound = []
    for call in calls:
        name = call.func.attr
        try:
            inspect.signature(getattr(templevy, name)).bind(
                *call.args, **{k.arg: k.value for k in call.keywords})
        except (AttributeError, TypeError) as e:
            unbound.append(f"{name} (line {call.lineno}): {e}")
    return len(calls), unbound


def test_benchmark_calls_bind():
    """perfbench/workloads.py, parsed and not imported, calls the package
    as tl.<name>(...): each call binds to that name's signature, so an
    option or entry point the benchmark uses cannot go unnoticed.  Method
    calls on returned objects, such as grid.refine(2), are not covered."""
    count, unbound = _unbound_calls(ast.parse(WORKLOADS.read_text()))
    assert count > 0
    assert unbound == []


def test_detector_flags_a_call_that_does_not_bind():
    tree = ast.parse("tl.split(m, 0.1)\n"
                     "tl.compound_poisson(sm, t, g, 1e-10, 0)\n"
                     "tl.sample_many(cfg, seed=1)\n"
                     "tl.no_such_name()\n"
                     "grid.refine(2, 3)\n")
    count, unbound = _unbound_calls(tree)
    assert count == 4
    assert [u.split(":")[0] for u in unbound] == [
        "compound_poisson (line 2)", "sample_many (line 3)",
        "no_such_name (line 4)"]

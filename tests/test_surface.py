"""The package's public surface: each module's ``__all__`` names what it
defines, every top-level definition, module-level name and default
parameter is used in ``src/``, and a run evaluates the flow through its one
right-hand side."""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spheremap
import spheremap.geometry as geometry
import spheremap.spectral as spectral
from spheremap.evolution import SimConfig, run
from spheremap.initial_data import InitialDataSpec
from spheremap.spectral import Grid

MODULES = sorted(m.name for m in pkgutil.iter_modules(spheremap.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_only_names_defined_in_the_module(name):
    module = importlib.import_module(f"spheremap.{name}")
    for attr in module.__all__:
        assert hasattr(module, attr), f"{name}.__all__ lists {attr}, which does not exist"
        obj = getattr(module, attr)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, (
                f"{name}.__all__ lists {attr}, which is defined in {obj.__module__}"
            )


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(spheremap.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"spheremap.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (
                f"spheremap imports {alias.name}, which {node.module}.__all__ does not list"
            )


def _unused_imports(path: Path) -> list:
    """Names bound by the module-level imports of ``path`` and never read.

    A package ``__init__`` re-exports its relative imports, so those count
    as used; so does every name listed in ``__all__``.
    """
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if path.name == "__init__.py" and node.level > 0:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{path}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_top_level_imports():
    root = Path(__file__).resolve().parents[1]
    sources = sorted([*root.glob("src/**/*.py"), *root.glob("tests/**/*.py")])
    assert sources
    unused = [item for path in sources for item in _unused_imports(path)]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_import_loads_no_second_spectral_backend():
    """numpy.fft is the one spectral backend; importing another costs start-up."""
    code = (
        "import sys, spheremap; "
        "print(' '.join(m for m in ('scipy', 'scipy.fft', 'pyfftw', 'mkl_fft') if m in sys.modules))"
    )
    src = Path(spheremap.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "", "import spheremap loaded " + done.stdout.strip()


def test_config_setup_loads_no_scipy_and_builds_no_matrix():
    """Parsing a config, the start-up that perfbench's ``setup_s`` times,
    imports no package beyond numpy and spheremap, parsing itself imports no
    module, and the grid holds no cached array: its per-axis matrices are
    left for the first product to build."""
    root = Path(spheremap.__file__).resolve().parents[2]
    # the overrides of perfbench's monitor-d4 workload
    overrides = ["grid.d=4", "grid.n=12", "initial.amplitude=0.02", "initial.width=0.8",
                 "time.steps=100", "run.cadence=10", "run.snapshot_every=10"]
    code = (
        "import sys; before = set(sys.modules); import spheremap; imported = set(sys.modules); "
        f"config = spheremap.parse_config({str(root / 'configs' / 'run-d2.ini')!r}, {overrides!r}); "
        "print(config.grid.d, config.grid.n, sorted(vars(config.grid)), "
        "sorted({m.split('.')[0] for m in imported - before} - set(sys.stdlib_module_names)), "
        "sorted(set(sys.modules) - imported))"
    )
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(root / "src")},
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == [
        "4", "12", "['d',", "'length',", "'n']", "['numpy',", "'spheremap']", "[]",
    ], done.stdout


def test_declared_numpy_floor_has_transforms_with_out():
    """The ``Grid`` transforms pass ``out=`` to ``np.fft``, which numpy
    accepts from 2.0 on; an older numpy raises TypeError on the first one."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    floors = [re.fullmatch(r"numpy\s*>=\s*(\d+)(?:\.(\d+))?.*", dep.strip())
              for dep in project["dependencies"] if dep.strip().startswith("numpy")]
    assert len(floors) == 1 and floors[0], f"no numpy>= floor in {project['dependencies']}"
    major, minor = floors[0].groups()
    assert (int(major), int(minor or 0)) >= (2, 0)


# Public definitions that nothing in src/ references, and why each stays.
UNREFERENCED_PUBLIC = {
    "a0_from_psi": "perfbench's install test deletes it to check how a missing name is reported",
    "riesz": "criterion 10 checks it against a closed form",
    "inv_gradient_riesz": "criterion 10 checks it against a closed form",
}


def _src_trees() -> dict:
    """File name -> parsed module, for every module of the package."""
    package = Path(spheremap.__file__).resolve().parent
    return {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}


def _names_read(trees: dict) -> set:
    """Every name and attribute that the code of ``trees`` reads."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_public_definition_is_referenced_in_src():
    """A top-level function or class that no code in ``src/`` reads is
    dead: a private one is a helper left behind, a public one test-only
    surface that belongs in ``tests/reference.py``."""
    trees = _src_trees()
    defined = {node.name: name for name, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    referenced = _names_read(trees)
    unused = sorted(f"{defined[name]}:{name}" for name in set(defined) - referenced
                    if name not in UNREFERENCED_PUBLIC)
    assert not unused, "definitions with no reference in src/: " + ", ".join(unused)
    stale = sorted(name for name in UNREFERENCED_PUBLIC
                   if name not in defined or name in referenced)
    assert not stale, "allowlisted but defined nowhere or referenced: " + ", ".join(stale)


def test_every_registered_symbol_is_requested_in_src():
    """``spectral._SYMBOLS`` is looked up by string, so the rule above cannot
    see a dead entry: each key must be the string literal that names the
    symbol in some ``.symbol(...)`` or ``_apply_symbol(...)`` call of
    ``src/``.  A call that passes its name through, as ``_apply_symbol``
    does, requests nothing itself."""
    requested = set()
    for tree in _src_trees().values():
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            func = call.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called not in ("symbol", "_apply_symbol"):
                continue
            names = [arg.value for arg in call.args
                     if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
            requested.update(names[:1])
    assert requested <= set(spectral._SYMBOLS), (
        "requested but not registered: " + ", ".join(sorted(requested - set(spectral._SYMBOLS))))
    unrequested = sorted(set(spectral._SYMBOLS) - requested)
    assert not unrequested, "registered symbols no call in src/ requests: " + ", ".join(unrequested)


def test_every_module_level_name_is_read_in_src():
    """A module-level constant that nothing in ``src/`` reads is dead."""
    trees = _src_trees()
    assigned = {}
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        assigned[leaf.id] = name
    unread = sorted(f"{assigned[name]}:{name}"
                    for name in set(assigned) - _names_read(trees) - {"__all__", "__version__"})
    assert not unread, "module-level names never read in src/: " + ", ".join(unread)


# Defaults of module-level functions that src/ does not both pass and leave
# out, and why each stays.
ONE_SIDED_DEFAULTS = {
    "cli_main.argv": "the console script passes none; perfbench and the CLI tests pass argv",
    "parse_config.out_dir": "perfbench/run.py times parse_config(path, overrides) for setup_s",
    "parse_config.seed": "perfbench/run.py times parse_config(path, overrides) for setup_s",
}


def _through_numpy(func: ast.expr) -> bool:
    """Whether a called attribute chain starts at ``np``, as ``np.fft.rfft`` does."""
    while isinstance(func, ast.Attribute):
        func = func.value
    return isinstance(func, ast.Name) and func.id == "np"


def _default_uses(trees: dict, functions: list, methods: bool) -> dict:
    """Map "function.parameter" to how the ``src/`` calls of ``functions``
    use that parameter's default: a subset of {"passed", "left out"}.

    A method's calls are the attribute calls of its name, its positional
    indices count from after ``self``, and calls through ``np.`` are not
    its calls; a module-level function's calls are those of its name.
    """
    optional = {}  # "function.parameter" -> positional index, None if keyword-only
    for node in functions:
        args = node.args
        positional = (args.posonlyargs + args.args)[1 if methods else 0:]
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], start=first):
            optional[f"{node.name}.{arg.arg}"] = index
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                optional[f"{node.name}.{arg.arg}"] = None
    uses = {key: set() for key in optional}
    for tree in trees.values():
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            func = call.func
            if methods:
                if not isinstance(func, ast.Attribute) or _through_numpy(func):
                    continue
                called = func.attr
            else:
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keywords = {kw.arg for kw in call.keywords}
            if None in keywords or any(isinstance(a, ast.Starred) for a in call.args):
                continue  # *args / **kwargs: which parameters it fills is unknown here
            for key, index in optional.items():
                function, parameter = key.split(".")
                if function == called:
                    passed = parameter in keywords or (index is not None and index < len(call.args))
                    uses[key].add("passed" if passed else "left out")
    return uses


def _one_sided(uses: dict, allowed: dict) -> list:
    return sorted(f"{key} ({', '.join(used) or 'never called'})"
                  for key, used in uses.items() if len(used) < 2 and key not in allowed)


def test_every_default_is_both_passed_and_left_out_in_src():
    """A default that every ``src/`` call passes is not needed, and one that
    no ``src/`` call passes is a second code path that only tests take."""
    trees = _src_trees()
    functions = [node for tree in trees.values() for node in tree.body
                 if isinstance(node, ast.FunctionDef)]
    uses = _default_uses(trees, functions, methods=False)
    one_sided = _one_sided(uses, ONE_SIDED_DEFAULTS)
    assert not one_sided, "defaults not both passed and left out in src/: " + ", ".join(one_sided)
    stale = sorted(key for key in ONE_SIDED_DEFAULTS if key not in uses or len(uses[key]) == 2)
    assert not stale, "allowlisted but no default or used both ways: " + ", ".join(stale)


def _methods(trees: dict) -> list:
    """The function definitions in the top-level classes of ``trees``."""
    return [node for tree in trees.values() for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef)]


def test_every_method_default_is_both_passed_and_left_out_in_src():
    """The rule above for the methods of ``src/`` classes; it has no
    allowlist.  No method of ``src/`` has a default, so a probe class
    shows that the rule sees one, and the method list that it sees the
    ``Grid`` methods."""
    probe = {"probe.py": ast.parse("class P:\n    def step(self, x, out=None): ...\n\nP().step(1)\n")}
    assert _default_uses(probe, _methods(probe), methods=True) == {"step.out": {"left out"}}
    trees = _src_trees()
    methods = _methods(trees)
    assert {"rfft", "irfft", "symbol"} <= {node.name for node in methods}
    uses = _default_uses(trees, methods, methods=True)
    one_sided = _one_sided(uses, {})
    assert not one_sided, "method defaults not both passed and left out in src/: " + ", ".join(one_sided)


class _EnclosingFunctions(ast.NodeVisitor):
    """The enclosing function of every division by the constant 6 and of
    every call of ``_rk4`` in a module."""

    def __init__(self) -> None:
        self.stack, self.sixths, self.kernel_callers = ["<module>"], [], set()

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.Div) and isinstance(node.right, ast.Constant) \
                and node.right.value == 6:
            self.sixths.append(self.stack[-1])
        self.generic_visit(node)

    def visit_Call(self, node):
        if getattr(node.func, "id", None) == "_rk4":
            self.kernel_callers.add(self.stack[-1])
        self.generic_visit(node)


def test_one_function_holds_the_rk4_tableau():
    """RK4's weighted sum (h/6)(k1 + 2 k2 + 2 k3 + k4) is formed in
    ``evolution._rk4`` alone, and both integrators step through it: a
    second tableau written out anywhere in ``src/`` fails here."""
    found = _EnclosingFunctions()
    for tree in _src_trees().values():
        found.visit(tree)
    assert found.sixths == ["_rk4"], found.sixths
    assert found.kernel_callers == {"rk4_update", "evolve_msm"}


class _FftCalls(ast.NodeVisitor):
    """The ``np.fft`` functions each class method or function of a module
    calls, by its qualified name (``Grid.rfft``, ``xk_norm``)."""

    def __init__(self) -> None:
        self.stack, self.calls = [], {}

    def _enter(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_ClassDef = visit_FunctionDef = _enter

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute) \
                and func.value.attr == "fft" and _through_numpy(func):
            self.calls.setdefault(".".join(self.stack), set()).add(func.attr)
        self.generic_visit(node)


def _fft_calls() -> dict:
    found = _FftCalls()
    for tree in _src_trees().values():
        found.visit(tree)
    return found.calls


def test_grid_defines_exactly_the_real_transform_pair():
    """Every ``Grid`` transform is real in and real out: ``rfft`` and
    ``irfft`` are the only methods that call a transform of ``np.fft``."""
    transforms = {name for name, called in _fft_calls().items()
                  if name.startswith("Grid.") and called - {"fftfreq"}}
    assert transforms == {"Grid.rfft", "Grid.irfft"}


def test_complex_transforms_only_where_the_spectral_docstring_says():
    """A complex ``np.fft`` transform is called only by the complex passes
    of the real pair and by the two functions the ``spectral`` module
    docstring names: ``xk_norm``'s space-time DFT of a complex record and
    the band-limited generator, whose transform fixes the bits of its data."""
    complex_transforms = {"fft", "ifft", "fftn", "ifftn", "fft2", "ifft2"}
    callers = {name for name, called in _fft_calls().items() if called & complex_transforms}
    assert callers == {"Grid.rfft", "Grid.irfft", "xk_norm", "_band_limited_random"}, callers


def test_run_evaluates_the_flow_only_through_flow_rhs(monkeypatch):
    """4 calls per RK4 step and 1 per diagnostics row; each call applies
    ``real_laplacian`` once, and nothing else in a run does."""
    real = {"flow_rhs": geometry.flow_rhs, "real_laplacian": spectral.real_laplacian}
    calls = dict.fromkeys(real, 0)

    def counting(function):
        def wrapper(*args, **kwargs):
            calls[function] += 1
            return real[function](*args, **kwargs)
        return wrapper

    for name, module in list(sys.modules.items()):
        if name.startswith("spheremap"):
            for attr, value in list(vars(module).items()):
                for function, original in real.items():
                    if value is original:
                        monkeypatch.setattr(module, attr, counting(function))
    steps = 6
    record = run(SimConfig(grid=Grid(d=2, n=16), initial=InitialDataSpec(amplitude=0.05),
                           steps=steps, cadence=2))
    assert len(record.rows) == 4
    assert calls["flow_rhs"] == 4 * steps + len(record.rows)
    assert calls["real_laplacian"] == calls["flow_rhs"]

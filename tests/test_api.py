"""Every parameter of a public function or method of ``blockspin`` is read in
its body, none that takes fields also takes the torus they carry, each
``__all__`` lists exactly its module's public functions and classes, and each
declared console script names a callable."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import blockspin

# benchmarks/workloads.py passes these, so they stay until the benchmark stops passing them
UNREAD_ALLOWED = {"flow.run_flow.profile", "flow.admissible_window.mu0"}
# benchmarks/workloads.py passes these a shape, so they keep it until the benchmark stops passing it
SHAPE_BESIDE_FIELDS_ALLOWED = {"background.solve_nonlinear", "background.nonlinear_residuals"}


def _public_functions():
    """(qualified name, node, is_method) of every public module-level function
    and public method of a public class."""
    for info in pkgutil.iter_modules(blockspin.__path__):
        tree = ast.parse(Path(blockspin.__path__[0], f"{info.name}.py").read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{info.name}.{node.name}", node, False
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{info.name}.{node.name}.{item.name}", item, True


def _unread_parameters(node: ast.FunctionDef, is_method: bool) -> list[str]:
    args = node.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
    if is_method and not static:
        params = params[1:]  # self or cls
    names = (n for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name))
    read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
    return [p for p in params if p not in read]


def test_every_public_parameter_is_read():
    unread = {f"{name}.{p}" for name, node, is_method in _public_functions()
              for p in _unread_parameters(node, is_method)}
    assert unread == UNREAD_ALLOWED


def _takes_fields_and_shape(node: ast.FunctionDef) -> bool:
    """Some parameter is annotated with Field or FieldPair (alone or in a
    union), and another is named shape."""
    params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
    fields = any(isinstance(n, ast.Name) and n.id in ("Field", "FieldPair")
                 for a in params if a.annotation is not None for n in ast.walk(a.annotation))
    return fields and any(a.arg == "shape" for a in params)


def test_no_public_function_takes_fields_and_their_shape():
    # a Field carries its torus; a second one given beside it can disagree
    both = {name for name, node, _ in _public_functions() if _takes_fields_and_shape(node)}
    assert both == SHAPE_BESIDE_FIELDS_ALLOWED


def _module_trees():
    """(module name, parsed source) of every module of the package."""
    for info in pkgutil.iter_modules(blockspin.__path__):
        yield info.name, ast.parse(Path(blockspin.__path__[0], f"{info.name}.py").read_text())


def _module_functions():
    """(module.function, node) of every module-level function and method in
    the package, private ones included."""
    for module, tree in _module_trees():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for item in members:
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{item.name}", item


def test_torus_holds_the_one_orbit_reduction():
    # momenta are keyed into orbits in one place, torus.momentum_orbits; the
    # time-plus-space step's np.unique runs over a space symbol's values, not momenta
    sorting = {name for name, node in _module_functions() for n in ast.walk(node)
               if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr in ("unique", "lexsort")}
    assert sorting == {"torus.momentum_orbits", "flow._time_plus_space_rows"}


def _fft_uses(tree) -> int:
    """How many nodes of ``tree`` reach an FFT module: an attribute named fft
    (np.fft, scipy.fft) or an import naming one."""
    def imported(n):
        names = [a.name for a in n.names] + ([n.module] if isinstance(n, ast.ImportFrom) and n.module else [])
        return any("fft" in name.split(".") for name in names)
    return sum(1 for n in ast.walk(tree) if (isinstance(n, ast.Attribute) and n.attr == "fft")
               or (isinstance(n, (ast.Import, ast.ImportFrom)) and imported(n)))


def test_torus_holds_the_one_transform():
    # one Fourier convention: every transform of the package runs through the
    # torus pair (tests may still call np.fft as independent references)
    inside = {name: _fft_uses(node) for name, node in _module_functions() if _fft_uses(node)}
    assert set(inside) == {"torus.to_modes", "torus.from_modes"}
    assert sum(_fft_uses(tree) for _, tree in _module_trees()) == sum(inside.values())


# the symbol-level functions; the solvers and the action's forms run the discrete model alone
MODE_TAKERS = {"symbols.heat_symbol", "symbols.well_matrix", "symbols.zero_field_symbol",
               "symbols.zero_field_symbol_dense", "symbols.delta_identity_check", "symbols.well_symbol",
               "symbols.well_fiber_dense", "symbols.momentum_bound_report"}


def test_every_mode_defaults_to_discrete():
    # only symbol-level functions take a mode, and each defaults to the discrete model
    defaults = {}
    for name, node, _ in _public_functions():
        args = node.args.posonlyargs + node.args.args
        given = dict(zip(args[len(args) - len(node.args.defaults):], node.args.defaults))
        given.update(zip(node.args.kwonlyargs, node.args.kw_defaults))
        for arg in args + node.args.kwonlyargs:
            if arg.arg == "mode":  # a mode without a default is recorded as None
                defaults[name] = given.get(arg) and ast.literal_eval(given[arg])
    assert defaults == dict.fromkeys(MODE_TAKERS, "discrete")


def test_all_lists_exactly_the_public_functions_and_classes():
    # a deleted name cannot stay listed, and a public one cannot go unlisted
    for info in pkgutil.iter_modules(blockspin.__path__):
        module = importlib.import_module(f"blockspin.{info.name}")
        if not hasattr(module, "__all__"):
            continue
        listed = set(module.__all__)
        assert listed <= set(vars(module)), (info.name, listed - set(vars(module)))
        public = {name for name, obj in vars(module).items() if not name.startswith("_")
                  and (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == module.__name__}
        assert public <= listed, (info.name, public - listed)


def test_every_console_script_names_a_callable():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = tomllib.loads(Path(__file__).parents[1].joinpath("pyproject.toml").read_text())
    scripts = pyproject["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr, None)), (name, target)

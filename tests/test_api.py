"""Every parameter of a public function or method of ``blockspin`` is read in
its body, and none that takes fields also takes the torus they carry."""

import ast
import pkgutil
from pathlib import Path

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

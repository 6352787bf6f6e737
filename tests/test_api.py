"""The public surface of the package: every public top-level function or
class, and every public method or property of a class, has a reader in
the package or a stated reason to exist.  An export alone is no reason."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from functools import cached_property

import oscthin
from oscthin import geometry, solve

# text readers and writers, called by users and by the tests
IO_PREFIXES = ("read_", "write_", "format_", "parse_")
# public class members that no code in the package reads, by reason
MEMBER_ALLOWLIST = {
    # the report contract that the benchmark gate and the ROADMAP compare
    "StudyReport.canonical",
}


def _modules():
    return [importlib.import_module(f"oscthin.{info.name}")
            for info in pkgutil.iter_modules(oscthin.__path__)]


def _referenced_names(modules):
    """Every name a module's code reads, bare or as an attribute."""
    names = set()
    for module in (oscthin, *modules):
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_definition_is_read_or_exempt():
    """Package code reads every public function or class, unless it is a
    text reader or writer: oscthin.__all__ does not count as a reader, and
    a helper that only the tests call belongs in the tests."""
    modules = _modules()
    used = _referenced_names(modules)
    unused = [
        f"{module.__name__}.{name}"
        for module in modules
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
        and name not in used
        and not name.startswith(IO_PREFIXES)]
    assert unused == []


def _public_members(modules):
    """(Class.member, member) for every public method or property of a
    class defined in the package."""
    kinds = (property, cached_property, staticmethod, classmethod)
    for module in modules:
        for cname, cls in vars(module).items():
            if (cname.startswith("_") or not inspect.isclass(cls)
                    or cls.__module__ != module.__name__):
                continue
            for name, attr in vars(cls).items():
                if not name.startswith("_") and (inspect.isfunction(attr)
                                                 or isinstance(attr, kinds)):
                    yield f"{cname}.{name}", name


def test_every_public_member_is_read_or_allowlisted():
    modules = _modules()
    used = _referenced_names(modules)
    unused = [qualified for qualified, name in _public_members(modules)
              if name not in used and qualified not in MEMBER_ALLOWLIST]
    assert unused == []


def test_member_allowlist_names_live_members():
    """The allowlist names live members, so it cannot go stale."""
    members = {qualified for qualified, _ in _public_members(_modules())}
    assert MEMBER_ALLOWLIST <= members


def _definitions(tree):
    """(name, how it is called, function node, leading arguments a call
    does not pass) for every function at a module's top level and every
    method of its classes: a method is called by its own name without
    its first argument, a constructor by its class's name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    called = node.name if item.name == "__init__" else item.name
                    yield f"{node.name}.{item.name}", called, item, 1


def _defaulted(function, skip):
    """(name, position in a call or None) of each defaulted parameter."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for k, arg in enumerate(positional[first:], start=first):
        yield arg.arg, k - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _calls(tree):
    """(callee name, positional arguments, keywords) of every call, a
    functools.partial counted as a call of the function it binds."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        name = getattr(func, "id", getattr(func, "attr", None))
        if name == "partial" and args:
            func, args = args[0], args[1:]
            name = getattr(func, "id", getattr(func, "attr", None))
        yield name, args, node.keywords


def _sets(args, keywords, name, position):
    """Whether a call's arguments pass the parameter."""
    if any(k.arg in (name, None) for k in keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in args):
        return True
    return position is not None and len(args) > position


def test_every_default_is_set_by_some_call():
    """A defaulted parameter that no call in the package passes, by
    keyword, by position or through functools.partial, is a knob with one
    value: the value belongs in the body.  cli.main's argv is passed from
    outside the package."""
    trees = [ast.parse(inspect.getsource(module)) for module in _modules()]
    calls = [call for tree in trees for call in _calls(tree)]
    unset = [
        f"{qualified}.{name}"
        for tree in trees
        for qualified, called, function, skip in _definitions(tree)
        if qualified != "main"
        for name, position in _defaulted(function, skip)
        if not any(callee == called and _sets(args, keywords, name, position)
                   for callee, args, keywords in calls)]
    assert unset == []


def test_a_mesh_is_its_column_grid():
    """The column grid is the only mesh form: a mesh has no node,
    triangle or boundary-edge table, and no grid-to-triangle table is
    built (the geometry module's docstring states the triangle
    numbering)."""
    for name in ("nodes", "triangles", "boundary_edges"):
        assert not hasattr(geometry.Mesh, name)
    assert not hasattr(geometry, "grid_triangles")


def test_a_cell_mesh_is_periodic(reference_profile):
    """A cell mesh numbers its last column as its first, so nothing folds
    a periodic copy back: the mesh has no periodic pairs and the solver no
    node map or constraint set."""
    mesh = geometry.build_cell_mesh(reference_profile, 8, 4)
    assert not hasattr(mesh, "periodic_pairs")
    for name in ("Reduction", "ConstraintSet"):
        assert not hasattr(solve, name)
        assert name not in oscthin.__all__


def test_no_sparse_matrix_is_built():
    """The fibers are integrals and the jacobians bands: no module holds
    anything of scipy.sparse.  solve.spla, which the benchmark's tracer
    wraps, imports scipy.sparse.linalg when it is first read."""
    users = set()
    for module in _modules():
        for value in vars(module).values():
            origin = (value.__name__ if inspect.ismodule(value)
                      else getattr(value, "__module__", None))
            if isinstance(origin, str) and origin.startswith("scipy.sparse"):
                users.add(module.__name__)
    assert users == set()
    import scipy.sparse.linalg
    assert solve.spla is scipy.sparse.linalg


def test_cli_import_leaves_scipy_linalg_and_sparse_out():
    """The command line reaches LAPACK without importing scipy,
    scipy.linalg or scipy.sparse, whose imports cost more than the rest of
    its start: it finds scipy's directory without running its package
    __init__.  It runs the ladder serially, writes no CSV report and
    integrates the load over its fibers in closed form, so
    concurrent.futures, csv and numpy.polynomial are not imported
    either."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, oscthin.cli; print(' '.join(sorted(name for name in "
            "sys.modules if name in ('scipy', 'scipy.linalg', 'scipy.sparse', "
            "'concurrent.futures', 'csv', 'numpy.polynomial') "
            "or name.startswith('scipy.sparse.'))))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []

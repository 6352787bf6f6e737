"""The public surface of the package: every public top-level function or
class has a caller, an export or a stated reason to exist."""

import ast
import importlib
import inspect
import pkgutil

import oscthin

# text readers and writers, called by users and by the tests
IO_PREFIXES = ("read_", "write_", "format_", "parse_")
# helpers that only the acceptance criteria call
ACCEPTANCE_HELPERS = {
    "p_flux_inverse",                   # criterion 10
    "measure_identity_check",           # criterion 9
    "flux_density_height_integral",     # criterion 8
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


def test_every_public_definition_is_used_or_exported():
    modules = _modules()
    used = _referenced_names(modules) | set(oscthin.__all__)
    unused = [
        f"{module.__name__}.{name}"
        for module in modules
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
        and name not in used
        and not name.startswith(IO_PREFIXES)
        and name not in ACCEPTANCE_HELPERS]
    assert unused == []


def test_acceptance_helpers_exist():
    """The allowlist names live definitions, so it cannot go stale."""
    defined = {name for module in _modules() for name in vars(module)}
    assert ACCEPTANCE_HELPERS <= defined

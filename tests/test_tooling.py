"""Source-level guards on the kernel package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "thetacas"


def test_kernel_has_no_assert_statements():
    """Checks must be explicit raises: ``python -O`` strips ``assert``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the kernel: {found}"


def _raised_names(tree):
    """Names of the exception classes a module raises, as ``raise X(...)`` or
    ``raise mod.X(...)``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    """An exception class that no kernel module raises is dead code."""
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in sorted(PACKAGE.glob("*.py")):
        raised |= _raised_names(ast.parse(path.read_text(encoding="utf-8")))
    assert not defined - raised, f"never raised: {sorted(defined - raised)}"


# The Q field keeps integral rationals as ints; Gram linear algebra divides.
FRACTION_MODULES = {"ring.py", "numeq.py"}


def test_only_the_field_and_gram_algebra_import_fractions():
    """A hot-path module that builds Fractions outside FieldSpec undoes the
    field's int storage of integral rationals."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if "fractions" in names and path.name not in FRACTION_MODULES:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"fractions imported outside {sorted(FRACTION_MODULES)}: {found}"


def _referenced_names(nodes):
    """Names used or imported in the given nodes."""
    names = set()
    for tree in nodes:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
    return names


def _kernel_names_without_caller(exempt):
    """Top-level functions and classes of ``src/thetacas``, as
    ``file:name``, that ``exempt`` does not excuse and that no other kernel
    module names and their own module uses nowhere outside their definition."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    unused = []
    for name, tree in trees.items():
        elsewhere = _referenced_names(t for other, t in trees.items() if other != name)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or exempt(node.name):
                continue
            own = _referenced_names(other for other in tree.body if other is not node)
            if node.name not in elsewhere | own:
                unused.append(f"{name}:{node.name}")
    return unused


def test_every_public_kernel_function_has_a_caller():
    """A public function or class that only tests use belongs in the test
    oracles: each one is exported in ``thetacas.__all__``, used by another
    kernel module, or used in its own module outside its definition."""
    import thetacas

    unused = _kernel_names_without_caller(
        lambda name: name.startswith("_") or name in thetacas.__all__)
    assert not unused, f"public kernel names with no caller in src: {unused}"


def test_every_private_kernel_function_has_a_caller():
    """A private helper has no ``__all__`` escape: one that only tests use
    belongs in the test oracles."""
    unused = _kernel_names_without_caller(lambda name: not name.startswith("_"))
    assert not unused, f"private kernel names with no caller in src: {unused}"

"""Source-level guards on the kernel package."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "thetacas"
README = ROOT / "README.md"


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


def _library_names():
    """The names the README's "Library" example imports from thetacas."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    code = section[section.index("```python") + len("```python"):]
    tree = ast.parse(code[:code.index("```")])
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("thetacas")
            for alias in node.names}


def _kernel_source(node):
    """The kernel module (file stem, ``__init__`` for the package) an
    ``ImportFrom`` reads, or None for one outside the package."""
    if node.level == 1:
        return node.module or "__init__"
    if node.level == 0 and (node.module or "").split(".")[0] == "thetacas":
        return node.module.partition(".")[2] or "__init__"
    return None


def _unreachable_kernel_definitions():
    """Top-level functions and classes of ``src/thetacas``, as ``file:name``,
    and methods of reached classes, as ``file:Class.name``, that no chain of
    references reaches from the roots: ``cli.main``, the names the README
    "Library" example imports, and every module-level statement that is not
    a definition or an import.

    A reference is read in the module it stands in.  A bare name reaches the
    definition of that name in its own module, or the one that
    ``from .m import name`` brings in; ``x.attr`` reaches a top-level
    definition only when ``x`` names a kernel module; any other attribute
    reaches only the methods of that name of reached classes.  A reached
    function or method reaches what its body names; a reached class reaches
    what its body names outside its methods, and its dunder methods."""
    bodies = {path.stem: ast.parse(path.read_text(encoding="utf-8")).body
              for path in sorted(PACKAGE.glob("*.py"))}
    defs, methods = {}, {}
    imports, module_names = {}, {}  # (module, bound name) -> (source, name) / module
    for mod, body in bodies.items():
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(mod, node.name)] = node
                if isinstance(node, ast.ClassDef):
                    methods[(mod, node.name)] = {
                        item.name: item for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
            elif isinstance(node, ast.ImportFrom) and _kernel_source(node):
                for alias in node.names:
                    bound = (mod, alias.asname or alias.name)
                    if _kernel_source(node) == "__init__" and alias.name in bodies:
                        module_names[bound] = alias.name
                    else:
                        imports[bound] = (_kernel_source(node), alias.name)

    def resolve(mod, name):
        seen = set()
        while (mod, name) not in defs:
            if (mod, name) in seen or (mod, name) not in imports:
                return None
            seen.add((mod, name))
            mod, name = imports[(mod, name)]
        return mod, name

    reached, attributes, queue = set(), set(), []

    def reach(key):
        if key is not None and key not in reached:
            reached.add(key)
            queue.append(key)

    def walk(node, mod, skip=()):
        stack = [node]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Name):
                reach(resolve(mod, node.id))
            elif isinstance(node, ast.Attribute):
                value = node.value
                if isinstance(value, ast.Name) and (mod, value.id) in module_names:
                    reach(resolve(module_names[(mod, value.id)], node.attr))
                else:
                    attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and _kernel_source(node):
                for alias in node.names:
                    reach(resolve(_kernel_source(node), alias.name))
            stack += [child for child in ast.iter_child_nodes(node) if child not in skip]

    reach(("cli", "main"))
    for name in _library_names():
        reach(resolve("__init__", name))
    for mod, body in bodies.items():
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)):
                walk(node, mod)
    units = dict(defs)  # top-level definitions and methods, by key
    for cls, own in methods.items():
        units.update({cls + (name,): node for name, node in own.items()})
    while queue:
        while queue:
            key = queue.pop()
            walk(units[key], key[0], skip=set(methods.get(key, {}).values()))
        for cls, own in methods.items():
            if cls in reached:
                for name in own:
                    if name in attributes or (name.startswith("__") and name.endswith("__")):
                        reach(cls + (name,))
    return sorted(f"{key[0]}.py:{'.'.join(key[1:])}" for key in units
                  if key not in reached and (len(key) == 2 or key[:2] in reached))


def test_every_kernel_definition_is_reachable_from_the_cli_or_the_library():
    """A kernel function, class or method that neither a CLI task nor the
    documented library API reaches belongs in the test oracles, next to the
    tests that use it.  An export in ``__all__``, a call from unreachable
    code, and a name that only another module defines do not count as a
    use."""
    unreached = _unreachable_kernel_definitions()
    assert not unreached, f"kernel definitions no root reaches: {unreached}"


def _scopes_naming(name):
    """``file:scope`` of each place in ``src/thetacas`` that names ``name``,
    as a name or an attribute, the scope being the dotted chain of the
    classes and functions around it (empty at module level)."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(ast.parse(path.read_text(encoding="utf-8")), ())]
        while stack:
            node, scope = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope += (node.name,)
            if (isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name):
                found.add(f"{path.name}:{'.'.join(scope)}")
            stack += [(child, scope) for child in ast.iter_child_nodes(node)]
    return found


def test_only_the_polynomial_boundary_unpacks_vectors():
    """Every kernel vector and polynomial is packed, with one term format:
    no vector is packed from exponent tuples or unpacked to them (the test
    oracles' pack_vector and unpack_vector do both); the ring unpacks single
    terms only.  The tuple helpers of the second format are gone."""
    for name in ("_pack_vector", "_unpack_vector", "unpack_vector", "mono_mul", "mono_key",
                 "_codes", "lead_monomial"):
        assert not _scopes_naming(name), f"{name} named in the kernel: {sorted(_scopes_naming(name))}"


def _kernel_identifiers():
    """Every identifier ``src/thetacas`` names: names, attributes, imported
    modules and names, and defined functions and classes."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.update(node.name.split("."))
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.add(node.name)
    return found


def test_bases_and_rings_answer_for_themselves():
    """A Groebner basis holds no ring, weak or strong, and no unpacked copy;
    a ring answers for its ambient ring, f and dimension, with no dispatcher
    on its type; a module has no identity key of its own; and c1 returns the
    one class of formal combinations."""
    removed = {"weakref", "freeze_vec", "Vector", "ambient_of", "modulus_of",
               "ring_dimension", "DivisorClass", "_key"}
    named = removed & _kernel_identifiers()
    assert not named, f"named in the kernel: {sorted(named)}"


def test_the_field_keeps_only_what_the_kernel_calls():
    """FieldSpec adds through axpy alone: callers pass -c to it and read
    the literals 0 and 1, so it has no neg and no zero or one constants;
    and the printer makes one pass, with no per-entry _text helper."""
    from thetacas import FieldSpec

    public = {name for name in vars(FieldSpec) if not name.startswith("_")}
    assert public == {"characteristic", "coerce", "mul", "inv", "axpy"}
    assert "_text" not in _kernel_identifiers()


def test_only_the_ring_module_tests_for_a_hypersurface_ring():
    """Outside ring.py, code asks ring.f is None, not the ring's type."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "ring.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and any(isinstance(n, ast.Name) and n.id == "HypersurfaceRing"
                            for n in ast.walk(node.args[1]))):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"isinstance(..., HypersurfaceRing) outside ring.py: {found}"

"""`src/` keeps only what the package itself uses: every public top-level
function and class of camvitals is referenced somewhere in src/ outside
its own definition, every module-level constant is read somewhere in
src/, every parameter with a default is passed by some call in src/, and
every parameter is read by its function. Readers and helpers that only
tests need live under tests/ (see readers.py), and so do modes that only
tests would set."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "camvitals"

# "module.name": why the name stays in src/ with no reference there
ALLOWED = {
    "detect.rect_sum": "acceptance criterion 6 imports it from camvitals.detect as the "
                       "documented integral-image lookup",
}

# "module.function(parameter)": why the default is never overridden in src/
ALLOWED_PARAMETERS = {
    "cli.main(argv)": "the console entry point calls main() with no argument; tests and "
                      "the benchmark pass argv",
}


def _parsed_modules():
    """{module name: its AST} of every module of the package."""
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(PACKAGE.glob("*.py"))}


def _referenced_names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def unreferenced_public_names():
    trees = _parsed_modules()
    tops = [(mod, node) for mod, tree in trees.items() for node in tree.body]
    unused = []
    for mod, node in tops:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and not any(node.name in _referenced_names(other)
                            for _, other in tops if other is not node)):
            unused.append(f"{mod}.{node.name}")
    return unused


def test_every_public_function_and_class_is_used_in_src():
    assert unreferenced_public_names() == sorted(ALLOWED)


def _imported_modules_and_names(tree, modules):
    """({local name: module} of each package module that an import in tree
    binds, {local name: (module, name)} of each name imported from one).
    The package imports its own modules relatively, as `from . import m`
    and `from .m import NAME`."""
    aliases, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module in modules:
                    names[a.asname or a.name] = (node.module, a.name)
                elif node.module is None and a.name in modules:
                    aliases[a.asname or a.name] = a.name
    return aliases, names


def _constant_reads(trees):
    """The set of (module, NAME) that some expression in src/ reads: NAME
    in the module itself, a name imported from the module, or `x.NAME`
    where an import in the same file makes x the module."""
    read = set()
    for mod, tree in trees.items():
        aliases, names = _imported_modules_and_names(tree, trees)
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(names.get(n.id, (mod, n.id)))
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) \
                    and n.value.id in aliases:
                read.add((aliases[n.value.id], n.attr))
    return read


def unread_module_constants(trees=None):
    """Each name bound by a module-level assignment in src/ (or in the
    {module: AST} trees) that no expression there reads, as "module.NAME":
    a sizing constant must not outlive the code that it sized. An
    attribute of the same spelling on another object is not a read."""
    trees = _parsed_modules() if trees is None else trees
    read = _constant_reads(trees)
    unread = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                unread += [f"{mod}.{n.id}" for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name) and (mod, n.id) not in read]
    return sorted(unread)


def test_every_module_constant_is_read_in_src():
    assert unread_module_constants() == []


def test_a_constant_read_only_as_another_objects_attribute_is_unread():
    sources = {
        "a": "LIMIT = 3\nSIZE = 4\nSHARED = 5\nOWN = 6\nprint(OWN)\n",
        # other.LIMIT and self.SIZE name no module of the package
        "b": "import other\n\ndef f(self):\n    return other.LIMIT + self.SIZE\n",
        "c": "from . import a\nfrom .a import OWN as own\nSHARED = a.SHARED\n",
        "d": "from . import c as cc\nfrom .a import SIZE\nprint(cc.SHARED + SIZE)\n",
    }
    trees = {mod: ast.parse(source) for mod, source in sources.items()}
    assert unread_module_constants(trees) == ["a.LIMIT"]
    del trees["d"]
    assert unread_module_constants(trees) == ["a.LIMIT", "a.SIZE", "c.SHARED"]


def _called_name(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def _functions(tree):
    """(def, parameters a call's positional arguments skip) of each top-level
    function and each method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node, 0
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    yield item, 0 if static else 1


def _passes(call, arg, position):
    """Whether `call` may set the parameter `arg`, found at `position` among
    the positional arguments (None for a keyword-only parameter)."""
    if any(k.arg in (arg, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def unpassed_default_parameters():
    """Each parameter with a default that no call in src/ of a function of
    its name passes, by position or keyword, as "module.function(parameter)"."""
    trees = _parsed_modules()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_called_name(node), []).append(node)
    unpassed = []
    for mod, tree in trees.items():
        for fn, skip in _functions(tree):
            a = fn.args
            positional = a.posonlyargs + a.args
            defaulted = [(arg, i - skip) for i, arg in enumerate(positional)
                         if i >= len(positional) - len(a.defaults)]
            defaulted += [(arg, None) for arg, default in zip(a.kwonlyargs, a.kw_defaults)
                          if default is not None]
            for arg, position in defaulted:
                if not any(_passes(c, arg.arg, position) for c in calls.get(fn.name, ())):
                    unpassed.append(f"{mod}.{fn.name}({arg.arg})")
    return sorted(unpassed)


def test_every_default_parameter_is_passed_in_src():
    assert unpassed_default_parameters() == sorted(ALLOWED_PARAMETERS)


def unread_parameters():
    """Each parameter of a function or lambda in src/, other than one named
    `_...`, that its body never reads, as "module.function(parameter)": a
    parameter that only callers fill must not outlive the code that read it."""
    unread = []
    for mod, tree in _parsed_modules().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(fn, "name", "<lambda>")
            unread += [f"{mod}.{name}({p.arg})" for p in params
                       if not p.arg.startswith("_") and p.arg not in read]
    return sorted(unread)


def test_every_parameter_is_read_in_its_function():
    assert unread_parameters() == []

"""`src/` keeps only what the package itself uses: every public top-level
function and class of camvitals is referenced somewhere in src/ outside
its own definition, every module-level constant is read somewhere in
src/, and every parameter with a default is passed by some call in src/. Readers and helpers that only tests need live under tests/
(see readers.py), and so do modes that only tests would set."""

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


def unread_module_constants():
    """Each name bound by a module-level assignment in src/ that no
    expression in src/ reads, as "module.NAME": a sizing constant must
    not outlive the code that it sized."""
    trees = _parsed_modules()
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}
    unread = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                unread += [f"{mod}.{n.id}" for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name) and n.id not in read]
    return sorted(unread)


def test_every_module_constant_is_read_in_src():
    assert unread_module_constants() == []


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

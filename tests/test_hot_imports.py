"""Guard: no imports inside functions on the compile path.

An ``import`` statement inside a function runs the import machinery on
every call.  In constructors and per-query helpers of the IR, the
passes, the analyses and the frontend that added up to about 130k
``importlib`` lookups per probing session, so those packages import at
module level.  The only function-level imports left are the ones an
import cycle forces; each is listed below with the cycle that forces it.
"""

import ast
import os

import repro

SRC = os.path.dirname(repro.__file__)
PACKAGES = ("ir", "passes", "analysis", "frontend")

#: (path under src/repro, enclosing function, imported module) → the
#: import cycle that keeps the import inside the function
ALLOWED = {
    ("frontend/omp.py", "outline_parallel_for", ".codegen"):
        "frontend.codegen imports frontend.omp at load time for "
        "outline_parallel_for, so omp can reach FnEmitter only at call "
        "time",
}


def _function_imports(path: str):
    with open(path) as f:
        tree = ast.parse(f.read(), path)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                yield from visit(child, scope + [getattr(child, "name",
                                                         "<lambda>")])
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, scope)
            else:
                if scope and isinstance(child, ast.Import):
                    for alias in child.names:
                        yield scope[0], alias.name, child.lineno
                elif scope and isinstance(child, ast.ImportFrom):
                    module = "." * child.level + (child.module or "")
                    yield scope[0], module, child.lineno
                yield from visit(child, scope)

    yield from visit(tree, [])


def _scan():
    found = {}
    for pkg in PACKAGES:
        for dirpath, _, files in os.walk(os.path.join(SRC, pkg)):
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, SRC).replace(os.sep, "/")
                for fn, module, line in _function_imports(path):
                    found[(rel, fn, module)] = line
    return found


def test_no_function_level_imports_outside_the_allow_list():
    found = _scan()
    unexpected = sorted(f"{rel}:{line}: {fn}() imports {module}"
                        for (rel, fn, module), line in found.items()
                        if (rel, fn, module) not in ALLOWED)
    assert not unexpected, (
        "imports inside functions on the compile path; hoist them to "
        "module level, or add an ALLOWED entry naming the import cycle "
        "that forces them:\n" + "\n".join(unexpected))


def test_allow_list_has_no_stale_entries():
    found = _scan()
    stale = sorted(str(key) for key in ALLOWED if key not in found)
    assert not stale, "ALLOWED entries that no longer match: " + ", ".join(
        stale)


def test_scan_sees_a_function_level_import(tmp_path):
    # the scanner itself must not go blind (nested functions, methods)
    src = tmp_path / "m.py"
    src.write_text("import os\n"
                   "class C:\n"
                   "    def m(self):\n"
                   "        def inner():\n"
                   "            from .x import y\n"
                   "        import math\n")
    assert sorted(_function_imports(str(src))) == [
        ("m", ".x", 5), ("m", "math", 6)]

"""Package structure: one-way module dependencies and the thread-cap contract."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parents[1] / "src" / "hardyheat"


def _import_graph():
    """(module -> package modules it imports, modules importing click),
    read from the source, so that import order at run time plays no part."""
    modules = {p.stem for p in PKG.glob("*.py")}
    graph, click_users = {}, set()
    for path in PKG.glob("*.py"):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    deps.add(node.module.split(".")[0])
                else:
                    deps.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module + "." + a.name for a in node.names]
                if node.module.split(".")[0] == "click":
                    click_users.add(path.stem)
                deps.update(n.split(".")[1] for n in names
                            if n.startswith("hardyheat."))
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "click":
                        click_users.add(path.stem)
                    if a.name.startswith("hardyheat."):
                        deps.add(a.name.split(".")[1])
        graph[path.stem] = deps & modules
    return graph, click_users


def test_import_graph_is_acyclic():
    graph, _ = _import_graph()
    done, active = set(), []

    def visit(mod):
        if mod in active:
            pytest.fail("import cycle: " + " -> ".join(active + [mod]))
        if mod in done:
            return
        active.append(mod)
        for dep in sorted(graph[mod]):
            visit(dep)
        active.pop()
        done.add(mod)

    for mod in sorted(graph):
        visit(mod)


def test_layering():
    graph, click_users = _import_graph()
    # the forms layer stands beside the engines, not on top of them
    assert not graph["forms"] & {"verifier", "duhamel", "mc_oracle"}
    # the verifier's checks are quadrature routes; MC comparisons run apart
    assert "mc_oracle" not in graph["verifier"]
    assert click_users == {"cli"}


def test_verifier_reads_no_engine_internals():
    """verifier imports no private name of duhamel and reads no _-prefixed
    attribute of any object: the planar grid's format stays behind
    duhamel.KernelSlice."""
    private = []
    for node in ast.walk(ast.parse((PKG / "verifier.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("duhamel"):
            private += [a.name for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            private.append(node.attr)
    assert private == []


def test_every_parameter_is_read():
    """Every parameter of every function in the package is read by the
    function's body (self and cls aside)."""
    unread = []
    for path in sorted(PKG.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                     + [a.vararg, a.kwarg] if p is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [(path.stem, node.name, name) for name in names
                       if name not in read and name not in ("self", "cls")]
    assert unread == []


def _optional_parameters():
    """(callable, parameter, position) for every parameter with a default in
    the package; the callable of an __init__ is its class, and position is
    None for keyword-only parameters and counts no self or cls."""
    found = []
    for path in sorted(PKG.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {m: c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for m in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = owner[node] if node.name == "__init__" else node.name
            a = node.args
            pos = [p.arg for p in a.posonlyargs + a.args]
            if pos[:1] in (["self"], ["cls"]):
                pos = pos[1:]
            first = len(pos) - len(a.defaults)
            found += [(name, pos[i], i) for i in range(first, len(pos))]
            found += [(name, p.arg, None) for p, dflt in
                      zip(a.kwonlyargs, a.kw_defaults) if dflt is not None]
    return found


def test_every_optional_parameter_is_passed():
    """Every parameter with a default is passed, by position or keyword, in
    some call in the package, its tests or the benchmark; one that no call
    sets is a constant."""
    root = PKG.parents[1]
    passed = set()
    for path in sorted(root.glob("src/hardyheat/*.py")) \
            + sorted(root.glob("tests/*.py")) + sorted(root.glob("perfbench/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if any(isinstance(x, ast.Starred) for x in node.args) or any(
                    k.arg is None for k in node.keywords):
                passed.add((name, "*"))
            passed.update((name, i) for i in range(len(node.args)))
            passed.update((name, k.arg) for k in node.keywords)
    unset = [(name, param) for name, param, i in _optional_parameters()
             if not passed & {(name, param), (name, i), (name, "*")}]
    assert unset == []


def test_every_lru_cache_is_bounded():
    """Every functools.lru_cache in the package has an integer maxsize, so
    that no memo grows without bound."""
    unbounded = []
    for path in sorted(PKG.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                target = call.func if call else dec
                name = (target.attr if isinstance(target, ast.Attribute)
                        else getattr(target, "id", None))
                if name not in ("lru_cache", "cache"):
                    continue
                size = None
                if call is not None:
                    args = list(call.args[:1]) + [k.value for k in call.keywords
                                                  if k.arg == "maxsize"]
                    size = args[0] if args else None
                if not (isinstance(size, ast.Constant)
                        and type(size.value) is int):
                    unbounded.append((path.stem, node.name))
    assert unbounded == []


def test_worker_count_is_read_in_one_place():
    """Only pool names HARDYHEAT_THREADS or reads the environment; the
    module that uses threads takes its count from it."""
    readers = set()
    for path in PKG.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and node.value == "HARDYHEAT_THREADS") \
                    or (isinstance(node, ast.Attribute)
                        and node.attr in ("environ", "getenv", "environb")):
                readers.add(path.stem)
    assert readers == {"pool"}
    from hardyheat import duhamel, pool
    assert duhamel.workers is pool.workers


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the thread count from /proc/self/status")
def test_hardyheat_threads_caps_blas_threads():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "GOTO_NUM_THREADS", "MKL_NUM_THREADS")}
    env["HARDYHEAT_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PKG.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import hardyheat, numpy as np\n"
            "a = np.ones((400, 400))\n"
            "a @ a\n"
            "status = open('/proc/self/status').read().splitlines()\n"
            "print([l.split()[1] for l in status if l.startswith('Threads:')][0])\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert int(out.stdout) == 1

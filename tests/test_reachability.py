"""Reachability guard: every function in src/qwick is entered by some
`verify` or `compute` path, or is named below with the reason it stays, and
every module-level name assigned in src/qwick is read somewhere.

The traced run happens in a fresh interpreter (run this file as a script with
a work directory), so functions that run only at import count and no cache
warmed by other tests hides a call.  Code that no CLI path reaches and no
entry below names makes the test fail: delete it, or name it here.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

TRACER_LAYER = "bench/tracer.py wraps it by name (LAYERS)"

# qualified name -> why it stays in src/qwick although no CLI path enters it
NEVER_ENTERED = {
    "fock.creation_matrix": TRACER_LAYER,
    "fock.annihilation_matrix": TRACER_LAYER,
    "fock._operator_matrix": "builds creation_matrix and annihilation_matrix",
    "fock.GradedVector.__setattr__": "refuses attribute assignment and deletion, which no path tries",
    "wick.moment": TRACER_LAYER,
}


def _vector_file(rng, q: float, dim: int, max_degree: int, size: float) -> str:
    """A vector file written without qwick, so writing it enters nothing."""
    comps = {str(n): (size * rng.standard_normal(dim**n)).tolist() for n in range(max_degree + 1)}
    comps["0"] = [1.0]
    return json.dumps({"q": q, "dim": dim, "max_degree": max_degree, "components": comps})


def _calls(work: Path) -> list[list[str]]:
    import numpy as np

    rng = np.random.default_rng(0)
    (work / "f.json").write_text(_vector_file(rng, 0.5, 2, 3, 1.0))
    (work / "g.json").write_text(_vector_file(rng, 0.5, 2, 3, 0.1))
    (work / "config.json").write_text(json.dumps({"trials": 2, "seed": 3, "scales": [[2, 1]]}))
    (work / "phi.json").write_text("[0.5, 0.25]")
    f, g = str(work / "f.json"), str(work / "g.json")
    return [
        ["verify", "--suite", "all", "--trials", "2"],
        ["verify", "--suite", "vage", "--config", str(work / "config.json"),
         "--scales", "2:1:1.5,4:1", "--csv", str(work / "trials.csv")],
        ["compute", "wick-mul", f, g],
        ["compute", "wick-inv", f],
        ["compute", "wick-exp", g],
        ["compute", "norm", f],
        ["compute", "norm", f, "--side", "test", "--weights", "default",
         "--out", str(work / "norm.json")],
        ["compute", "moments", "--order", "4"],
        ["compute", "moments", "--order", "4", "--phi", str(work / "phi.json"),
         "--out", str(work / "moments.json")],
    ]


def _functions(code: types.CodeType, prefix: str, path: str, out: dict) -> None:
    """(file, first line, name) -> qualified name of every def below code;
    class bodies, lambdas and comprehensions are not functions here."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
            name = prefix + const.co_name
            if const.co_flags & inspect.CO_NEWLOCALS:
                out[(path, const.co_firstlineno, const.co_name)] = name
            _functions(const, name + ".", path, out)


def _trace(work: Path) -> dict:
    """Run every call under sys.setprofile, qwick's import included; return
    the exit codes and the qwick functions never entered."""
    import contextlib
    import io

    entered = set()

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.setprofile(record)
    import qwick.cli

    calls = _calls(work)
    codes = []
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(qwick.cli.main(argv))
    sys.setprofile(None)
    functions: dict = {}
    for path in sorted(Path(qwick.cli.__file__).parent.glob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        _functions(code, path.stem + ".", str(path), functions)
    never = sorted(name for key, name in functions.items() if key not in entered)
    return {"codes": codes, "functions": len(functions), "never": never}


def test_every_src_function_is_reached_or_pinned(tmp_path):
    import qwick

    src = str(Path(qwick.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run(
        [sys.executable, __file__, str(tmp_path)], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    traced = json.loads(result.stdout)
    assert traced["codes"] == [0] * len(traced["codes"])
    assert traced["functions"] > 100  # the walk found the package
    assert sorted(traced["never"]) == sorted(NEVER_ENTERED)


ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _module_level(nodes):
    """The statements of a module body, through if/try/with/loop blocks but
    not into function or class bodies."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _module_level(getattr(node, field, []))


def test_every_module_level_name_is_read():
    # a constant nothing reads, such as a table the CLI no longer consults,
    # is dead code the function trace cannot see
    read = set()
    for folder in ("src", "tests", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    assigned = []  # (module.name, name)
    for path in sorted((ROOT / "src" / "qwick").glob("*.py")):
        for node in _module_level(ast.parse(path.read_text()).body):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                assigned += [
                    (f"{path.stem}.{name.id}", name.id)
                    for target in targets
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name)
                ]
    assert len(assigned) > 20  # the walk found the package's constants
    assert [qualified for qualified, name in assigned if name not in read] == []


def _bench_lookups() -> list[tuple[str, str, bool]]:
    """(module, function, needs cache_info) for every qwick function the
    bench names: the LAYERS table of bench/tracer.py, and the attributes of
    the qwick modules bench/child.py imports, whose cache_info it reads.
    Both files are parsed, not imported."""
    lookups = []
    tracer = ast.parse((BENCH / "tracer.py").read_text())
    for node in ast.walk(tracer):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "LAYERS" for t in node.targets):
            for module, table in zip(node.value.keys, node.value.values):
                lookups += [(module.value, key.value, False) for key in table.keys]
    child = ast.parse((BENCH / "child.py").read_text())
    modules = {
        alias.asname or alias.name
        for node in ast.walk(child)
        if isinstance(node, ast.ImportFrom) and node.module == "qwick"
        for alias in node.names
    }
    for node in ast.walk(child):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            lookups.append((node.value.id, node.attr, True))
    return lookups


def test_every_function_the_bench_names_resolves():
    # a renamed or deleted function would otherwise fail only the traced
    # bench run, as an AttributeError in Tracer.install
    import importlib

    lookups = _bench_lookups()
    assert len(lookups) > 20 and any(needs for _, _, needs in lookups)  # the parse found both
    for module, name, needs_cache in lookups:
        fn = getattr(importlib.import_module(f"qwick.{module}"), name, None)
        assert callable(fn), f"{module}.{name}"
        if needs_cache:
            assert callable(getattr(fn, "cache_info", None)), f"{module}.{name}"


if __name__ == "__main__":
    print(json.dumps(_trace(Path(sys.argv[1]))))

"""Reachability guard: every function in src/qwick is entered by some
`verify` or `compute` path, or is named below with the reason it stays.

The traced run happens in a fresh interpreter (run this file as a script with
a work directory), so functions that run only at import count and no cache
warmed by other tests hides a call.  Code that no CLI path reaches and no
entry below names makes the test fail: delete it, or name it here.
"""

import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

TRACER_LAYER = "bench/tracer.py wraps it by name (LAYERS)"
VECTOR_FILE = "vector-file helper the tests use; compute reads and writes the dict form"
ALGEBRA = "polynomial algebra of the two-route tests in tests/test_wick.py"
FILE_FORMAT = "file format no CLI command reads or writes; its boundary tests keep it"

# qualified name -> why it stays in src/qwick although no CLI path enters it
NEVER_ENTERED = {
    "fock.creation_matrix": TRACER_LAYER,
    "fock.annihilation_matrix": TRACER_LAYER,
    "fock._operator_matrix": "builds creation_matrix and annihilation_matrix",
    "fock.degree_offsets": "block offsets of creation_matrix and annihilation_matrix",
    "wick.moment": TRACER_LAYER,
    "fock.GradedVector.degrees": VECTOR_FILE,
    "fock.GradedVector.to_json": VECTOR_FILE,
    "fock.GradedVector.from_json": VECTOR_FILE,
    "wick.adjoint": ALGEBRA,
    "wick.WickPolynomial.from_word": ALGEBRA,
    "wick.WickPolynomial.creator": ALGEBRA,
    "wick.WickPolynomial.annihilator": ALGEBRA,
    "wick.WickPolynomial.__add__": ALGEBRA,
    "wick.WickPolynomial.__sub__": ALGEBRA,
    "wick.WickPolynomial.scale": ALGEBRA,
    "wick.WickPolynomial.to_json_dict": FILE_FORMAT,
    "wick.WickPolynomial.to_json": FILE_FORMAT,
    "wick.WickPolynomial.from_json_dict": FILE_FORMAT,
    "wick.WickPolynomial.from_json": FILE_FORMAT,
    "series.SeriesSpec.to_json_dict": FILE_FORMAT,
    "series.SeriesSpec.from_json_dict": FILE_FORMAT,
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


if __name__ == "__main__":
    print(json.dumps(_trace(Path(sys.argv[1]))))

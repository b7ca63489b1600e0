"""Property tests for the JSON wire formats: round-trips are bit-exact, a
malformed vector file makes `compute` exit 2 before writing anything, and a
`verify --config` file gives the report of the same flags or exits 2."""

import argparse
import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qwick.cli as cli
from qwick.fock import GradedVector, QContext
from qwick.suites import RunConfig

# finite floats, with -0.0 and subnormals among them
FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGES = st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e308])
ENTRY = st.one_of(FINITE, EDGES)
Q = st.floats(min_value=-0.999, max_value=0.999)
FEW = settings(max_examples=25, deadline=None)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def vectors(draw) -> GradedVector:
    dim = draw(st.integers(1, 3))
    max_degree = draw(st.integers(0, 3))
    degrees = draw(st.sets(st.integers(0, max_degree)))
    comps = {n: draw(st.lists(ENTRY, min_size=dim**n, max_size=dim**n)) for n in degrees}
    return GradedVector(QContext(draw(Q), dim, max_degree), comps)


@FEW
@given(vectors())
def test_graded_vector_round_trip_is_bit_exact(f):
    # the path compute takes: the dict form as JSON text, read back by the CLI
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.json"
        path.write_text(json.dumps(f.to_json_dict()))
        g = GradedVector.from_json_dict(cli._load_json(str(path)))
    assert _bits([g.ctx.q]) == _bits([f.ctx.q])
    assert (g.ctx.dim, g.ctx.max_degree) == (f.ctx.dim, f.ctx.max_degree)
    assert list(f.components) == list(g.components)
    for n in f.components:
        assert _bits(f.component(n)) == _bits(g.component(n))


FAULTS = (
    "length", "degree", "entry", "dim", "max_degree", "q", "components", "object",
    "string-entry", "bool-entry", "nested", "object-entry",
    "leading-zero-key", "underscore-key", "space-key", "repeated-key", "huge-int-entry",
)
HUGE = 10**400  # a JSON integer literal no double holds
# degree-key faults: int() once read "00" as a second degree 0 (the later
# entry won), "1_0" as degree 10 and " 1" as degree 1
KEY_FAULTS = {
    "leading-zero-key": {"0": [1.0], "00": [2.0]},
    "underscore-key": {"1_0": [1.0]},
    "space-key": {" 1": [1.0]},
}


def _corrupt(data: dict, fault: str, bad_entry: float) -> str:
    """The vector file text of data with the fault put in."""
    dim, max_degree = data["dim"], data["max_degree"]
    components = data["components"]
    if fault == "length":
        n = max_degree
        components[str(n)] = [0.5] * (dim**n + 1)
    elif fault == "degree":
        n = max_degree + 1
        components[str(n)] = [0.5] * dim**n
    elif fault == "entry":
        components["0"] = [bad_entry]
    # entry faults: np.asarray once read "1.5" as 1.5, true as 1.0 and a
    # nested list of the right total length as flat
    elif fault == "string-entry":
        components["0"] = ["1.5"]
    elif fault == "bool-entry":
        components["0"] = [True]
    elif fault == "nested":
        components[str(max_degree)] = [[0.5]] * dim**max_degree
    elif fault == "object-entry":
        components["0"] = [{"a": 1}]
    # float() of it raised OverflowError, which exited 1 with a traceback
    elif fault == "huge-int-entry":
        components["0"] = [HUGE]
    # header faults: a truncating int() once read 2.7 as 2 and true as 1
    elif fault == "dim":
        data["dim"] = True if dim == 1 else dim + 0.7
    elif fault == "max_degree":
        data["max_degree"] = max_degree + 0.9
    elif fault == "q":
        data["q"] = str(data["q"])
    elif fault == "components":
        data["components"] = list(components.values())
    elif fault in KEY_FAULTS:
        data.update(dim=1, max_degree=10, components=KEY_FAULTS[fault])
    elif fault == "repeated-key":
        # json once kept the later value: this file had dual norm 2.0
        data.update(dim=1, max_degree=10, components={"0": [1.0]})
        return json.dumps(data).replace('{"0": [1.0]}', '{"0": [1.0], "0": [2.0]}')
    else:
        data = [data]
    return json.dumps(data)


@FEW
@given(
    vectors(),
    st.sampled_from(FAULTS),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.sampled_from([["wick-mul"], ["norm"], ["norm", "--side", "test"]]),
)
@example(GradedVector(QContext(0.5, 2, 1), {}), "string-entry", 0.0, ["norm"])
@example(GradedVector(QContext(0.5, 2, 1), {}), "bool-entry", 0.0, ["wick-mul"])
@example(GradedVector(QContext(0.5, 2, 1), {}), "nested", 0.0, ["norm", "--side", "test"])
@example(GradedVector(QContext(0.5, 2, 1), {}), "object-entry", 0.0, ["norm"])
@example(GradedVector(QContext(0.5, 2, 1), {}), "leading-zero-key", 0.0, ["norm"])
@example(GradedVector(QContext(0.5, 2, 1), {}), "underscore-key", 0.0, ["norm", "--side", "test"])
@example(GradedVector(QContext(0.5, 2, 1), {}), "space-key", 0.0, ["norm"])
@example(GradedVector(QContext(0.5, 2, 1), {}), "repeated-key", 0.0, ["norm"])
@example(GradedVector(QContext(0.5, 2, 1), {}), "huge-int-entry", 0.0, ["wick-mul"])
def test_compute_rejects_malformed_vector_before_output(f, fault, bad_entry, operation):
    text = _corrupt(f.to_json_dict(), fault, bad_entry)
    with tempfile.TemporaryDirectory() as tmp:
        bad, good = Path(tmp) / "bad.json", Path(tmp) / "good.json"
        bad.write_text(text)
        good.write_text(json.dumps(f.to_json_dict()))
        inputs = [str(bad), str(good)] if operation[0] == "wick-mul" else [str(bad)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["compute", operation[0], *inputs, *operation[1:]])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error:")


# -- verify --config: a file says what the flags say --------------------------

SCALE = st.floats(min_value=1.0, max_value=4.0)


@st.composite
def scale_pairs(draw) -> list:
    s = draw(st.one_of(SCALE, st.integers(1, 4)))
    r = s + draw(st.one_of(st.floats(min_value=0.01, max_value=3.0), st.integers(1, 3)))
    alpha = draw(st.lists(st.one_of(st.floats(min_value=1.0, max_value=3.0), st.just(2)), max_size=1))
    return [r, s, *alpha]


@st.composite
def configs(draw) -> dict:
    """A valid config file: trials (the default 500 is slow) and any subset of
    the other keys, ints where ints belong."""
    values = {
        "q": draw(st.one_of(Q, st.just(0))),
        "dim": draw(st.integers(1, 2)),
        "max_degree": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 2**32)),
        "scales": draw(st.lists(scale_pairs(), min_size=1, max_size=2)),
    }
    keys = draw(st.sets(st.sampled_from(sorted(values))))
    return {"trials": draw(st.integers(1, 3)), **{key: values[key] for key in keys}}


def _flags(cfg: dict) -> list[str]:
    argv = []
    for key, value in cfg.items():
        if key == "scales":
            value = ",".join(":".join(repr(x) for x in pair) for pair in value)
        argv.append(f"--{key.replace('_', '-')}={value}")  # = keeps "-1e-48" a value
    return argv


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _verify_with_config(data, suite: str) -> tuple[int, str, str]:
    """Run verify with data, or JSON text, as its config file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        return _run(["verify", "--suite", suite, "--config", str(path)])


@FEW
@given(configs(), st.sampled_from(["theorem43", "moments"]))
def test_config_file_gives_the_report_of_its_flags(cfg, suite):
    from_file = _verify_with_config(cfg, suite)
    from_flags = _run(["verify", "--suite", suite, *_flags(cfg)])
    assert from_file[0] == 0
    assert from_file == from_flags


# one value per RunConfig field, each away from the field's default
ONE_KEY = {"q": 0.25, "dim": 3, "max_degree": 3, "trials": 4, "seed": 7, "scales": [[3, 1.5, 1.5]]}


def test_verify_options_are_the_run_config_fields():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    verify = commands.choices["verify"]
    options = {opt for action in verify._actions for opt in action.option_strings}
    fields = {"--" + f.name.replace("_", "-") for f in dataclasses.fields(RunConfig)}
    assert options == fields | {"--suite", "--config", "--out", "--csv", "-h", "--help"}
    assert set(ONE_KEY) == {f.name for f in dataclasses.fields(RunConfig)}


@pytest.mark.parametrize("key", sorted(ONE_KEY))
def test_each_config_key_gives_the_stdout_of_its_flag(key):
    # the property test above samples subsets of keys, so it can miss one
    cfg = {key: ONE_KEY[key]}
    from_file = _verify_with_config(cfg, "theorem43")
    from_flags = _run(["verify", "--suite", "theorem43", *_flags(cfg)])
    assert from_file[0] == 0
    assert from_file == from_flags
    assert from_file[1] != _run(["verify", "--suite", "theorem43"])[1]  # the key took effect


INF, NAN = float("inf"), float("nan")  # JSON's Infinity and NaN extensions
# each key with values of the wrong type or out of range
BAD_VALUES = {
    "q": ["0.5", True, None, [0.5], 1.5, HUGE],
    "dim": [2.5, "2", True, None, 2.0, 0],
    "max_degree": [1.5, "3", False, [3], -1],
    "trials": [2.5, "2", True, None, 0],
    "seed": [1.5, "1", True, None, -1],
    "scales": [3, "2:1", [], [2, 1], [[2]], [["2", 1]], [[3, 2, 1, 1]], [[2, True]], [[1, 2]],
               [[INF, 1]], [[NAN, 1]], [[2, 1, INF]], [[2, 1, NAN]], [[HUGE, 1]]],
}


@FEW
@given(
    configs(),
    st.sampled_from(sorted(BAD_VALUES)).flatmap(
        lambda key: st.tuples(st.just(key), st.sampled_from(BAD_VALUES[key]))
    ),
)
@example({}, ("trials", 2.5))
@example({}, ("dim", "2"))
@example({}, ("q", HUGE))
@example({}, ("scales", [[HUGE, 1]]))
@example({}, ("scales", []))  # divmod(trials, 0) once raised ZeroDivisionError
@example({}, ("seed", -1))
@example({"trials": 3}, ("trails", 5))  # an unknown key
def test_malformed_config_file_exits_2_before_output(cfg, fault):
    key, bad = fault
    code, out, err = _verify_with_config({**cfg, key: bad}, "theorem43")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@FEW
@given(configs().flatmap(lambda cfg: st.tuples(st.just(cfg), st.sampled_from(sorted(cfg)))))
@example(({"trials": 1}, "trials"))  # json once kept the later value: 3 trials ran
def test_config_file_with_a_repeated_key_exits_2_before_output(case):
    cfg, key = case
    again = json.dumps(3 if key == "trials" else cfg[key])
    text = f"{json.dumps(cfg)[:-1]}, {json.dumps(key)}: {again}}}"
    code, out, err = _verify_with_config(text, "theorem43")
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("data", ([], 1, "trials"))
def test_config_file_must_hold_an_object(data):
    code, out, err = _verify_with_config(data, "theorem43")
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("phi", ({"0": 1.0}, [[1.0, 0.0]], [1.0, "0"], [True, 0.0], 1.0))
def test_moments_phi_must_be_a_flat_number_list(phi):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "phi.json"
        path.write_text(json.dumps(phi))
        code, out, err = _run(["compute", "moments", "--phi", str(path), "--order", "2"])
    assert (code, out) == (2, "")
    assert err.startswith("error:")

"""Property tests for the JSON wire formats: round-trips are bit-exact, and a
malformed vector file makes `compute` exit 2 before writing anything."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qwick.cli as cli
from qwick.fock import GradedVector, QContext
from qwick.series import SeriesSpec
from qwick.wick import NormalWord, WickPolynomial

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


@st.composite
def polynomials(draw) -> WickPolynomial:
    dim = draw(st.integers(1, 3))
    arguments = st.lists(st.lists(ENTRY, min_size=dim, max_size=dim), max_size=2)
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        word = NormalWord.build(draw(arguments), draw(arguments))
        terms[word] = draw(ENTRY)
    return WickPolynomial(terms)


@FEW
@given(vectors())
def test_graded_vector_round_trip_is_bit_exact(f):
    g = GradedVector.from_json(f.to_json())
    assert _bits([g.ctx.q]) == _bits([f.ctx.q])
    assert (g.ctx.dim, g.ctx.max_degree) == (f.ctx.dim, f.ctx.max_degree)
    assert f.degrees() == g.degrees()
    for n in f.degrees():
        assert _bits(f.component(n)) == _bits(g.component(n))


@FEW
@given(polynomials())
def test_wick_polynomial_round_trip_is_bit_exact(p):
    # repr gives each double its own text, so equal text means equal bits
    text = p.to_json()
    assert WickPolynomial.from_json(text).to_json() == text


@FEW
@given(st.lists(ENTRY, max_size=6), st.floats(min_value=5e-324, allow_infinity=False))
def test_series_spec_round_trip_is_bit_exact(coefficients, radius):
    spec = SeriesSpec(tuple(coefficients), radius)
    again = SeriesSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
    assert _bits(again.coefficients) == _bits(spec.coefficients)
    assert _bits([again.radius]) == _bits([spec.radius])


FAULTS = ("length", "degree", "entry")


def _corrupt(data: dict, fault: str, bad_entry: float) -> dict:
    dim, max_degree = data["dim"], data["max_degree"]
    components = data["components"]
    if fault == "length":
        n = max_degree
        components[str(n)] = [0.5] * (dim**n + 1)
    elif fault == "degree":
        n = max_degree + 1
        components[str(n)] = [0.5] * dim**n
    else:
        components["0"] = [bad_entry]
    return data


@FEW
@given(
    vectors(),
    st.sampled_from(FAULTS),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.sampled_from([["wick-mul"], ["norm"], ["norm", "--side", "test"]]),
)
def test_compute_rejects_malformed_vector_before_output(f, fault, bad_entry, operation):
    text = json.dumps(_corrupt(f.to_json_dict(), fault, bad_entry))
    with tempfile.TemporaryDirectory() as tmp:
        bad, good = Path(tmp) / "bad.json", Path(tmp) / "good.json"
        bad.write_text(text)
        good.write_text(f.to_json())
        inputs = [str(bad), str(good)] if operation[0] == "wick-mul" else [str(bad)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["compute", operation[0], *inputs, *operation[1:]])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error:")

"""The value classes: fock's QContext and GradedVector, series' SeriesSpec and
ConvergenceCertificate, and suites' RunConfig, Report and Suite.  Each
immutable one is a namedtuple whose __new__ checks its fields, from
positional and keyword arguments alike; GradedVector is a slotted class with
identity equality that refuses attribute assignment.  None of them needs the
dataclasses module, which every CLI call would otherwise import."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qwick
from qwick.fock import GradedVector, QContext
from qwick.series import ConvergenceCertificate, SeriesSpec
from qwick.suites import DEFAULT_SCALES, Report, RunConfig, Suite

RUN_DEFAULTS = dict(q=0.5, dim=2, max_degree=6, trials=500, seed=1, scales=DEFAULT_SCALES)

# (class, every field by name, the message its check raises)
REFUSED = (
    (QContext, dict(q=1.0, dim=2, max_degree=3), "|q| < 1"),
    (QContext, dict(q=math.nan, dim=2, max_degree=3), "|q| < 1"),
    (QContext, dict(q=0.5, dim=0, max_degree=3), "dim >= 1, got 0"),
    (QContext, dict(q=0.5, dim=2, max_degree=-1), "max_degree >= 0, got -1"),
    (SeriesSpec, dict(coefficients=(1.0,), radius=0.0), "radius must be positive and finite"),
    (SeriesSpec, dict(coefficients=(1.0,), radius=math.inf), "radius must be positive and finite"),
    (SeriesSpec, dict(coefficients=(1.0, math.nan), radius=1.0), "coefficients must be finite"),
    (ConvergenceCertificate, dict(s=1.0, norm_s=0.1, r=1.0, contraction=0.5), "r > s >= 1"),
    (ConvergenceCertificate, dict(s=0.5, norm_s=0.1, r=2.0, contraction=0.5), "r > s >= 1"),
    (ConvergenceCertificate, dict(s=1.0, norm_s=0.1, r=2.0, contraction=1.0), "contraction < 1"),
    (RunConfig, {**RUN_DEFAULTS, "q": -1.0}, "|q| < 1"),
    (RunConfig, {**RUN_DEFAULTS, "dim": 0}, "dim >= 1"),
    (RunConfig, {**RUN_DEFAULTS, "trials": 0}, "trials >= 1"),
    (RunConfig, {**RUN_DEFAULTS, "seed": -1}, "seed >= 0"),
    (RunConfig, {**RUN_DEFAULTS, "scales": ()}, "at least one scale pair"),
    (
        RunConfig,
        {**RUN_DEFAULTS, "scales": ((math.inf, 1.0, 2.0),)},
        "inf > r > s >= 1, got (inf, 1.0)",
    ),
    (RunConfig, {**RUN_DEFAULTS, "scales": ((2.0, 1.0, 0.5),)}, "alpha must be finite and >= 1"),
)


@pytest.mark.parametrize("by", ("position", "keyword"))
@pytest.mark.parametrize("cls, fields, message", REFUSED)
def test_each_check_refuses_by_position_and_by_keyword(cls, fields, message, by):
    assert list(fields) == list(cls._fields)
    with pytest.raises(ValueError, match=re.escape(message)):
        cls(*fields.values()) if by == "position" else cls(**fields)


def test_series_spec_coerces_its_coefficients_to_a_tuple_of_floats():
    spec = SeriesSpec([1, np.float64(0.5)], radius=2.0)
    assert spec.coefficients == (1.0, 0.5)
    assert type(spec.coefficients) is tuple
    assert [type(a) for a in spec.coefficients] == [float, float]
    assert spec == SeriesSpec(coefficients=(1.0, 0.5), radius=2.0)


def test_run_config_keeps_its_defaults():
    cfg = RunConfig()
    assert cfg._asdict() == RUN_DEFAULTS
    assert RunConfig._field_defaults == RUN_DEFAULTS
    assert RunConfig(trials=3) == RunConfig(0.5, 2, 6, 3)


def test_report_and_suite_defaults():
    report = Report("s", {}, 1, 0.0, None, None, [], True)
    assert report.trial_values == ()
    suite = Suite(1e-9)
    assert (suite.draw, suite.check, suite.pair) == (None, None, None)
    assert suite.findings(None) == ([], {}, ())
    assert suite.shared == ("q", "dim", "max_degree")
    assert suite.degree(7) == 7


def test_qcontext_equality_and_hashing():
    ctx = QContext(0.5, 2, 3)
    assert ctx == QContext(q=0.5, dim=2, max_degree=3)
    assert hash(ctx) == hash(QContext(0.5, 2, 3))
    assert ctx != QContext(0.5, 2, 4) and ctx != QContext(-0.5, 2, 3)
    assert {ctx: 1}[QContext(0.5, 2, 3)] == 1
    assert repr(ctx) == "QContext(q=0.5, dim=2, max_degree=3)"


def test_value_classes_hold_no_instance_dict():
    ctx = QContext(0.5, 2, 3)
    report = Report("s", {}, 1, 0.0, None, None, [], True)
    for value in (ctx, SeriesSpec((1.0,), 1.0), RunConfig(), report, Suite(1e-9), GradedVector(ctx)):
        assert not hasattr(value, "__dict__")


def test_graded_vector_is_read_only_with_identity_equality():
    ctx = QContext(0.5, 2, 2)
    f = GradedVector(ctx, {1: [1.0, 2.0]})
    g = GradedVector(ctx, {1: [1.0, 2.0]})
    assert f == f and f != g
    assert len({f, g, f}) == 2
    for name, value in (("ctx", QContext(0.5, 2, 3)), ("components", {}), ("other", 1)):
        with pytest.raises(AttributeError, match=f"cannot assign to or delete field '{name}'"):
            setattr(f, name, value)
    with pytest.raises(AttributeError, match="cannot assign to or delete field 'ctx'"):
        del f.ctx
    assert f.ctx == ctx and list(f.components) == [1]


def test_graded_vector_constructor_defaults_to_zero():
    ctx = QContext(0.5, 2, 2)
    assert GradedVector(ctx).components == {}
    assert GradedVector(ctx=ctx, components={"2": np.ones((2, 2))}).components[2].shape == (4,)


def test_importing_the_cli_loads_no_dataclasses():
    src = str(Path(qwick.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import qwick.cli\n"
        "print(sorted(n for n in set(sys.modules) - before if n.split('.')[0] == 'dataclasses'))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"

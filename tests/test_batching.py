"""Batched calls compute every row bit for bit as the unbatched call on that
row, for each kernel with a batch axis and for each suite's check; and a
suite makes the same number of kernel calls whatever its trial count."""

import ast
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qwick import fock, scales, suites, wick
from qwick.fock import (
    GradedVector,
    QContext,
    annihilate,
    apply_pq,
    commutation_residual,
    contract,
    create,
    q_inner,
)
from qwick.scales import default_hplus_weights, f_dual_norm, g_norm, graded_tensor, vage_ratio
from qwick.series import certify_radius, wick_exp, wick_inverse
from qwick.suites import (
    DEFAULT_SCALES,
    SUITE_NAMES,
    SUITES,
    RunConfig,
    _trial_rng,
    run_suite,
    suite_streams,
)
from qwick.wick import moments, pairing_moments

SHAPES = ((1, 5), (2, 6), (3, 4))
QS = (-0.7, 0.0, 0.5)
ROWS = 4


def _same_row(batched: GradedVector, i: int, row: GradedVector) -> bool:
    """Row i of a batched vector equals row, entry for entry."""
    return batched.components.keys() == row.components.keys() and all(
        np.array_equal(batched.components[n][i], row.components[n]) for n in row.components
    )


@pytest.fixture(params=[(d, n, q) for d, n in SHAPES for q in QS], ids=str)
def batch(request):
    """Random rows of one context: graded vectors f and g, one-particle
    vectors phi and psi, each unbatched and stacked."""
    dim, max_degree, q = request.param
    ctx = QContext(q, dim, max_degree)
    rng = np.random.default_rng([dim, max_degree, int(10 * q) + 10])
    fs = [GradedVector.random(ctx, rng) for _ in range(ROWS)]
    gs = [GradedVector.random(ctx, rng) for _ in range(ROWS)]
    phis = rng.standard_normal((ROWS, dim))
    psis = rng.standard_normal((ROWS, dim))
    return ctx, fs, gs, GradedVector.stack(fs), GradedVector.stack(gs), phis, psis


def test_stack_rows_are_the_vectors(batch):
    _, fs, _, f, _, _, _ = batch
    for i, row in enumerate(fs):
        assert _same_row(f, i, row)
    with pytest.raises(ValueError):
        GradedVector.stack([fs[0], GradedVector.vacuum(fs[0].ctx)])


def test_apply_pq_and_contract_rows(batch):
    ctx, fs, _, f, _, phis, _ = batch
    for n in f.components:
        out = apply_pq(n, f.components[n], ctx)
        for i, row in enumerate(fs):
            assert np.array_equal(out[i], apply_pq(n, row.components[n], ctx))
        if n > 0:
            out = contract(phis, f.components[n], n, ctx.q)
            for i, row in enumerate(fs):
                assert np.array_equal(out[i], contract(phis[i], row.components[n], n, ctx.q))


def test_vector_kernel_rows(batch):
    ctx, fs, gs, f, g, phis, _ = batch
    pairs = [
        (q_inner(f, g), [q_inner(a, b) for a, b in zip(fs, gs)]),
        (vage_ratio(f, g, 2.0, 1.0), [vage_ratio(a, b, 2.0, 1.0) for a, b in zip(fs, gs)]),
    ]
    for weights in (None, default_hplus_weights(ctx.dim)):
        for base in ("q", "abs_q"):
            rows = [g_norm(a, 1.5, 2.0, weights, base) for a in fs]
            pairs.append((g_norm(f, 1.5, 2.0, weights, base), rows))
        rows = [f_dual_norm(a, 1.5, 2.0, weights) for a in fs]
        pairs.append((f_dual_norm(f, 1.5, 2.0, weights), rows))
    for batched, rows in pairs:
        assert batched.tolist() == rows

    vectors = [
        (graded_tensor(f, g), [graded_tensor(a, b) for a, b in zip(fs, gs)]),
        (wick_inverse(f), [wick_inverse(a) for a in fs]),
        (wick_exp(f), [wick_exp(a) for a in fs]),
        (create(phis, f), [create(p, a) for p, a in zip(phis, fs)]),
        (annihilate(phis, f), [annihilate(p, a) for p, a in zip(phis, fs)]),
    ]
    for batched, rows in vectors:
        for i, row in enumerate(rows):
            assert _same_row(batched, i, row)


def test_commutation_and_moment_rows(batch):
    ctx, fs, _, f, _, phis, psis = batch
    exchange = commutation_residual(phis, psis, f)
    for i in range(ROWS):
        assert exchange[i] == commutation_residual(phis[i], psis[i], fs[i])
    top = 2 * ctx.max_degree
    for route in (moments, pairing_moments):
        stacked = route(phis, top, ctx.q)
        for i in range(ROWS):
            assert stacked[:, i].tobytes() == route(phis[i], top, ctx.q).tobytes()


def test_unbatched_norms_are_floats():
    ctx = QContext(0.5, 2, 3)
    f = GradedVector.random(ctx, np.random.default_rng(0))
    for weights in (None, default_hplus_weights(2)):
        assert type(g_norm(f, 2.0, 2.0, weights)) is float
        assert type(f_dual_norm(f, 2.0, 2.0, weights)) is float
    assert type(q_inner(f, f)) is float


SAMPLING = [name for name in SUITE_NAMES if SUITES[name].draw]


@pytest.mark.parametrize("name", SAMPLING)
@pytest.mark.parametrize(
    "cfg", [RunConfig(), RunConfig(q=-0.7, dim=3, max_degree=4)], ids=("default", "negq-d3")
)
def test_suite_check_rows_match_single_draws(name, cfg):
    ctx, streams = suite_streams(name, cfg)
    for key, _, _, _, check in streams:
        draws = [SUITES[name].draw(ctx, _trial_rng(3, key, i)) for i in range(5)]
        assert check(ctx, draws) == [check(ctx, [x])[0] for x in draws]


@pytest.mark.parametrize("name", SAMPLING)
def test_draws_and_their_batches_are_sealed(name, monkeypatch):
    # a draw path that built a vector without its seal would leave a
    # writable component here, in the draw or in a batch stacked from it
    stacked = []
    stack = GradedVector.stack.__func__

    def recorded(cls, rows):
        stacked.append(stack(cls, rows))
        return stacked[-1]

    monkeypatch.setattr(GradedVector, "stack", classmethod(recorded))
    cfg = RunConfig(trials=3, q=-0.7, dim=3, max_degree=4)
    ctx, streams = suite_streams(name, cfg)
    vectors = []
    for key, indices, _, _, check in streams:
        draws = [SUITES[name].draw(ctx, _trial_rng(cfg.seed, key, i)) for i in indices]
        vectors += [x for draw in draws for x in draw if isinstance(x, GradedVector)]
        check(ctx, draws)
    assert bool(stacked) == bool(vectors)
    for vec in vectors + stacked:
        assert vec.components
        assert not any(arr.flags.writeable for arr in vec.components.values())


def _series_draws(ctx: QContext) -> list:
    return [SUITES["series"].draw(ctx, _trial_rng(1, "series", i)) for i in range(2)]


def _certify_with(monkeypatch, **fields):
    """Make the series suite's certify_radius give the real certificate with
    `fields` replaced, each a list of one value per row of the batch."""

    def patched(f, spec):
        cert = certify_radius(f, spec)._asdict()
        return SimpleNamespace(**{**cert, **{k: np.array(v) for k, v in fields.items()}})

    monkeypatch.setattr(suites, "certify_radius", patched)


def test_series_measures_each_draw_at_its_own_radius(monkeypatch):
    # verify certifies every draw at (s, r) = (1, 1.5), so _series never
    # keeps power norms at two radii; here the second draw moves to r = 2,
    # and each row must still get the value it gets alone at its own r.  A
    # contraction of 0.01 puts every value above the clip at 0.
    ctx = RunConfig().context()
    draws = _series_draws(ctx)

    def alone(draw, r):
        _certify_with(monkeypatch, r=[r], contraction=[0.01])
        return suites._series(ctx, [draw])[0]

    first, second = alone(draws[0], 1.5), alone(draws[1], 2.0)
    assert 0.0 < first < math.inf and 0.0 < second < math.inf
    assert second != alone(draws[1], 1.5)  # the radius matters
    _certify_with(monkeypatch, r=[1.5, 2.0], contraction=[0.01, 0.01])
    assert suites._series(ctx, draws) == [first, second]


@pytest.mark.parametrize(
    "fields",
    (
        # no contraction below 1 (the identity series then stops at once, so
        # it is not exact either)
        {"contraction": [1.5]},
        # r <= s / (1 - norm_s^2) = 4/3: no room between the scales
        {"r": [1.2], "contraction": [0.5]},
    ),
    ids=("contraction", "radius"),
)
def test_series_gives_inf_to_an_uncertified_draw(monkeypatch, fields):
    ctx = RunConfig().context()
    draws = _series_draws(ctx)
    _certify_with(monkeypatch, **fields)
    assert suites._series(ctx, draws[:1]) == [math.inf]
    # beside a certified draw, which keeps the value it gets alone
    certificate = {"r": [1.5], "contraction": [0.25]}
    _certify_with(monkeypatch, **{k: certificate[k] for k in fields})
    certified = suites._series(ctx, draws[1:])[0]
    _certify_with(monkeypatch, **{k: v + certificate[k] for k, v in fields.items()})
    assert suites._series(ctx, draws) == [math.inf, certified]


@pytest.mark.parametrize("name", ["vage", "theorem43"])
@pytest.mark.parametrize("trials", [1, 2])
def test_scale_suites_run_streams_without_trials(name, trials):
    # a pair that ran no trial reports no ratio and never supplies the
    # report's max_ratio and bound: vage at one trial once reported 0.0
    # against the bound of the empty pair (4, 1)
    cfg = RunConfig(trials=trials)
    assert cfg.scales == DEFAULT_SCALES
    report = run_suite(name, cfg)
    assert report.trials == trials and report.passed
    per_scale = report.params["per_scale"]
    assert [record["max_ratio"] for record in per_scale[trials:]] == [None] * (3 - trials)
    ran = per_scale[:trials]
    assert all(record["max_ratio"] > 0.0 for record in ran)
    bounds = [record.get("bound", record.get("c1")) for record in ran]
    worst = max(range(trials), key=lambda k: ran[k]["max_ratio"] - bounds[k])
    assert (report.max_ratio, report.bound) == (ran[worst]["max_ratio"], bounds[worst])


BATCHED = [
    "series", "inverse", "vage", "theorem43", "duality", "embedding", "adjointness",
    "commutation", "moments",
]
KERNELS = (scales.graded_tensor, fock.apply_pq, fock.contract, fock.slot_sum)


def _count_calls(monkeypatch, fns) -> dict:
    """Wrap each of fns wherever qwick binds it; the dict returned counts
    their calls by function name."""
    calls = {}
    modules = [m for name, m in list(sys.modules.items()) if name.startswith("qwick.")]
    for fn in fns:

        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] = calls.get(_fn.__name__, 0) + 1
            return _fn(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def _suite_kernel_calls(calls: dict, name: str, trial_counts) -> list[dict]:
    """The counted calls of one run of suite `name` at each trial count."""
    counts = []
    for trials in trial_counts:
        calls.clear()
        fock._pq_cached.cache_clear()  # every count includes the same cold builds
        run_suite(name, RunConfig(dim=2, max_degree=6, trials=trials))
        counts.append(dict(calls))
    return counts


def test_batched_suites_make_as_many_kernel_calls_at_any_trial_count(monkeypatch):
    calls = _count_calls(monkeypatch, KERNELS)
    for name in BATCHED:
        counts = _suite_kernel_calls(calls, name, (6, 60))
        assert counts[0] == counts[1], name
        assert counts[0], name


def test_wick_correspondence_makes_as_many_kernel_calls_at_any_trial_count(monkeypatch):
    # its checks group draws by argument counts and creator counts, so it
    # needs enough trials for every group to be drawn: 60 draw them all at
    # the default config
    builders = (fock.elementary_tensor, fock.tensor_product, fock.create, fock.annihilate)
    products = (wick.wick_mul_poly, wick.field_mul, wick.apply_to_fock, wick.vacuum_vector)
    calls = _count_calls(monkeypatch, KERNELS + builders + products)
    counts = _suite_kernel_calls(calls, "wick-correspondence", (60, 240))
    assert counts[0] == counts[1]
    assert counts[0].keys() >= {"elementary_tensor", "wick_mul_poly", "apply_to_fock", "create"}


class _CountedUfunc:
    """A ufunc whose `at` calls are counted under `name`; everything else
    passes through."""

    def __init__(self, ufunc, name: str, calls: dict):
        self._ufunc, self._name, self._calls = ufunc, name, calls

    def at(self, *args):
        self._calls[self._name] = self._calls.get(self._name, 0) + 1
        return self._ufunc.at(*args)

    def __call__(self, *args, **kwargs):
        return self._ufunc(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._ufunc, attr)


@pytest.mark.parametrize("name", SAMPLING)
def test_draws_only_draw(name, monkeypatch):
    """A draw calls the generator and builds no tensor: the products a
    check needs are made by the check, once for the whole stream."""
    cfg = RunConfig(q=-0.7, dim=3, max_degree=4)
    ctx, streams = suite_streams(name, cfg)
    with monkeypatch.context() as patched:
        calls = _count_calls(patched, (fock.tensor_product, fock.elementary_tensor))
        outer = np.outer

        def counted_outer(*args, **kwargs):
            calls["outer"] = calls.get("outer", 0) + 1
            return outer(*args, **kwargs)

        patched.setattr(np, "outer", counted_outer)
        patched.setattr(np, "add", _CountedUfunc(np.add, "add.at", calls))
        runs = []
        for key, _, _, _, check in streams:
            runs.append((check, [SUITES[name].draw(ctx, _trial_rng(1, key, i)) for i in range(20)]))
        assert calls == {}
        # the wrappers do see a check's calls
        if name == "wick-correspondence":
            for check, draws in runs:
                check(ctx, draws)
            assert calls.keys() >= {"tensor_product", "elementary_tensor", "add.at"}


def test_monomial_on_evaluates_each_argument_sub_list_once(monkeypatch):
    # from (v1..v4): the tail (v2, v3, v4), its sub-lists (v3, v4), (v2, v4)
    # and (v2, v3), then (v4) and (v3): 7 creations, where a recursion
    # without a memo makes 12
    calls = _count_calls(monkeypatch, (fock.create,))
    ctx = QContext(0.5, 2, 6)
    rng = np.random.default_rng(4)
    f = GradedVector.random(ctx, rng, range(3))
    suites._monomial_on(list(rng.standard_normal((4, 2))), f, ctx.q)
    assert calls == {"create": 7}


@pytest.mark.parametrize("dim,top", ((2, 6), (3, 4)))
def test_commutation_findings_annihilate_each_degrees_columns_once(monkeypatch, dim, top):
    """Wrap annihilate wherever qwick binds it and count its calls on a
    degree's identity columns: the basis residuals at every psi and the swap
    constant read one annihilation per degree."""
    lowered = {}
    modules = [m for name, m in list(sys.modules.items()) if name.startswith("qwick.")]
    fn = fock.annihilate

    def counted(phi, f):
        [(n, arr)] = f.components.items()
        if arr.shape == (dim**n, dim**n) and np.array_equal(arr, np.eye(dim**n)):
            lowered[n] = lowered.get(n, 0) + 1
        return fn(phi, f)

    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, counted)
    SUITES["commutation"].findings(QContext(0.5, dim, top))
    assert lowered == {n: 1 for n in range(top)}


# products that may sum a row in another order than the 1-D product does
REORDERING_PRODUCTS = {"dot", "matmul", "einsum", "inner", "tensordot"}
# the stacked kernel-by-table product, each row summed as alone
MATMUL_HOME = ("wick", "apply_to_fock")


# dense solves: the symmetrizer is nearly singular as |q| -> 1, so src applies
# it and never inverts it; a solve is a test oracle only
DENSE_SOLVES = {"inv", "pinv", "lstsq"}


def _is_dense_solve(name: str) -> bool:
    # "solve" also covers cho_solve, lu_solve, solve_triangular, ...
    return name in DENSE_SOLVES or "solve" in name


def _dense_solves(tree: ast.AST) -> list[str]:
    """The dense solves a module reaches, as an attribute or an imported
    name.  A bare call `solve(a, b)` needs one of the two to bind its name
    first, so `from numpy.linalg import solve` is caught at the import; bare
    names are not matched, as locals such as `inv` are no solve."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        else:
            continue
        if _is_dense_solve(name):
            found.append(f"{node.lineno} {name}")
    return found


def _src_trees():
    src = Path(fock.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        yield path, ast.parse(path.read_text())


def test_no_dense_solve_in_src():
    found = [f"{path.name}:{hit}" for path, tree in _src_trees() for hit in _dense_solves(tree)]
    assert found == []


@pytest.mark.parametrize(
    "source",
    (
        "x = np.linalg.solve(a, b)",
        "from numpy.linalg import solve\nx = solve(a, b)",
        "from numpy.linalg import pinv as p",
        "from scipy.linalg import cho_solve",
        "import scipy.linalg.solve_triangular",
        "x = scipy.linalg.lu_solve(lu, b)",
        "lstsq = np.linalg.lstsq\nx = lstsq(a, b)",
    ),
)
def test_the_dense_solve_guard_sees_every_spelling(source):
    assert _dense_solves(ast.parse(source))


def _nodes_outside(path: Path, tree: ast.AST, home: tuple[str, str]) -> list[ast.AST]:
    """The nodes of a module's tree, less those of the function home names
    as (module stem, function name)."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and (path.stem, node.name) == home:
            inside |= {id(sub) for sub in ast.walk(node)}
    return [node for node in ast.walk(tree) if id(node) not in inside]


def test_row_products_are_vecdot_or_vecmat():
    # a stacked matmul row product, or a gemm or einsum, gives a row other
    # bits than np.vecdot / np.vecmat; only apply_to_fock's kernel @ table is
    # a matrix product
    found = []
    for path, tree in _src_trees():
        for node in _nodes_outside(path, tree, MATMUL_HOME):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno} @")
            elif isinstance(node, ast.Attribute) and node.attr in REORDERING_PRODUCTS:
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert found == []


# the one JSON writer: json's indented encoder runs in Python, several calls
# per entry, so every file and stdout document goes through cli._json_text
JSON_WRITER = ("cli", "_json_text")


def _indented_json_calls(nodes) -> list[int]:
    """The lines of the json.dump / json.dumps calls among nodes that pass
    indent, or a ** mapping that may hold it."""
    found = []
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("dump", "dumps") and any(k.arg in ("indent", None) for k in node.keywords):
            found.append(node.lineno)
    return found


def test_json_is_indented_only_by_the_writer():
    # the writer's own json.dumps call counts here if it is renamed or moved
    found = []
    for path, tree in _src_trees():
        outside = _nodes_outside(path, tree, JSON_WRITER)
        found += [f"{path.name}:{line}" for line in _indented_json_calls(outside)]
    assert found == []


@pytest.mark.parametrize(
    "source",
    (
        "json.dumps(x, indent=2)",
        "from json import dump\ndump(x, handle, sort_keys=True, indent=1)",
        "json.dumps(x, **options)",
    ),
)
def test_the_json_writer_guard_sees_every_spelling(source):
    assert _indented_json_calls(ast.walk(ast.parse(source)))


# the value classes are namedtuples and a slotted GradedVector: importing
# dataclasses costs every CLI call its import and one exec per class, and
# _make and _replace build a namedtuple without running __new__'s checks
UNCHECKED_BUILDERS = {"_make", "_replace"}


def _dataclass_uses(tree: ast.AST) -> list[str]:
    """The dataclasses imports and the _make / _replace calls of a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.alias) and node.name.split(".")[0] == "dataclasses":
            found.append(f"{node.lineno} import {node.name}")
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            found.append(f"{node.lineno} from dataclasses")
        elif isinstance(node, ast.Attribute) and node.attr in UNCHECKED_BUILDERS:
            found.append(f"{node.lineno} .{node.attr}")
    return found


def test_no_dataclass_or_unchecked_namedtuple_in_src():
    found = [f"{path.name}:{hit}" for path, tree in _src_trees() for hit in _dataclass_uses(tree)]
    assert found == []


@pytest.mark.parametrize(
    "source",
    (
        "import dataclasses",
        "from dataclasses import dataclass",
        "from dataclasses import field as f",
        "import dataclasses as dc",
        "cfg = cfg._replace(q=0.3)",
        "ctx = QContext._make(values)",
    ),
)
def test_the_dataclass_guard_sees_every_spelling(source):
    assert _dataclass_uses(ast.parse(source))

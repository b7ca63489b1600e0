"""Report bytes are pinned: a fixed (config, seed) gives the same JSON report.

Each suite digest is the sha256 of `json.dumps(report.to_json_dict(),
indent=2, sort_keys=True)`, the text `qwick verify --out` writes for one
suite.  The CLI digests are the sha256 of the files `qwick verify --out` and
`qwick compute ... --out` write, so they pin the writer as well.  A change
that moves report bytes on purpose declares the move and updates the digests
it moves in the same diff.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qwick
import qwick.cli as cli
from qwick.fock import GradedVector, QContext
from qwick.suites import SUITE_NAMES, RunConfig, run_suite

DEFAULT = RunConfig(trials=8, seed=0)
NEGATIVE_Q = RunConfig(q=-0.7, dim=3, max_degree=4, trials=9, seed=0)

DIGESTS = {
    DEFAULT: {
        "commutation": "0468cc77f8a5c881a3fc1fede4edd9dd11452e391b04b7d35722d8cc31037a60",
        "positivity": "303cbac0a25ad280439657ee233920ae0866eca4a72f75c0468f80b97cd0d190",
        "adjointness": "bcbc9eee16e3488e319dcf8df9540e30f083c29acc58b735d992f358be8e988a",
        "macmahon": "4a0dc5a62f8fd1a16f0787cd5e0058a58f85e071d37240c24a758f1111f10ee6",
        "moments": "725bc541d3ae3b0c1870814a280d880391e7f324341bbecdee68895bdf0e5b90",
        "wick-correspondence": "8bfe401e474f5ab4801edcaa73e7c63ece50588443c19cb6216353d37d75b29d",
        "hermite": "e90b3b10f39a443ec1ac9158022a399676b56317f77db6c61439931c8d09d8f1",
        "embedding": "2563dca79a61b1709ec2ea48658dba3c988e16579741f3be80a8568503c2f6e2",
        "lemma53": "83f6f8cc04b4448623a4e447980623d5de3134a50afee1d0b249d0ca2978928a",
        "theorem43": "4e6d2ee4a3ecbbaf7b77ba683fa1f8e01932884bce6fe15b962aaca1147cc3b9",
        "vage": "789a217441479b5f0ef6ede3073b37023ed931fe8cb6a6ba3c0cfec52981ad9e",
        "duality": "077fb830623368e3f632c0ea0ee38fc696f62130ec8869821a76cfde11285b04",
        "inverse": "89da02abdc32fb978da2ce1e5d7859adbf55e01534d01f1d5828520dbd83de58",
        "series": "fd879e9fccfc5c25c555f74dc5f37d08cae5c402afcd7afe09a19b13a179af81",
    },
    NEGATIVE_Q: {
        "commutation": "a3ddc74ba341595f5744e7e30bf9535a8f681c4d36630520a4ce0ca370a98909",
        "positivity": "bbdb3188df4e22b163d67116d0a7573ea572454a2d560248326aafd73c8686f3",
        "adjointness": "2224ab2d46e68e5198af2ef9642595312d08ff871ff813913821cc594530ff6d",
        "macmahon": "e54a321e08cbe255e122d9846381bc36edaaf5a0946e8e140675409a04ace56c",
        "moments": "a7c22ce046591152babb88a4def0aba5e5dcdceed8eb5b0b8b7d1e13624158ff",
        "wick-correspondence": "1cbedbb25b84248f92469e7dbeddcece5bb02b98af9e3e40e4eeb33488050c36",
        "hermite": "d0b5cd26d1a1de139fd4cb87fe2a114a9018dd831c3e46cdf0208d8135efbba3",
        "embedding": "1641fa527e71b19f7d71a2360243c36bce3256d13b87a39ca33f1b29538148a4",
        "lemma53": "214cea95c15fb74fc53cd95c0cb8d5b5a0beec924a38b606fa18c75272b0e0ab",
        "theorem43": "114aa878b4829dc556057a909dee3696b885f94fe7c937e4aa5177289b672bf9",
        "vage": "15d8edaf73b293b6936820936c1811590657409c0f4893540385e4fabf89bd17",
        "duality": "99668e1e570d9af409a057a76b3ad51e63175c0ebcdc82baf566eb6d3357c8a6",
        "inverse": "4b49ce87430ef74e547538a8deb4d304437e2b5d32b3721979b106d1a0bb8642",
        "series": "f1c08fb338d436ab8313f2ba8f5b991f95b40c3ca5e0c1e2562b08193aba7246",
    },
}


def test_every_suite_has_a_digest_at_each_config():
    for digests in DIGESTS.values():
        assert tuple(digests) == SUITE_NAMES


@pytest.mark.parametrize("cfg", DIGESTS, ids=("default", "negative-q"))
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_report_bytes_are_pinned(cfg, name):
    text = json.dumps(run_suite(name, cfg).to_json_dict(), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[cfg][name]


# each --out file, for `verify --suite all` at the default config and for
# compute on seeded d=2, N=6 vectors (see _compute_inputs)
CLI_DIGESTS = {
    "verify": "20f85fb2dbe210c59232d4ec0cc149f2866cbf7b4084794fb340e8550a18c3bf",
    "wick-mul": "c9e31af680d42805fe7ba3dd1b1f7275002e4eab3f624d60008232198a6339a0",
    "wick-inv": "336639073f7f21503aac0509397fa0de0a990d31dcf3beb3ed2d5e61d9856f5c",
    "wick-exp": "0b6529e494bb7ec549af73f74ea3b699ae7b81e26febaa6166c4d307dc88cd0a",
    "norm": "765637e64ff92ae1ce63de7f5ef742006f51bc4c292189799697722968161d5c",
    "moments": "d6d249a263e94684ceae73695a680e568eaa126257865720d57ed7cdd82b322a",
}


def _compute_inputs(folder) -> dict[str, str]:
    """left.json and right.json, standard-normal vectors at q = 0.5, d = 2,
    N = 6, and phi.json, a standard-normal one-particle vector, all seeded."""
    rng = np.random.default_rng(26)
    ctx = QContext(0.5, 2, 6)
    files = {name: str(folder / f"{name}.json") for name in ("left", "right", "phi")}
    for name in ("left", "right"):
        vector = GradedVector.random(ctx, rng).to_json_dict()
        (folder / f"{name}.json").write_text(json.dumps(vector))
    (folder / "phi.json").write_text(json.dumps(rng.standard_normal(2).tolist()))
    return files


def _cli_argv(name: str, files: dict[str, str]) -> list[str]:
    left, right, phi = files["left"], files["right"], files["phi"]
    return {
        "verify": ["verify", "--suite", "all"],
        "wick-mul": ["compute", "wick-mul", left, right],
        "wick-inv": ["compute", "wick-inv", left],
        "wick-exp": ["compute", "wick-exp", left],
        "norm": ["compute", "norm", left, "--side", "test", "--r", "2", "--weights", "default"],
        "moments": ["compute", "moments", "--phi", phi, "--order", "10"],
    }[name]


@pytest.mark.parametrize("name", CLI_DIGESTS)
def test_cli_file_bytes_are_pinned(name, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert cli.main(_cli_argv(name, _compute_inputs(tmp_path)) + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CLI_DIGESTS[name]


# the --out file of `verify --suite all --seed 1` at each of the benchmark's
# verify configs (bench/workloads.py), written as the benchmark writes it: by
# a fresh interpreter with no BLAS thread setting, so that qwick loads numpy
# with one OpenBLAS thread.  A threaded eigvalsh rounds positivity's degree-8
# spectrum by the core count.
BENCH_VERIFY_DIGESTS = {
    ("--trials", "40"): "bb16da920e727ae826ea336d259731aa796b367f15dadbfe358b830321cb78b3",
    ("--max-degree", "8", "--trials", "12"):
        "131773eb10ade332087b0a9b6709c82188fc7713184abec2f753e7e4ad78d6fc",
}


def _fresh_cli(argv: list[str]) -> None:
    """Run qwick's CLI in a fresh interpreter with no BLAS thread setting."""
    env = {k: v for k, v in os.environ.items() if k not in qwick._BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = str(Path(qwick.__file__).resolve().parents[1])
    cli_call = [sys.executable, "-m", "qwick.cli", *argv]
    result = subprocess.run(cli_call, capture_output=True, env=env)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("config", BENCH_VERIFY_DIGESTS, ids=("verify-default", "verify-deep"))
def test_bench_verify_file_bytes_are_pinned(config, tmp_path):
    out = tmp_path / "report.json"
    _fresh_cli(["verify", "--suite", "all", "--seed", "1", *config, "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BENCH_VERIFY_DIGESTS[config]


def test_in_process_report_matches_the_cli_at_degree_8(tmp_path):
    # the root conftest.py loads qwick, so numpy, with one OpenBLAS thread,
    # as the CLI does; a threaded eigvalsh would round positivity's degree-8
    # spectrum by the core count
    argv = ["verify", "--suite", "positivity", "--seed", "1", "--max-degree", "8", "--trials", "12"]
    here, fresh = tmp_path / "here.json", tmp_path / "fresh.json"
    assert cli.main([*argv, "--out", str(here)]) == 0
    _fresh_cli([*argv, "--out", str(fresh)])
    assert here.read_bytes() == fresh.read_bytes()

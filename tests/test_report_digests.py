"""Report bytes are pinned: a fixed (config, seed) gives the same JSON report.

Each suite digest is the sha256 of `json.dumps(report.to_json_dict(),
indent=2, sort_keys=True)`, the text `qwick verify --out` writes for one
suite.  The CLI digests are the sha256 of the files `qwick verify --out` and
`qwick compute ... --out` write, so they pin the writer as well.  A change
that moves report bytes on purpose declares the move and updates the digests
it moves in the same diff.

Run as a script, `PYTHONPATH=src python tests/test_report_digests.py` prints
every pinned digest's key with its pinned and current values, marks the ones
that moved, and exits 1 if any did.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import qwick  # before numpy, which qwick then loads with one OpenBLAS thread, as the CLI does

import numpy as np
import pytest

import qwick.cli as cli
from qwick.fock import QContext
from qwick.suites import SUITE_NAMES, RunConfig, run_suite

from oracles import random_vector

DEFAULT = RunConfig(trials=8, seed=0)
NEGATIVE_Q = RunConfig(q=-0.7, dim=3, max_degree=4, trials=9, seed=0)

DIGESTS = {
    DEFAULT: {
        "commutation": "0468cc77f8a5c881a3fc1fede4edd9dd11452e391b04b7d35722d8cc31037a60",
        "positivity": "303cbac0a25ad280439657ee233920ae0866eca4a72f75c0468f80b97cd0d190",
        "adjointness": "bcbc9eee16e3488e319dcf8df9540e30f083c29acc58b735d992f358be8e988a",
        "macmahon": "4a0dc5a62f8fd1a16f0787cd5e0058a58f85e071d37240c24a758f1111f10ee6",
        "moments": "725bc541d3ae3b0c1870814a280d880391e7f324341bbecdee68895bdf0e5b90",
        "wick-correspondence": "5c07f272703b9fe0be7b77cd204a68cdde28616646fd572c09c5be2f0ab27f39",
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
        "wick-correspondence": "e126c3849ead1d90628b2373f07b7a8b140bc190526232cf7eca9ef70c4e5887",
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


def _report_digest(cfg: RunConfig, name: str) -> str:
    text = json.dumps(run_suite(name, cfg).to_json_dict(), indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("cfg", DIGESTS, ids=("default", "negative-q"))
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_report_bytes_are_pinned(cfg, name):
    assert _report_digest(cfg, name) == DIGESTS[cfg][name]


# a single mode near q = 1, q = 0 at d = 3, and degree 8 at negative q, each
# with 30 trials: configs the table above does not reach
Q_NEAR_ONE = RunConfig(q=0.9, dim=1, max_degree=5, trials=30, seed=5)
Q_ZERO = RunConfig(q=0.0, dim=3, max_degree=5, trials=30, seed=5)
DEGREE_8 = RunConfig(q=-0.7, dim=2, max_degree=8, trials=30, seed=5)
# every sampling suite whose draw is cut into graded vectors or carries more
# structure (argument arrays, exact integer entries)
DRAW_DIGESTS = {
    (Q_NEAR_ONE, "commutation"):
        "38ebd784f52d5199e469d2f081dadca0baa7c9a7b97822dc7f6ef690a4543058",
    (Q_NEAR_ONE, "adjointness"):
        "8f98349b2b225f424ee7ef03ef44bff1915b7b894f3371ca5f62f91f0a323c96",
    (Q_NEAR_ONE, "wick-correspondence"):
        "3bcc4f02b3d4baed98a0c6fad7f48a44758329050f088ac26e5d06a888122aee",
    (Q_NEAR_ONE, "embedding"):
        "5be71de31f2eeafe321fa08862f27bef8069ece20813ce6c7b4ac711b9778d5d",
    (Q_NEAR_ONE, "theorem43"):
        "ba42731c67d40e08433a6b479dae087e151313524afb4c45a2942dad7996005d",
    (Q_NEAR_ONE, "vage"):
        "d6443e083bc851107e1c863599f141cc30620af32e0d2e94890e3369129f5c87",
    (Q_NEAR_ONE, "duality"):
        "64e8a81e2bdb66adddeddcd76344325ea8a7ac2f7c3420a59e182ebba00a8fa0",
    (Q_NEAR_ONE, "inverse"):
        "a4c5ead76dc6dcf1abb81ccc0ddc289fdca32dc8e4627b518592ef3429884976",
    (Q_NEAR_ONE, "series"):
        "2563e89f3aa0a2cb43c2b1f31bbdb6410bac6434ae1b075ba6169c5daff29de2",
    (Q_ZERO, "commutation"):
        "09be385fd80ad61ea38a9b832561c4315c8a03ccc1f1666b124e608a9cc41e13",
    (Q_ZERO, "adjointness"):
        "ae39b27a38dd4c370d556548ba6b734185ce38f7016a4127084a8325bd6ed170",
    (Q_ZERO, "wick-correspondence"):
        "63fce7503d63bb282b6083bb5325573e8c5d75a7725e7862db9119b3333fc6dd",
    (Q_ZERO, "embedding"):
        "64bcf837c1479740cf691c88fb747b91cf77786bccc3d423ce9b618cbe66f62a",
    (Q_ZERO, "theorem43"):
        "1b3036ff9e12a89d68b546bc8a700609a956f80788302355b807d8cb74289158",
    (Q_ZERO, "vage"):
        "dae90487a9f8c1e3d2363124b4b3a1fa4bba291e7f58845565135e8098f2de8a",
    (Q_ZERO, "duality"):
        "b3eb8f452721e58cb16a40811e477762ea66e9455d795061452356b58c756feb",
    (Q_ZERO, "inverse"):
        "234ea99f7f3d3ba36c7be42dc207605e0186c10254fc0c7e016fbe69152e3e21",
    (Q_ZERO, "series"):
        "f2b3130044ad517fa8bf3eed9670e5cb869717d2a31528caf179cdb1a89caf38",
    (DEGREE_8, "commutation"):
        "842bd87315d79442d84ed60379877fa74f5ecf1805702aa28ed71265053fc244",
    (DEGREE_8, "adjointness"):
        "e1e7668e7ae96bc27954f976b6c3775c99e1d0ce8cd2de6a3582e0348fbd4aa5",
    (DEGREE_8, "wick-correspondence"):
        "cd11e8500ba1e2985551d5b29140c98e0b47060727428cd8fef6a63c443cb3e2",
    (DEGREE_8, "embedding"):
        "6d48c15fdf7fff8a31ad3f002eca03f481239c7e5f48af689ec6f4a3475c9191",
    (DEGREE_8, "theorem43"):
        "20819a1314dcf89fc2cbc2c1b74e7307f4d7ee2d86c41450619aaa0ea047f40b",
    (DEGREE_8, "vage"):
        "ef46d3b5f83c21e7b36c39136aac98a899863c5ea71eb428b42e1ccc040b09c2",
    (DEGREE_8, "duality"):
        "8e51e5b37a55c591264eac86e46a08808d5087bd77c20a9dbdabac6d54056c19",
    (DEGREE_8, "inverse"):
        "4f7670836be69d9b54f1449d7b7c12dfbf7513ee0fd2b51252cde99ac7ae9e14",
    (DEGREE_8, "series"):
        "c7e541f808893f3745e1b4903051a6882e0ffe858ae56f2db55205df065d3791",
}


@pytest.mark.parametrize(
    "cfg,name",
    DRAW_DIGESTS,
    ids=lambda x: f"q{x.q}-d{x.dim}-n{x.max_degree}" if isinstance(x, RunConfig) else x,
)
def test_draw_heavy_report_bytes_are_pinned(cfg, name):
    assert _report_digest(cfg, name) == DRAW_DIGESTS[cfg, name]


# each --out file, for `verify --suite all` at the default config and for
# compute on seeded d=2, N=6 vectors (see _compute_inputs)
CLI_DIGESTS = {
    "verify": "2d23fb43ff515ce2b2b7f1dcce66898fa87de25ecfc0f6021058f464e44ed655",
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
        vector = random_vector(ctx, rng).to_json_dict()
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


def _cli_digest(name: str, folder: Path) -> str:
    out = folder / "out.json"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(_cli_argv(name, _compute_inputs(folder)) + ["--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", CLI_DIGESTS)
def test_cli_file_bytes_are_pinned(name, tmp_path):
    assert _cli_digest(name, tmp_path) == CLI_DIGESTS[name]


# the --out file of `verify --suite all --seed 1` at each of the benchmark's
# verify configs (bench/workloads.py), written as the benchmark writes it: by
# a fresh interpreter with no BLAS thread setting, so that qwick loads numpy
# with one OpenBLAS thread.  A threaded eigvalsh rounds positivity's degree-8
# spectrum by the core count.
BENCH_VERIFY_DIGESTS = {
    ("--trials", "40"): "e0c2d8f3b77b412ecafe51584440aeb324ed1b9ad30b887f3cdb5f5fbb0b8b60",
    ("--max-degree", "8", "--trials", "12"):
        "a3a825c9bb5fb3d7af48f607099faec9ea7eca2571a6561e5f6e90a87fabefd4",
}


def _fresh_cli(argv: list[str]) -> None:
    """Run qwick's CLI in a fresh interpreter with no BLAS thread setting."""
    env = {k: v for k, v in os.environ.items() if k not in qwick._BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = str(Path(qwick.__file__).resolve().parents[1])
    cli_call = [sys.executable, "-m", "qwick.cli", *argv]
    result = subprocess.run(cli_call, capture_output=True, env=env)
    assert result.returncode == 0, result.stderr


def _bench_verify_digest(config: tuple, folder: Path) -> str:
    out = folder / "report.json"
    _fresh_cli(["verify", "--suite", "all", "--seed", "1", *config, "--out", str(out)])
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("config", BENCH_VERIFY_DIGESTS, ids=("verify-default", "verify-deep"))
def test_bench_verify_file_bytes_are_pinned(config, tmp_path):
    assert _bench_verify_digest(config, tmp_path) == BENCH_VERIFY_DIGESTS[config]


def test_in_process_report_matches_the_cli_at_degree_8(tmp_path):
    # the root conftest.py loads qwick, so numpy, with one OpenBLAS thread,
    # as the CLI does; a threaded eigvalsh would round positivity's degree-8
    # spectrum by the core count
    argv = ["verify", "--suite", "positivity", "--seed", "1", "--max-degree", "8", "--trials", "12"]
    here, fresh = tmp_path / "here.json", tmp_path / "fresh.json"
    assert cli.main([*argv, "--out", str(here)]) == 0
    _fresh_cli([*argv, "--out", str(fresh)])
    assert here.read_bytes() == fresh.read_bytes()


CONFIG_NAMES = {
    DEFAULT: "DEFAULT",
    NEGATIVE_Q: "NEGATIVE_Q",
    Q_NEAR_ONE: "Q_NEAR_ONE",
    Q_ZERO: "Q_ZERO",
    DEGREE_8: "DEGREE_8",
}


def _pinned_and_current(folder: Path):
    """(key, pinned digest, current digest) for every digest pinned here."""
    for cfg, digests in DIGESTS.items():
        for name, pinned in digests.items():
            yield f"DIGESTS[{CONFIG_NAMES[cfg]}][{name}]", pinned, _report_digest(cfg, name)
    for (cfg, name), pinned in DRAW_DIGESTS.items():
        yield f"DRAW_DIGESTS[{CONFIG_NAMES[cfg]}, {name}]", pinned, _report_digest(cfg, name)
    for name, pinned in CLI_DIGESTS.items():
        yield f"CLI_DIGESTS[{name}]", pinned, _cli_digest(name, folder)
    for config, pinned in BENCH_VERIFY_DIGESTS.items():
        key = f"BENCH_VERIFY_DIGESTS[{' '.join(config)}]"
        yield key, pinned, _bench_verify_digest(config, folder)


def main() -> int:
    moved = 0
    with tempfile.TemporaryDirectory() as folder:
        for key, pinned, current in _pinned_and_current(Path(folder)):
            moved += pinned != current
            print(f"{'MOVED' if pinned != current else 'same':5}  {key}")
            print(f"       pinned  {pinned}\n       current {current}")
    print(f"{moved} moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())

"""Byte-identity guard for the commands ``test_trial_bytes.py`` leaves out.

The sha256 of stdout (and of stderr, and of the ``--csv`` file where there
is one) of ``inspect`` and ``detbounds`` on balanced and dominant SDD
matrices, ``limit`` in its three modes, ``mle``, and two rejected input
files.  The input files are written from a fixed seed into a fresh
directory, and each call names them by relative path, since ``inspect``,
``detbounds`` and the errors print the path.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from helpers import limit_test_graph, random_balanced, random_dominant
from sddkit import save_graph, save_matrix
from sddkit.cli import main

MATRICES = [f"{kind}{n}.txt" for kind in ("balanced", "dominant") for n in (12, 40)]


def write_inputs() -> None:
    """Every input file, into the current directory."""
    rng = np.random.default_rng(2026)
    for kind, make in (("balanced", random_balanced), ("dominant", random_dominant)):
        for n in (12, 40):
            save_matrix(make(rng, n), f"{kind}{n}.txt")
    save_graph(limit_test_graph(30, 0), "graph30.edges")
    with open("asymmetric.txt", "w", encoding="utf-8") as fh:
        fh.write("3\n2 1 1\n1 2 1\n1 0 2\n")
    with open("bad.edges", "w", encoding="utf-8") as fh:
        fh.write("4\n1 2\n2 x\n")


CALLS = {
    **{("inspect", name): ["inspect", "--matrix", name] for name in MATRICES},
    **{("detbounds", name): ["detbounds", "--matrix", name] for name in MATRICES},
    ("limit", "closed-form"): ["limit", "--sform", "30,28,1", "--graph", "graph30.edges"],
    ("limit", "u-route"): ["limit", "--sform", "30,28,1", "--graph", "graph30.edges",
                           "--u-route"],
    ("limit", "numeric"): ["limit", "--sform", "30,28,1", "--graph", "graph30.edges",
                           "--t", "1e8"],
    ("mle", "n30"): ["mle", "--n", "30", "--k", "2", "--trials", "3", "--seed", "5",
                     "--csv", "mle.csv"],
    ("inspect", "asymmetric.txt"): ["inspect", "--matrix", "asymmetric.txt"],
    ("limit", "bad.edges"): ["limit", "--sform", "4,2,1", "--graph", "bad.edges"],
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(argv) -> tuple:
    """(exit code, sha256 of stdout, of stderr[, of the CSV]) of one call,
    run in a directory holding the inputs."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    digests = (code, sha(out.getvalue().encode()), sha(err.getvalue().encode()))
    if "--csv" in argv:
        with open(argv[argv.index("--csv") + 1], "rb") as fh:
            digests += (sha(fh.read()),)
    return digests


# The sha256 of no output.
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
DIGESTS = {
    ("inspect", "balanced12.txt"): (0, "3aa0670b2bd4ed48609d638702cfc0004a6a1a3281960f4ee0b5d2877af0df34", EMPTY),
    ("inspect", "balanced40.txt"): (0, "07b3b789eafe4ab3f9f3e9bf7464c1cd2343867a95302209291d925820a309c2", EMPTY),
    ("inspect", "dominant12.txt"): (0, "277e782e2876d2d70e3967a0e609bc23317c9d698e1f488bb7977adb3e32e449", EMPTY),
    ("inspect", "dominant40.txt"): (0, "cd43aa9e6f4344a70782984d68494c667a299e0d49dcdaef981c6b4dff1dbbbb", EMPTY),
    ("detbounds", "balanced12.txt"): (0, "80ddc650576e07e48664a4970619d33c9e43c80e6afa895fd3d9a4099afb735f", EMPTY),
    ("detbounds", "balanced40.txt"): (0, "add0b07dc47b7d6e05104669474c88514478cad60f7ae6c5fbaa5c797c852496", EMPTY),
    ("detbounds", "dominant12.txt"): (0, "8b4c055f71794d737ab0f28ea61a67e81ec7b1d8e497ace934c061628f4b8846", EMPTY),
    ("detbounds", "dominant40.txt"): (0, "1df97a7786564b08cee7e87b3a43deb630fd201a8ce48dc0cb8fce10aaabcd10", EMPTY),
    ("limit", "closed-form"): (0, "34065868383965085a53f2220b80383227b3534488a4c41fa4eab4ea577d9c32", EMPTY),
    ("limit", "u-route"): (0, "58e23d3202d7021a4d9e7a2164788e9ba26ecdc05a166d1b2b216eb6841a8a14", EMPTY),
    ("limit", "numeric"): (0, "1969832f0eb054a14bd378552aa6900cbf2d6125a981128a3b955dea3c5dca12", EMPTY),
    ("mle", "n30"): (0, "8d6b4b6b37ee54809a5487fa96b02a25757a85744a1b0f1b8ca3564491cc1ddf", EMPTY,
                     "e19863f0150ddfb9eeb222f4926ec0c1e44f7fcf700172ce64f0dd1db291d061"),
    ("inspect", "asymmetric.txt"): (2, EMPTY, "f9ac675da3730ebaf74a710a5038cf6f59896b62fdfeef89e17baa7c1319beda"),
    ("limit", "bad.edges"): (2, EMPTY, "825b61cce945b58f00e75754c62434c86d157aaf5a34866263691f5bdc3f958f"),
}


@pytest.mark.parametrize("call", list(CALLS), ids="-".join)
def test_output_bytes_are_pinned(call, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_inputs()
    assert run_digests(CALLS[call]) == DIGESTS[call]

"""Golden sha256 digests of ``--deterministic`` output of the exact subcommands.

``construct`` and ``admissible`` compute with exact integers only, so their
``--deterministic`` output is a fixed byte string for fixed flags. Each
digest below covers stdout followed by the ``--points-out`` file, if any.
A change that moves a vector, a census, a float repr or the table layout
changes a digest; such a change must say why and update the digest.
The two ``sphere`` rows pin floats as well: mu and the frame matrix are
numpy's cos and sin of 2.0 * pi * r / n at integer residues r, so a numpy
whose cos or sin rounds differently changes their digests.

The estimators' float output is not pinned here: numpy's SIMD ``exp``
may differ in the last bit between CPUs, and so do BLAS matrix-vector
products. The streamed values equal a whole-matrix product bit for bit
with OpenBLAS 0.3.31's Haswell, SkylakeX and Zen kernels, but not with
its Sandybridge, Nehalem and Prescott ones, where a few lattice rows
differ in the last bit. What the estimators are fed is pinned instead:
the shifted lattice and MC point sets of a sweep-size ``integrate`` run
are exact lattice rationals, PCG64 draws and correctly rounded
additions, so their bytes are the same on every platform, and the digest
below held under all six kernels. The driver streams each set through
the integrand in row blocks; the test puts each run's blocks back
together in ``_replicate``'s documented call order before hashing, so
the digest is that of the whole sets.
"""

import hashlib
import tempfile

import numpy as np
import pytest

from lattice_forge.cli import main
from lattice_forge.pointset import _replicate

_CASES = {
    "subgroup": (
        ["construct", "--d", "50", "--n", "101"],
        "cb17d62ab35c06bf7d831475895e9a4f3e12dc140ce1c58422a4d895767e0889",
    ),
    "korobov-l1": (
        ["construct", "--d", "8", "--n", "881", "--method", "korobov"],
        "83064cf172dd5eba001a95686224dffd96ce2649b351967f0e61043adc393dfc",
    ),
    "korobov-l2": (
        ["construct", "--d", "14", "--n", "1409", "--method", "korobov", "--norm", "l2"],
        "d876172f574fc27f6c097d8b2999509653018e0b6cb57dea7fb41f80638cbbb2",
    ),
    "json": (
        ["construct", "--d", "4", "--n", "41", "--format", "json"],
        "a3d3ee1827e41901446e68622c92a0e851bfd55fc5351ee8908e9cb23ca26a32",
    ),
    "points-out": (
        ["construct", "--d", "4", "--n", "41", "--points-out", "{pts}"],
        "060a7a5be3b718a81f29ee11af6f4525e53c175ef0eede7f353b3dcc778d150d",
    ),
    "korobov-points-out": (
        ["construct", "--d", "3", "--n", "13", "--method", "korobov", "--points-out", "{pts}"],
        "787695d36dc835d7722bc527d801188a324ed3d657f4c17b135440f3d93b8bfe",
    ),
    "subgroup-64-15233": (
        ["construct", "--d", "64", "--n", "15233"],
        "ada0fe2736f395f4666719581ddffdb6cf902a962c366f8f8b54c87cf80ee384",
    ),
    "subgroup-16-80449": (
        ["construct", "--d", "16", "--n", "80449"],
        "c4ba51c925cc0c25235164709dc6080ad9cf95c37cd6938d5820cd712099ddd2",
    ),
    "sphere": (
        ["sphere", "--d", "50", "--n", "101"],
        "9af46b648e7785c2de9571a1142688b72f68c1a64690a5f6b949f81d71d9dcd8",
    ),
    "sphere-frame-out": (
        ["sphere", "--d", "8", "--n", "13", "--frame-out", "{pts}"],
        "f8b35916903f9f7c631459a17d948c09de7749dbb2ae4f360b0b45820fe2475d",
    ),
    "admissible-csv": (
        ["admissible", "--d", "100", "--count", "3"],
        "574f77e28d0b6c5f1294e96b06f85fbd414d6157724fd5bd7fdcc6a70e47e30a",
    ),
    "admissible-start-csv": (
        ["admissible", "--d", "7", "--count", "5", "--start", "1000"],
        "ba0108ec68eb35f5c07bc0d534cffd89eafa21d79c48ee4376ca1e93fc4da3fd",
    ),
    "admissible-json": (
        ["admissible", "--d", "3", "--count", "4", "--format", "json"],
        "5b3132253ade4a6f91f54b9b0dee69ef7f640741ac4f6c7ef1bdb043b666959d",
    ),
}


@pytest.mark.parametrize("argv, digest", list(_CASES.values()), ids=list(_CASES))
def test_deterministic_output_digest(capsys, tmp_path, argv, digest):
    pts = tmp_path / "pts.csv"
    code = main([a.replace("{pts}", str(pts)) for a in argv] + ["--deterministic"])
    out = capsys.readouterr().out
    assert code == 0
    h = hashlib.sha256(out.encode())
    if "{pts}" in argv:
        h.update(pts.read_bytes())
    assert h.hexdigest() == digest


def test_sweep_point_sets_digest(stream_order):
    # the point sets ``integrate --d 32 --n 60161 --runs 16 --seed 1
    # --method subgroup`` (and ``--method mc``) stream, in run order. Each
    # block is spooled to a file as it comes (the sets take 493 MB), and the
    # documented call order names each run's blocks.
    h = hashlib.sha256()
    with tempfile.TemporaryFile() as spool:
        offsets, lengths = [], []

        def values(block):
            offsets.append(spool.tell())
            lengths.append(len(block))
            spool.write(block.astype("<f8", copy=False).tobytes())
            return np.zeros(len(block))

        _replicate(32, 60161, ("subgroup", "mc"), values, runs=16, seed_source=1)
        calls = stream_order(lengths, 32, 60161, ("subgroup", "mc"), 16)
        for r in range(16):
            for method in ("subgroup", "mc"):
                for k in calls[method][r]:
                    spool.seek(offsets[k])
                    h.update(spool.read(8 * 32 * lengths[k]))
    assert h.hexdigest() == "14232d708e45b422c4dd96f6f4497eb041f692bba9d8a5674b94b0208425fe4f"

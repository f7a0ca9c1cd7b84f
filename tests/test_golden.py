"""Canonical CLI output pinned by SHA-256 digest.

The canonical text and JSON forms are a stable contract, so any change to
a report's bytes fails here.
"""

import hashlib

import pytest

from sgblow.cli import main
from sgblow.statements import catalog_ids

ALL_IDS = ",".join(catalog_ids())

GOLDEN = [
    (["verify", "--max-genus", "8", "--format", "json"],
     "0c724dcd56593b5aaf647855f6470b6d6395e583ae379536d83be1016f14db7e"),
    (["verify", "--max-genus", "4", "--ideals", "all", "--format", "json"],
     "8e8427c32b0ff4d05783f508008b949cb8a4a703fb0642434707541c505ed0f5"),
    (["analyze", "<10,23,55,58,82>", "--statements", ALL_IDS, "--format", "json"],
     "b1eef8a18f7523492b8c3470c64eb73e74173943b507aeb34bac077a22fae33d"),
    (["analyze", "{0,7,8,12-16,18->}", "--ideal", "ideal(12,13)",
      "--statements", ALL_IDS, "--format", "json"],
     "f211f5955510041a1d82c323f204945a61960f9e89ffab0b1f2b3aa5be5bfacf"),
    (["analyze", "<17,26>", "--statements", ALL_IDS, "--format", "json"],
     "f7ee64338e34f92c92c4f3a9bc531da6c55a4a55a818c1378da1f82ba87d7819"),
    (["analyze", "<17,26>", "--ideal", "ideal(26,34)",
      "--statements", ALL_IDS, "--format", "json"],
     "53e7eb0421b904175988fdaac288602a70577a83412815578dfca512c9b25881"),
    (["analyze", "<40,41>", "--statements", ALL_IDS, "--format", "json"],
     "b024a8b737af2284b365c7b9aacef420df39b97997c2188012ea35fcdbbfa33d"),
    (["examples", "--format", "json"],
     "5f8d12774f417ace0cd30d9d4579643e1ab22a95d20af60f596e1fba12d87c56"),
    (["enumerate", "--max-genus", "7", "--format", "json"],
     "90a4a54465f86b28cdb97dda9050670eb47b8833a6b43bacd8d631eca575b24e"),
    (["verify", "--max-genus", "6", "--ideals", "random", "--sample-size", "3",
      "--seed", "1", "--format", "json"],
     "cfa4dfb6897f46c8eee0bfad29828ddade0d359fffb45bd4c22894e4c384ea6b"),
    (["verify", "--max-genus", "5", "--ideals", "all"],
     "963180f215164949c6201b33887071300d8c7c6c448c09023fe017d0b14919b4"),
    (["analyze", "<10,23,55,58,82>", "--statements", ALL_IDS],
     "011f24c15ba08a27757e14b9a8dde478f20f735c0cc36601fa448cb4e771da80"),
    (["examples"],
     "3766972feb14a5c3435f228921854613fb2a8a078b08609d2faeea83145a498c"),
    (["enumerate", "--max-genus", "7"],
     "b01e60b923a7b1b4fb63411821c50c806b3c5d1d9cfe40c4653f4135812c4c4a"),
    # the wide universe, where most pairs read a blow-up record built for an
    # earlier pair with the same Lambda
    (["verify", "--max-genus", "6", "--ideals", "all", "--format", "json"],
     "2347ed7f95267b9c95c2b8dec23416835bc7c2e5e328906867083b37a157251e"),
    # the deep universe, where every pair has E = m and reads the ring's M + K and M**
    (["verify", "--max-genus", "12", "--format", "json"],
     "3aee81c6143adc3d0e8ada48229a96e9d82500c20f6cb5c2072d2ed5782a6b40"),
]


def _test_id(argv):
    return " ".join(argv[:2]) + ("" if "--format" in argv else " text")


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[_test_id(a) for a, _ in GOLDEN])
def test_canonical_output_is_pinned(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest

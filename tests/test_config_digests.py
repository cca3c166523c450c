"""Shipped TAPI configs reproduce their CSVs byte for byte.

tests/data/config_csv.sha256 lists, in `sha256sum` format, the digest of
every CSV that `taylordp solve-tapi --config configs/<stem>.ini` writes (the
fine value/policy file and the chain dump).  The digests were recorded
before the fine-lattice stages (action enumeration, factored assembly,
Taylored greedy) became whole-lattice array passes, so this test pins those
rewrites to the per-state code's exact output.

The digests belong to numpy 2.4.6 and scipy 1.17.1 (Python 3.11, x86-64,
OpenBLAS).  Another numpy/scipy version may round the linear solves
differently in the last bit, which changes the CSV bytes without any change
to this package; re-record the file from a known-good commit in that case.
"""

import hashlib
from pathlib import Path

import pytest

from taylordp.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = {}
for line in (ROOT / "tests" / "data" / "config_csv.sha256").read_text().splitlines():
    digest, name = line.split()
    stem, csv_name = name.split("/")
    DIGESTS.setdefault(stem, {})[csv_name] = digest


@pytest.mark.parametrize("stem", sorted(DIGESTS))
def test_shipped_tapi_config_csvs_are_byte_identical(stem, tmp_path):
    rc = main(["solve-tapi", "--config", str(ROOT / "configs" / f"{stem}.ini"),
               "--out-dir", str(tmp_path)])
    assert rc == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.glob("*.csv"))}
    assert written == DIGESTS[stem]

"""Shipped configs reproduce their CSVs byte for byte.

Two files under tests/data list, in `sha256sum` format, the digest of every
CSV that `taylordp <mode> --config configs/<stem>.ini` writes, where <mode>
is the config's own `mode`:

  * config_csv.sha256: the solve-tapi configs (the fine value/policy file
    and the chain dump), recorded before the fine-lattice stages (action
    enumeration, factored assembly, Taylored greedy) became whole-lattice
    array passes, so this test pins those rewrites to the per-state code's
    exact output;
  * exact_csv.sha256: the solve-exact configs (the fine value/policy file),
    recorded before the tabular and factored assemblies shared one policy
    operator and the two CLI solve paths became one, so it pins both the
    direct (tabular) and the Richardson (factored) evaluation.

The digests belong to numpy 2.4.6 and scipy 1.17.1 (Python 3.11, x86-64,
OpenBLAS).  Another numpy/scipy version may round the linear solves
differently in the last bit, which changes the CSV bytes without any change
to this package; re-record the files from a known-good commit in that case.
"""

import hashlib
from pathlib import Path

import pytest

from taylordp.cli import main
from taylordp.config import load_config

ROOT = Path(__file__).resolve().parent.parent


def _digests(file_name):
    digests = {}
    for line in (ROOT / "tests" / "data" / file_name).read_text().splitlines():
        digest, name = line.split()
        stem, csv_name = name.split("/")
        digests.setdefault(stem, {})[csv_name] = digest
    return digests


TAPI_DIGESTS = _digests("config_csv.sha256")
EXACT_DIGESTS = _digests("exact_csv.sha256")


def _stems(digests):
    return [pytest.param(s, marks=pytest.mark.slow) if s.startswith("routing3") else s
            for s in sorted(digests)]


def _written_digests(stem, out_dir):
    """Run the config through the subcommand its mode names; digest its CSVs."""
    config = ROOT / "configs" / f"{stem}.ini"
    rc = main([load_config(config).mode, "--config", str(config), "--out-dir", str(out_dir)])
    assert rc == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


@pytest.mark.parametrize("stem", _stems(TAPI_DIGESTS))
def test_shipped_tapi_config_csvs_are_byte_identical(stem, tmp_path):
    assert _written_digests(stem, tmp_path) == TAPI_DIGESTS[stem]


@pytest.mark.parametrize("stem", _stems(EXACT_DIGESTS))
def test_shipped_exact_config_csvs_are_byte_identical(stem, tmp_path):
    assert _written_digests(stem, tmp_path) == EXACT_DIGESTS[stem]

"""Shipped configs reproduce their CSVs byte for byte.

Four files under tests/data list, in `sha256sum` format, digests of the CSVs
that `taylordp <mode> --config configs/<stem>.ini` writes.  <mode> is the
config's own `mode` for the first three files and `bounds` for the fourth:

  * config_csv.sha256: the solve-tapi configs (the fine value/policy file),
    each with its K-D chain as `report.write_chain_csv` writes it to
    <model>_chain_h<h>.csv (built here with build_multidim_chain at the
    config's h and scheme, as tapi_solve builds it; the CLI writes no chain
    dump).  First recorded before the fine-lattice stages
    (action enumeration, factored assembly, Taylored greedy) became
    whole-lattice array passes, so this test pins those rewrites to the
    per-state code's exact output;
  * exact_csv.sha256: the solve-exact configs (the fine value/policy file),
    so it pins both the direct (tabular) and the bracketed iterative
    (factored) evaluation;
  * policy_csv.sha256: every fine value/policy file of both kinds with its
    `value` column dropped, so the chosen actions are pinned on their own.
    A change to the evaluation's rounding moves the value digests of the
    routing configs but must leave these unchanged;
  * bounds_csv.sha256: the gap/remainder and moments CSVs that
    `taylordp bounds --config configs/<stem>.ini` writes for the configs
    whose model has a closed-form oracle (BOUNDS_CONFIGS), first recorded
    before the moments CSV and the Taylor remainder read the moments in one
    batch call.  The heavy-traffic bounds CSV was re-recorded when the
    remainder became one array pass: P^U Phi from the policy operator adds
    a two-entry row as p0 f0 + p1 f1, which the per-row BLAS dot rounded
    differently in the last bit.

The digests belong to numpy 2.4.6 and scipy 1.17.1 (Python 3.11, x86-64,
OpenBLAS).  Another numpy/scipy version may round the linear solves
differently in the last bit, which changes the CSV bytes without any change
to this package.  The routing value digests also depend on the binomial
pmf that every pool step matrix is built from: they were re-recorded when
it became the closed form comb(n, k) p^k (1-p)^(n-k) on `math` in place of
scipy's boost binomial, which differs from it in the last bits for most
(n, p); the values moved by at most 8e-14 relative and no policy moved.
The value digests of the tabular fine models (service rate, inventory,
heavy traffic) and both bounds CSVs were re-recorded when a tabular policy
evaluation became one banded LU (LAPACK dgbsv) in place of SuperLU: each
value moved by at most 4e-15 of its file's largest value, no policy and no
chain CSV moved.
Re-record from the current checkout with

    python tests/test_config_digests.py --record            # value/chain CSVs
    python tests/test_config_digests.py --record --policy   # policy digests
    python tests/test_config_digests.py --record --bounds   # bounds CSVs

and check the diff of tests/data: a change that should keep the policies
must not touch policy_csv.sha256.
"""

import argparse
import csv
import functools
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from taylordp.cli import main
from taylordp.config import load_config
from taylordp.kdchain import build_multidim_chain
from taylordp.report import write_chain_csv

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
DIGEST_FILES = {"solve-tapi": "config_csv.sha256", "solve-exact": "exact_csv.sha256"}
POLICY_FILE = "policy_csv.sha256"
BOUNDS_FILE = "bounds_csv.sha256"
BOUNDS_CONFIGS = ("heavy_traffic_eval", "service_rate_quartic_oracle")


def _digests(file_name):
    digests = {}
    for line in (DATA / file_name).read_text().splitlines():
        digest, name = line.split()
        stem, csv_name = name.split("/")
        digests.setdefault(stem, {})[csv_name] = digest
    return digests


TAPI_DIGESTS = _digests(DIGEST_FILES["solve-tapi"])
EXACT_DIGESTS = _digests(DIGEST_FILES["solve-exact"])
POLICY_DIGESTS = _digests(POLICY_FILE)
BOUNDS_DIGESTS = _digests(BOUNDS_FILE)


def _stems(digests):
    return [pytest.param(s, marks=pytest.mark.slow) if s.startswith("routing3") else s
            for s in sorted(digests)]


def _policy_digest(path):
    """sha256 of a value/policy CSV with its `value` column dropped (None
    for a CSV without one)."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if "value" not in rows[0]:
        return None
    col = rows[0].index("value")
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(row[:col] + row[col + 1:] for row in rows)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _run(stem, out_dir):
    """Run the config through the subcommand its mode names, and write a
    solve-tapi config's chain next to its CSV.

    Returns ({csv name: sha256}, {value/policy csv name: policy digest}).
    """
    config = ROOT / "configs" / f"{stem}.ini"
    cfg = load_config(config)
    rc = main([cfg.mode, "--config", str(config), "--out-dir", str(out_dir)])
    assert rc == 0
    if cfg.mode == "solve-tapi":
        chain = build_multidim_chain(cfg.build_model().problem, cfg.tapi.h, scheme=cfg.tapi.scheme)
        write_chain_csv(Path(out_dir) / f"{cfg.model_name}_chain_h{cfg.tapi.h}.csv", chain)
    paths = sorted(Path(out_dir).glob("*.csv"))
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    policies = {p.name: _policy_digest(p) for p in paths}
    return files, {name: d for name, d in policies.items() if d is not None}


def _run_bounds(stem, out_dir):
    """{csv name: sha256} of what `taylordp bounds` writes for the config."""
    config = ROOT / "configs" / f"{stem}.ini"
    assert main(["bounds", "--config", str(config), "--out-dir", str(out_dir)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).glob("*.csv"))}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Per-stem run results, each config solved once per module."""
    return functools.lru_cache(maxsize=None)(
        lambda stem: _run(stem, tmp_path_factory.mktemp(stem)))


@pytest.mark.parametrize("stem", _stems(TAPI_DIGESTS))
def test_shipped_tapi_config_csvs_are_byte_identical(stem, written):
    assert written(stem)[0] == TAPI_DIGESTS[stem]


@pytest.mark.parametrize("stem", _stems(EXACT_DIGESTS))
def test_shipped_exact_config_csvs_are_byte_identical(stem, written):
    assert written(stem)[0] == EXACT_DIGESTS[stem]


@pytest.mark.parametrize("stem", _stems(POLICY_DIGESTS))
def test_shipped_config_policies_are_byte_identical(stem, written):
    assert written(stem)[1] == POLICY_DIGESTS[stem]


@pytest.mark.parametrize("stem", BOUNDS_CONFIGS)
def test_bounds_csvs_are_byte_identical(stem, tmp_path):
    assert _run_bounds(stem, tmp_path) == BOUNDS_DIGESTS[stem]


def _write(file_name, digests):
    """Rewrite a digest file, keeping the order of the lines it already has."""
    path = DATA / file_name
    old = [line.split()[1] for line in path.read_text().splitlines()] if path.exists() else []
    order = [n for n in old if n in digests] + sorted(set(digests) - set(old))
    path.write_text("".join(f"{digests[n]}  {n}\n" for n in order))
    print(f"wrote {len(order)} digests to tests/data/{file_name}")


def _record_bounds() -> None:
    """Rewrite the bounds digests from the current checkout's outputs."""
    digests = {}
    for stem in BOUNDS_CONFIGS:
        with tempfile.TemporaryDirectory() as out_dir:
            digests.update({f"{stem}/{n}": d for n, d in _run_bounds(stem, out_dir).items()})
    _write(BOUNDS_FILE, digests)


def _record(policy: bool) -> None:
    """Rewrite the digest files from the current checkout's outputs."""
    digests = {name: {} for name in [*DIGEST_FILES.values(), POLICY_FILE]}
    for config in sorted((ROOT / "configs").glob("*.ini")):
        mode = load_config(config).mode
        if mode not in DIGEST_FILES:
            continue
        with tempfile.TemporaryDirectory() as out_dir:
            files, policies = _run(config.stem, out_dir)
        digests[DIGEST_FILES[mode]].update({f"{config.stem}/{n}": d for n, d in files.items()})
        digests[POLICY_FILE].update({f"{config.stem}/{n}": d for n, d in policies.items()})
    for name in [POLICY_FILE] if policy else DIGEST_FILES.values():
        _write(name, digests[name])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true", required=True,
                        help="rewrite the digest files from the current checkout")
    which = parser.add_mutually_exclusive_group()
    which.add_argument("--policy", action="store_true",
                       help=f"rewrite {POLICY_FILE} instead of the value/chain digests")
    which.add_argument("--bounds", action="store_true",
                       help=f"rewrite {BOUNDS_FILE} instead of the value/chain digests")
    args = parser.parse_args()
    if args.bounds:
        _record_bounds()
    else:
        _record(args.policy)

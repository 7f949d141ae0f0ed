"""Byte golden: the SHA-256 of every file each command writes.

Each case runs ``stratlogit.cli.main`` in-process from the repository
root with relative input paths, because the input path is echoed into
``report.json``.  A digest may be re-pinned only together with a
CHANGES.md entry that says why the bytes moved and gives the maximum
relative deviation of each moved float field against the old output.

    PYTHONPATH=src python tests/test_golden.py

prints the digests the current code produces, in the layout of GOLDEN.
"""

import hashlib
import os
import sys
import tempfile
from contextlib import redirect_stdout

import pytest

from conftest import ROOT
from stratlogit.cli import main

SCHOLARS = ["--input", "data/synthetic_scholars.csv"]
SUBSET = ["--features", "FR,CA,AW"]

# case id -> argv without --out
CASES = {
    "report-enumerate": ["report", *SCHOLARS, "--select", "enumerate"],
    "report-stepwise": ["report", *SCHOLARS, "--select", "stepwise"],
    "ingest": ["ingest", *SCHOLARS],
    "describe": ["describe", *SCHOLARS],
    "fit-subset": ["fit", *SCHOLARS, *SUBSET],
    "fit-all": ["fit", *SCHOLARS],
    "select-enumerate": ["select", *SCHOLARS, "--select", "enumerate"],
    "select-stepwise": ["select", *SCHOLARS, "--select", "stepwise"],
    "evaluate-subset": ["evaluate", *SCHOLARS, *SUBSET],
    "attribute-subset": ["attribute", *SCHOLARS, *SUBSET],
    "attribute-all": ["attribute", *SCHOLARS],
    "communities": ["communities", "--coauthor-edges", "data/coauthor_edges.csv"],
}
# STRAT_THREADS values each case runs under; None leaves it unset.
THREADS = {"report-enumerate": ("1", "2"), "report-stepwise": ("1", "2")}

GOLDEN = {
    "report-enumerate": {
        "comparison.csv": "94f6dbc8672672b3f03d53daf5718251099b044853eaf0524fb71f5a89a1b205",
        "confusion.csv": "30e133442f7ff4381af9b68f91262e9f5c43008e93e15091baa4e9eacfc433de",
        "correlation.csv": "d3c49cb04924a588b9f41d5cf3d884847660b3a8002f88223fe86dfc1cbd6ad3",
        "descriptive_stats.csv": "38a4041e36cc715ef3c0c217ddfe22363c7f5516736d91f2281b9b6b4273bb5c",
        "features.csv": "b7f9e68c75510636af684750e5014746d579efc1ceac0d37d13d0c313811e956",
        "importance_full.csv": "cab70c304eff9df772c8ddd3d49d5bca0226de8e4d3c7d208b190a98b5c58285",
        "importance_optimized.csv": "a4f7aeaf52356204a3c684507e659c4bdae7c6466ab5e1be93ce1b0a63141eda",
        "inference_full.csv": "92bf6d4128672da2c95ec62a75a06ff40541a9a3a63bc7ea0de66b8242f4629a",
        "inference_optimized.csv": "e80ecf31b732d5e4cfb6be4b36dc6a7a95fb21b7f4270cd2165eb35a27bdd810",
        "metrics.csv": "a0881fc313a9d0777da4d67d6e15f99abfa14e3565f874b964ab0a5cab70555f",
        "report.json": "0c57db2e7e445a5edcb96eebd3e88b26c9bb32eaaab6fcf03a07dadfc7e888ec",
        "roc.csv": "8b375486a5f46068193ea49fa5d90ec1e76c39505d373b4376d6d48b52c32a62",
        "shap_full.csv": "e8fe6dee24f644c1f968ec1b2a74896e5742107ed5f97a40078df1f734d282c7",
        "shap_optimized.csv": "0eb0d3a85c0e482f57566dadd5644fd9b85000cf7d26f2aad2148a57723d95e7",
        "trend_AD.csv": "c3ff1599395184229f9a7166d4019e4b0fc3e4e2c38076a7f581ba1a97f65968",
        "trend_AW.csv": "7be91748795cb298ebe92c9ec95003babf71a8c844462e0e90f4a52c1a706916",
        "trend_C.csv": "df49a8c73bc0a7fc816ba5b0527a376fe6e186482caba2e540ead2b857864a09",
        "trend_CA.csv": "c3435f28476ac9ed99cb20fd4df7b7fd36ca8964a54dcba55eb32a2dbbb0616d",
        "trend_FGR.csv": "f7cb69189717b1c5318f731f9223ecb3c6c8bb2cbe79c93a8c80a0f746da1cb2",
        "trend_FR.csv": "1edffb0f011d4d05d7f8aa2316166c66434841eb09ae7a4fdb50ecc50966e974",
        "trend_P.csv": "4bb72d136fe9d050c337647a2e3bee5a1df117cf317cb51acd92ebbbb15fa2f6",
        "trend_PC.csv": "7f3fa5082ecff3433c79bee4cb0dec4fc898d797e66b06da8105f4df18b370a0",
        "trend_TD.csv": "be3e4c12eea892d25b9c55f34502c4bf61b70d721d134725c17eca7396898e50",
        "vif.csv": "69f240230ce6467ee2168190f4010fc2984f53465d529e6c8adee7e2a1fb882c",
    },
    "report-stepwise": {
        "comparison.csv": "495de6891d9af8bdf47c74fbe9066b173a0c4da2e629735f0b3a4e900795eb92",
        "confusion.csv": "30e133442f7ff4381af9b68f91262e9f5c43008e93e15091baa4e9eacfc433de",
        "correlation.csv": "d3c49cb04924a588b9f41d5cf3d884847660b3a8002f88223fe86dfc1cbd6ad3",
        "descriptive_stats.csv": "38a4041e36cc715ef3c0c217ddfe22363c7f5516736d91f2281b9b6b4273bb5c",
        "features.csv": "b7f9e68c75510636af684750e5014746d579efc1ceac0d37d13d0c313811e956",
        "importance_full.csv": "cab70c304eff9df772c8ddd3d49d5bca0226de8e4d3c7d208b190a98b5c58285",
        "importance_optimized.csv": "a4f7aeaf52356204a3c684507e659c4bdae7c6466ab5e1be93ce1b0a63141eda",
        "inference_full.csv": "92bf6d4128672da2c95ec62a75a06ff40541a9a3a63bc7ea0de66b8242f4629a",
        "inference_optimized.csv": "e80ecf31b732d5e4cfb6be4b36dc6a7a95fb21b7f4270cd2165eb35a27bdd810",
        "metrics.csv": "a0881fc313a9d0777da4d67d6e15f99abfa14e3565f874b964ab0a5cab70555f",
        "report.json": "f233a8432330535cd1c010ab4a01128f63eac5208e071323b5186d502cdd7c9c",
        "roc.csv": "8b375486a5f46068193ea49fa5d90ec1e76c39505d373b4376d6d48b52c32a62",
        "shap_full.csv": "e8fe6dee24f644c1f968ec1b2a74896e5742107ed5f97a40078df1f734d282c7",
        "shap_optimized.csv": "0eb0d3a85c0e482f57566dadd5644fd9b85000cf7d26f2aad2148a57723d95e7",
        "trend_AD.csv": "c3ff1599395184229f9a7166d4019e4b0fc3e4e2c38076a7f581ba1a97f65968",
        "trend_AW.csv": "7be91748795cb298ebe92c9ec95003babf71a8c844462e0e90f4a52c1a706916",
        "trend_C.csv": "df49a8c73bc0a7fc816ba5b0527a376fe6e186482caba2e540ead2b857864a09",
        "trend_CA.csv": "c3435f28476ac9ed99cb20fd4df7b7fd36ca8964a54dcba55eb32a2dbbb0616d",
        "trend_FGR.csv": "f7cb69189717b1c5318f731f9223ecb3c6c8bb2cbe79c93a8c80a0f746da1cb2",
        "trend_FR.csv": "1edffb0f011d4d05d7f8aa2316166c66434841eb09ae7a4fdb50ecc50966e974",
        "trend_P.csv": "4bb72d136fe9d050c337647a2e3bee5a1df117cf317cb51acd92ebbbb15fa2f6",
        "trend_PC.csv": "7f3fa5082ecff3433c79bee4cb0dec4fc898d797e66b06da8105f4df18b370a0",
        "trend_TD.csv": "be3e4c12eea892d25b9c55f34502c4bf61b70d721d134725c17eca7396898e50",
        "vif.csv": "69f240230ce6467ee2168190f4010fc2984f53465d529e6c8adee7e2a1fb882c",
    },
    "ingest": {
        "normalized.csv": "068c270f1821f47b0b8a1adbab17fbd75446fcb403b4f66675de35f72399ef34",
    },
    "describe": {
        "correlation.csv": "d3c49cb04924a588b9f41d5cf3d884847660b3a8002f88223fe86dfc1cbd6ad3",
        "descriptive_stats.csv": "38a4041e36cc715ef3c0c217ddfe22363c7f5516736d91f2281b9b6b4273bb5c",
        "features.csv": "b7f9e68c75510636af684750e5014746d579efc1ceac0d37d13d0c313811e956",
        "vif.csv": "69f240230ce6467ee2168190f4010fc2984f53465d529e6c8adee7e2a1fb882c",
    },
    "fit-subset": {
        "fit.json": "6a29f0918513de0d19891d5599eefb536fb2d51e56dafded1c5e966854cb490a",
        "inference.csv": "7ac75af600d03dcc3c5065d31ef19324aa021b56350e2cbcfc49fc974c61d304",
    },
    "fit-all": {
        "fit.json": "1b3f7fcac8b0f396d3868064641defb5cf34abdab926ce10e8ce53196a52e445",
        "inference.csv": "92bf6d4128672da2c95ec62a75a06ff40541a9a3a63bc7ea0de66b8242f4629a",
    },
    "select-enumerate": {
        "comparison.csv": "94f6dbc8672672b3f03d53daf5718251099b044853eaf0524fb71f5a89a1b205",
        "selection.json": "d99ba7a03a031f9586154400bea54436549c17ffeb19a46937699c8dee9647fb",
    },
    "select-stepwise": {
        "comparison.csv": "495de6891d9af8bdf47c74fbe9066b173a0c4da2e629735f0b3a4e900795eb92",
        "selection.json": "324098b5c5164ebd79bc77fa507f778f286fa8dfef8685aa679fd08c86ab86d6",
    },
    "evaluate-subset": {
        "confusion.csv": "32769748e8406b78eb51b043a4cd46f28fe8687ada33aa30e901de76e2d3f5e0",
        "metrics.csv": "91ae1ca0028eb6ef515b43164df3aae133d5ec7bf2f7454fd38a7fc6265ad33f",
        "roc.csv": "affcbf1f8304f5cfaff60dbb61ddd912705f74ceaa28cec09c66030e82108c86",
    },
    "attribute-subset": {
        "importance.csv": "4c136f681167bdcaf241b0101f905c6fb73d4bc593d8e70a374a15874a5bec27",
        "shap_values.csv": "f4d1284046a3867fdc882c4a44aed9b9c2865ffcdd7a8524728d5fe882b9aafb",
        "trend_AW.csv": "0e22ad5ed35df29a5ac89dd67728e28844aa26671becd4de56c58d25f2a4c4c0",
        "trend_CA.csv": "4f4004128d4b1c67c3bdaa1f2eda8a84e56470d0da41c566c6d762a54ffc365f",
        "trend_FR.csv": "5a311e05babf617c7b402771a2efeb47ce09f4e28c9d710d9edb3c668dd2d3bb",
    },
    "attribute-all": {
        "importance.csv": "cab70c304eff9df772c8ddd3d49d5bca0226de8e4d3c7d208b190a98b5c58285",
        "shap_values.csv": "e8fe6dee24f644c1f968ec1b2a74896e5742107ed5f97a40078df1f734d282c7",
        "trend_AD.csv": "55d802559659f7cb0179b00d2fd35293b6abc920495d9f1b31939a3ac166973d",
        "trend_AW.csv": "1a043a8f967478c37972175e9ccaee15009182a9f377b342158d94b485a290a2",
        "trend_C.csv": "cd82add7f6f788cc9dd82df894d4326749bfa7857e89f923c398ae7f730f247b",
        "trend_CA.csv": "d5c62a443781d26456864b77b4fdacdb75b0799e8d2de6855ec071c69e7cafa5",
        "trend_FGR.csv": "1fcf691f3a53706ed02abcb15e5f9b6416e5eb83a3bbb7e1afbd7eccfd62ad8b",
        "trend_FR.csv": "1081ed96dc6ef55f45382d6ac36580ed4b4a2f8a585be68ceeba96ccee6a4d10",
        "trend_P.csv": "286ed08328c5a211b11de08aff6467f97abb0d3952124a5530a5333c729f3995",
        "trend_PC.csv": "82f398291f47dfbb4eba2ade0653631d52c8818fdddf692c94d74ea03b789e8a",
        "trend_TD.csv": "3e7457637a5baff4140c8d22bbfe8eef429e6187cf0922923a2447193968e440",
    },
    "communities": {
        "dendrogram.json": "7b3ce8f2b33e9da51932985a33104fb0f89de97974e56411bb93f2c1a4699435",
        "partition.csv": "cc02a66b17b230f6d969b66c8e900f01e051c7ee00ffe048aca1bad5223f42b6",
    },
}


def run_case(case_id, threads, out_dir):
    """{file name: sha256 hex} of what the case writes into ``out_dir``."""
    saved_cwd = os.getcwd()
    saved_threads = os.environ.pop("STRAT_THREADS", None)
    try:
        os.chdir(ROOT)
        if threads is not None:
            os.environ["STRAT_THREADS"] = threads
        assert main([*CASES[case_id], "--out", str(out_dir)]) == 0
    finally:
        os.chdir(saved_cwd)
        os.environ.pop("STRAT_THREADS", None)
        if saved_threads is not None:
            os.environ["STRAT_THREADS"] = saved_threads
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


@pytest.mark.parametrize(
    "case_id, threads",
    [(case_id, t) for case_id in CASES for t in THREADS.get(case_id, (None,))],
)
def test_output_bytes_match_golden(case_id, threads, tmp_path):
    got = run_case(case_id, threads, tmp_path)
    want = GOLDEN[case_id]
    moved = sorted(name for name in want.keys() & got.keys() if want[name] != got[name])
    missing = sorted(want.keys() - got.keys())
    extra = sorted(got.keys() - want.keys())
    assert not (moved or missing or extra), (
        f"{case_id} (STRAT_THREADS={threads}): moved {moved}, missing {missing}, unexpected {extra}"
    )


if __name__ == "__main__":
    pinned = {}
    for case_id in CASES:
        with tempfile.TemporaryDirectory() as out_dir, redirect_stdout(sys.stderr):
            pinned[case_id] = run_case(case_id, THREADS.get(case_id, (None,))[0], out_dir)
    lines = ["GOLDEN = {"]
    for case_id, digests in pinned.items():
        lines.append(f'    "{case_id}": {{')
        lines += [f'        "{name}": "{digest}",' for name, digest in digests.items()]
        lines.append("    },")
    sys.stdout.write("\n".join(lines + ["}"]) + "\n")

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
        "report.json": "35891bf8c37aaff2842f93d270823173bf9109311495485cac66d2ad68e508d4",
        "roc.csv": "8b375486a5f46068193ea49fa5d90ec1e76c39505d373b4376d6d48b52c32a62",
        "shap_full.csv": "e8fe6dee24f644c1f968ec1b2a74896e5742107ed5f97a40078df1f734d282c7",
        "shap_optimized.csv": "0eb0d3a85c0e482f57566dadd5644fd9b85000cf7d26f2aad2148a57723d95e7",
        "trend_AD.csv": "9f5bb89f963d957fb67875410a33d39fb731ff53986ab99a499677c3b25f54be",
        "trend_AW.csv": "c0ad6a50d2bb6a137a291cb02a9c4d2000d934e871a1c51985289a047f6db9fe",
        "trend_C.csv": "c22b25c114c81a271fd1cd457ff747c3572de4a63a7bcb5130cd498f009b2484",
        "trend_CA.csv": "f0ff84cb8ea93cadfce218e895f0326b7671597fccde3fedbf21fee929c08f9c",
        "trend_FGR.csv": "14ecfb7a42860d7e6f0a37dbefc84d150fc5a71c22064a01c66079dff3301d38",
        "trend_FR.csv": "9bb21fe0f972f66e3de81f8b2b145e8a110ee61e989dcf170e72d82ebe38b0e2",
        "trend_P.csv": "8baa8a3950f6daf66a7344577ef6edc89acd1331752a745ace443de9a8fed9f3",
        "trend_PC.csv": "8d965cf649e520eafce5db283ba1fe524bc4efadffcac1b92948264b5bc28894",
        "trend_TD.csv": "94ed3bb2ad8c853955175b640ea2fc7263539e5ff6610a3b6844c196fe1ef945",
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
        "report.json": "1c60ec3432e3dc3a12086b427e150c402ccae50fa470e76acdad24f3f8cecc68",
        "roc.csv": "8b375486a5f46068193ea49fa5d90ec1e76c39505d373b4376d6d48b52c32a62",
        "shap_full.csv": "e8fe6dee24f644c1f968ec1b2a74896e5742107ed5f97a40078df1f734d282c7",
        "shap_optimized.csv": "0eb0d3a85c0e482f57566dadd5644fd9b85000cf7d26f2aad2148a57723d95e7",
        "trend_AD.csv": "9f5bb89f963d957fb67875410a33d39fb731ff53986ab99a499677c3b25f54be",
        "trend_AW.csv": "c0ad6a50d2bb6a137a291cb02a9c4d2000d934e871a1c51985289a047f6db9fe",
        "trend_C.csv": "c22b25c114c81a271fd1cd457ff747c3572de4a63a7bcb5130cd498f009b2484",
        "trend_CA.csv": "f0ff84cb8ea93cadfce218e895f0326b7671597fccde3fedbf21fee929c08f9c",
        "trend_FGR.csv": "14ecfb7a42860d7e6f0a37dbefc84d150fc5a71c22064a01c66079dff3301d38",
        "trend_FR.csv": "9bb21fe0f972f66e3de81f8b2b145e8a110ee61e989dcf170e72d82ebe38b0e2",
        "trend_P.csv": "8baa8a3950f6daf66a7344577ef6edc89acd1331752a745ace443de9a8fed9f3",
        "trend_PC.csv": "8d965cf649e520eafce5db283ba1fe524bc4efadffcac1b92948264b5bc28894",
        "trend_TD.csv": "94ed3bb2ad8c853955175b640ea2fc7263539e5ff6610a3b6844c196fe1ef945",
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
        "trend_AW.csv": "e743c22ecc0f20c9e9d10a8044fb176b439bb6e392987e25774acf1e55acf248",
        "trend_CA.csv": "1b0b11213470f7ddbbcac2c2520dd371a66ab82f4e561bfe11f9f5172ceb6083",
        "trend_FR.csv": "f9ddddacbe8f32f76a15f51f100c4efa1c511964099f0ec6c9de9b6396c9cf98",
    },
    "attribute-all": {
        "importance.csv": "cab70c304eff9df772c8ddd3d49d5bca0226de8e4d3c7d208b190a98b5c58285",
        "shap_values.csv": "e8fe6dee24f644c1f968ec1b2a74896e5742107ed5f97a40078df1f734d282c7",
        "trend_AD.csv": "5a0c72c2a55d2283ba7d0c7c54b842ca68baea4e3cb73e24648de3d76483aa06",
        "trend_AW.csv": "37e7c377a05af41ea9b7dfed0fbf7996b4d03e21c5fce745f5c6e8aba38787d2",
        "trend_C.csv": "7d2237eaff0630e4672ce91e828d50a17240cfbf49a8900be72732be8e11db4c",
        "trend_CA.csv": "945b6c360835967ce2205b341b6ddd508fd1de60e7cb8633032e07c024c197da",
        "trend_FGR.csv": "60adcf6904ae823706f36269e6e11d3ae2e8075b6ac982655b83145916f2d008",
        "trend_FR.csv": "d33c3c3e02a04d98106f849f7e641d3cc494f21df6a0650969b836eb3b6be246",
        "trend_P.csv": "4e05d0ef0936b13a8f9ac10990a6b099d8f4b3194474142f67f02710ebb98d5c",
        "trend_PC.csv": "40387126c3b4c6c24d1c8fc4a5de8d762f3eb67888f63722408be6aacefb6587",
        "trend_TD.csv": "c77d9c86a0252b83467cffcaeba58a69fb1087a39374730793f655bbbb097189",
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

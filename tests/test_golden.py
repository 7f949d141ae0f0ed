"""Byte golden: the SHA-256 of every file each command writes.

Each case runs ``stratlogit.cli.main`` in-process with relative input
paths, because the input path is echoed into ``report.json``: from the
repository root, or, for a case whose input is generated, from a
temporary directory the input is written into.  A digest may be
re-pinned only together with a CHANGES.md entry that says why the bytes
moved and gives the maximum relative deviation of each moved float field
against the old output.

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
from stratlogit.ingest import write_dataset_csv
from stratlogit.synth import make_scholar_dataset

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
    "report-synth2000-stepwise": ["report", "--input", "scholars.csv", "--select", "stepwise"],
}
# STRAT_THREADS values each case runs under; None leaves it unset.
THREADS = {
    "report-enumerate": ("1", "2"),
    "report-stepwise": ("1", "2"),
    "report-synth2000-stepwise": ("1", "2"),
}


def write_synth2000(directory):
    """The benchmark's synth2000 input at its default seed, as scholars.csv."""
    dataset = make_scholar_dataset(n=2000, seed=7, target_increase=None)
    write_dataset_csv(dataset, os.path.join(directory, "scholars.csv"))


# case id -> writer of the input it reads, into the directory it runs from
INPUTS = {"report-synth2000-stepwise": write_synth2000}

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
        "trend_AD.csv": "80f90386bd26b0d4defd89fbb43bbbff5eaa4e287e247b2864be87eb8abd3ed2",
        "trend_AW.csv": "502e31a6cf5d0ab43bddbf38f5791b07fa683b08ed84d0fbcfe4f0ebc4dad9b3",
        "trend_C.csv": "91f68497f99300003ec2666a7f827ea5eb69a0258cef5de4f265f6e2c383367c",
        "trend_CA.csv": "44ed6b22eea01dfc8b70c545c5449da93bf2b26633898ab441fe1f081a130e87",
        "trend_FGR.csv": "8f0c15ef45f0100747ebf004e2ee01b5d0c231628b5d85091ef82a0321c648e9",
        "trend_FR.csv": "1a0bb61144379eca99d23fafbd759cdce3b036a2b38c7c79c7975d82c844c6f5",
        "trend_P.csv": "24176773cbee5d3004cba26c5cbe3f08c495dcae0f0ab94d16db26350d119958",
        "trend_PC.csv": "763d3306dcea93ecece5ec24e846e4a6202189d1a984303c488f9405f6da9569",
        "trend_TD.csv": "d7b4dee3388675f392fdaf11c97986f288784f6a08427c247e08e8a9f2ef3452",
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
        "trend_AD.csv": "80f90386bd26b0d4defd89fbb43bbbff5eaa4e287e247b2864be87eb8abd3ed2",
        "trend_AW.csv": "502e31a6cf5d0ab43bddbf38f5791b07fa683b08ed84d0fbcfe4f0ebc4dad9b3",
        "trend_C.csv": "91f68497f99300003ec2666a7f827ea5eb69a0258cef5de4f265f6e2c383367c",
        "trend_CA.csv": "44ed6b22eea01dfc8b70c545c5449da93bf2b26633898ab441fe1f081a130e87",
        "trend_FGR.csv": "8f0c15ef45f0100747ebf004e2ee01b5d0c231628b5d85091ef82a0321c648e9",
        "trend_FR.csv": "1a0bb61144379eca99d23fafbd759cdce3b036a2b38c7c79c7975d82c844c6f5",
        "trend_P.csv": "24176773cbee5d3004cba26c5cbe3f08c495dcae0f0ab94d16db26350d119958",
        "trend_PC.csv": "763d3306dcea93ecece5ec24e846e4a6202189d1a984303c488f9405f6da9569",
        "trend_TD.csv": "d7b4dee3388675f392fdaf11c97986f288784f6a08427c247e08e8a9f2ef3452",
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
        "trend_AW.csv": "aa614cfa1b11594157c44153b2741ac8754015f3b0b659c4e5cc4d8ef254d965",
        "trend_CA.csv": "795ce50f802082b65955f90661e180dbc9715eb50f48c93960ee79f39ce75e4d",
        "trend_FR.csv": "1e424f2ff9b5a3f27d5b8c39bcb82aca21a44f162d07f667d7290e09b561dcb7",
    },
    "attribute-all": {
        "importance.csv": "cab70c304eff9df772c8ddd3d49d5bca0226de8e4d3c7d208b190a98b5c58285",
        "shap_values.csv": "e8fe6dee24f644c1f968ec1b2a74896e5742107ed5f97a40078df1f734d282c7",
        "trend_AD.csv": "849cd04853aba1d0487df6275e18cab090eff143cbf3ac668e50642163d08a0c",
        "trend_AW.csv": "9e9d29c0b9345dc30a0d03c4b62e6669edb676190ee7055c5dc3593ccd3bdf56",
        "trend_C.csv": "df626cbedf496e2902a5d3ccda69636c51d047e07e667bdef9172df7bbb62a7b",
        "trend_CA.csv": "278761d47e62dba19649f5020a7fef00c60bbde5bd83720125e8b36497a9358e",
        "trend_FGR.csv": "dbc54ce82a628f83e76ad023d31b07e30e0816bf445e70fefba6ed7f0525c1ee",
        "trend_FR.csv": "f5c8be3d6f13363050e54561c0dbadb29da6b6242c23592f6352add901e39585",
        "trend_P.csv": "b9663d5d0da36fd871d2c184765c9a9159cbea6746ed8497d27088e785cf06ad",
        "trend_PC.csv": "a6510627cf4bfb8c05fc90ae4137d19849702324c209a2b0f222ea00cf1052e2",
        "trend_TD.csv": "6c5e503ae469b619a578d2fe2465e0b0f269f4f2c1db26599a8d9ea7d3326c7c",
    },
    "communities": {
        "dendrogram.json": "7b3ce8f2b33e9da51932985a33104fb0f89de97974e56411bb93f2c1a4699435",
        "partition.csv": "cc02a66b17b230f6d969b66c8e900f01e051c7ee00ffe048aca1bad5223f42b6",
    },
    "report-synth2000-stepwise": {
        "comparison.csv": "78ee905292ab9b4b4d005e45c6a5e729081cf3f1d80344f5bb54cf67fde6ae2a",
        "confusion.csv": "32a2a1a8fd91b57b8aa7eee4f24e3a54bcecbbc34f58fc58676d13914f9ff256",
        "correlation.csv": "14202c5c8fc093ee0d4c53edb66123bef33c16b8dac2f896537bcad9ea517bb4",
        "descriptive_stats.csv": "472df5ca58f798149878214f62bf442a9c4d71e9692f9763de9e22d792a3f2e4",
        "features.csv": "5856b0546a0b64890f798aa36d37469afc5b784a3af16cd688d62c65a6173ee1",
        "importance_full.csv": "5b425b8229cd0830ccdd86296c9f6fef9c00945d75cac6be6d5a887cb1ca6d6c",
        "importance_optimized.csv": "d76de9ce3f018873611ddd8e178a03d5b2265cb2b4611c31ecf1bcb611362cee",
        "inference_full.csv": "4b4a62f846614e8d42439944614067efa5d95ce4e2d0f4cd8e51275340af3e57",
        "inference_optimized.csv": "a6916108e5f50afc64bc3cd50a4be57334733ef38d1ae00f6150a26fb4f4f147",
        "metrics.csv": "9e87bc1c9c04bd586d4e5dea8affd8535f09fc70e9cf95c7282fa88717c87f6f",
        "report.json": "c5a52b724af7f5fc949858727b188fdd330c62101c2132f41afa35b638ef32dd",
        "roc.csv": "a7a6b69dc3bdcc96dd8d917ddc734ca0047210d3ec8fe20a920be683e02adae0",
        "shap_full.csv": "6d3a45db7fb1e1f848ab54eca1bdddddcfb16890a1ca4f0436bdfa516331b0d9",
        "shap_optimized.csv": "92ffd7e7281c675954c09915aa797588a757b801f12c78086f95f2f8c12d1d36",
        "trend_AD.csv": "8b4b5799df3100617c8c7f5893ce2956986fe55d3c40f8b9adb23aa3af7e1563",
        "trend_AW.csv": "03fcf4aa88d3d905b917941212153e70df5dc36029b16ae3e71b69c6d0107de3",
        "trend_C.csv": "87992c8cb489374695bc2b34647e0a8af6db2302ce31b6412ee541ca2d21bb74",
        "trend_CA.csv": "4d7bee29293f89f1e3da69ea933cef0088522b3df5a754bd6c664f3e00e45b45",
        "trend_FGR.csv": "3ff4fc484afa65aebd6bf293a1ada2f5de3b85f805e3734520d75c63d3b1b662",
        "trend_FR.csv": "ea6d3e517ac8755e4544298bb7ef8a2dcbd677d064659e630b0070c3804762e7",
        "trend_P.csv": "3d0eced46cb96af14ef1c74f26c0e1a604105d9a85e41a8704ccd33efcf025b3",
        "trend_PC.csv": "de21ebe9bd140cdefeeab8f4933835f88498df506020a80795ca77cf4f9787fb",
        "trend_TD.csv": "4b42fbde15309599b62ec5ceca1d879ec83aeeab605f9cf813551262323cccda",
        "vif.csv": "596cda8d5182fa248e5d909af19d96c2552bf5b3e01adf9db96f5ff731b8b6e6",
    },
}


def run_case(case_id, threads, out_dir):
    """{file name: sha256 hex} of what the case writes into ``out_dir``."""
    saved_cwd = os.getcwd()
    saved_threads = os.environ.pop("STRAT_THREADS", None)
    try:
        with tempfile.TemporaryDirectory() as work:
            if case_id in INPUTS:
                INPUTS[case_id](work)
                os.chdir(work)
            else:
                os.chdir(ROOT)
            if threads is not None:
                os.environ["STRAT_THREADS"] = threads
            assert main([*CASES[case_id], "--out", os.path.abspath(out_dir)]) == 0
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

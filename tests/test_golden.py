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

def write_synth2000(directory):
    """The benchmark's synth2000 input at its default seed, as scholars.csv."""
    dataset = make_scholar_dataset(n=2000, seed=7, target_increase=None)
    write_dataset_csv(dataset, os.path.join(directory, "scholars.csv"))


# case id -> writer of the input it reads, into the directory it runs from
INPUTS = {"report-synth2000-stepwise": write_synth2000}

GOLDEN = {
    "report-enumerate": {
        "comparison.csv": "178d186443c3ed6d42f3d395faf6add222f3e9974a219863c28f123dd7192367",
        "confusion.csv": "30e133442f7ff4381af9b68f91262e9f5c43008e93e15091baa4e9eacfc433de",
        "correlation.csv": "d3c49cb04924a588b9f41d5cf3d884847660b3a8002f88223fe86dfc1cbd6ad3",
        "descriptive_stats.csv": "38a4041e36cc715ef3c0c217ddfe22363c7f5516736d91f2281b9b6b4273bb5c",
        "features.csv": "b7f9e68c75510636af684750e5014746d579efc1ceac0d37d13d0c313811e956",
        "importance_full.csv": "158aff9f1250d5ed128bf7bd7978a5f5b028d7aa9b179f22394dce7ea82582e1",
        "importance_optimized.csv": "8045c19d3fa3324169d9cb06fe7224950c2bfb5aedfc0c2a39bf40e7a26b8469",
        "inference_full.csv": "1210c4d8b5b2a11b2cada5d712cbff63946e5c7ae6e999c928dc45a00354c09b",
        "inference_optimized.csv": "9f8b7ad4ab229a4f1dbb857c3624f81485b2578deda87fa39e8f2bd3e7196053",
        "metrics.csv": "a0881fc313a9d0777da4d67d6e15f99abfa14e3565f874b964ab0a5cab70555f",
        "report.json": "c7ceb5d9e3cbe2c0c20a2c8c076ae675314a828e5d55dd73a10af4959e43d7dc",
        "roc.csv": "0ca044065a7becee87605adda7a60fd38d3fe4011e8de719fa2e0f5b263881ec",
        "shap_full.csv": "a3f6f2999d0b61cb0327cca72a7f0b9a27b9242deb2bf59a3a91b7117638063f",
        "shap_optimized.csv": "3208d4f9031d07c9c8022ff3acd57c6272854e235358ef51cd7226b2efbb0ffc",
        "trend_AD.csv": "bf1914100879db61bcccfa3cf3373a2f55d05eacd43567796cd570efe7c0e025",
        "trend_AW.csv": "51752f6d77ec8eb31d5cf44a50e3bd0d0c3d029e9860692ef3e150eff1f66729",
        "trend_C.csv": "8d949708b379e6adc4021ba33961d5e5efb4552b02f16e6a45efff54307b3c0c",
        "trend_CA.csv": "f8ea1c9fa523fbba8c0f1017b1ce52b78a312b3240129216447f09ba46d58eae",
        "trend_FGR.csv": "faa33b107596abc59b266b457ca6d39487d944850555058483743e09f0bd9938",
        "trend_FR.csv": "b095633cb5cafd039cf1b0634904a75feed53be5a810d5be4c2c6e9155e07de1",
        "trend_P.csv": "d031936018d5e3076468dee0bf2f59a8f8e26622fc5226d90afe0ecd0531c975",
        "trend_PC.csv": "f0cf05af766f98ffb3ebfa25470a1880d12c6bed84a3a56e8e6f59a0d0f241e4",
        "trend_TD.csv": "7aab6d55f28467250bfd4ad822a4c2a26d46c61b1d0e5959793dba262ff5788a",
        "vif.csv": "5cd5678367111e8d3ee7147b02fefa6ff94b487b11f6b1f49de2b604270497e1",
    },
    "report-stepwise": {
        "comparison.csv": "9b822808046e78efeda1a4a6437fb12a5dad175f084c2c6545355cf270eb24c3",
        "confusion.csv": "30e133442f7ff4381af9b68f91262e9f5c43008e93e15091baa4e9eacfc433de",
        "correlation.csv": "d3c49cb04924a588b9f41d5cf3d884847660b3a8002f88223fe86dfc1cbd6ad3",
        "descriptive_stats.csv": "38a4041e36cc715ef3c0c217ddfe22363c7f5516736d91f2281b9b6b4273bb5c",
        "features.csv": "b7f9e68c75510636af684750e5014746d579efc1ceac0d37d13d0c313811e956",
        "importance_full.csv": "158aff9f1250d5ed128bf7bd7978a5f5b028d7aa9b179f22394dce7ea82582e1",
        "importance_optimized.csv": "8045c19d3fa3324169d9cb06fe7224950c2bfb5aedfc0c2a39bf40e7a26b8469",
        "inference_full.csv": "1210c4d8b5b2a11b2cada5d712cbff63946e5c7ae6e999c928dc45a00354c09b",
        "inference_optimized.csv": "9f8b7ad4ab229a4f1dbb857c3624f81485b2578deda87fa39e8f2bd3e7196053",
        "metrics.csv": "a0881fc313a9d0777da4d67d6e15f99abfa14e3565f874b964ab0a5cab70555f",
        "report.json": "ec3dae131a0a17676ca20fc344cf3afd3490bb257d853d8ec25ec3b246b17814",
        "roc.csv": "0ca044065a7becee87605adda7a60fd38d3fe4011e8de719fa2e0f5b263881ec",
        "shap_full.csv": "a3f6f2999d0b61cb0327cca72a7f0b9a27b9242deb2bf59a3a91b7117638063f",
        "shap_optimized.csv": "3208d4f9031d07c9c8022ff3acd57c6272854e235358ef51cd7226b2efbb0ffc",
        "trend_AD.csv": "bf1914100879db61bcccfa3cf3373a2f55d05eacd43567796cd570efe7c0e025",
        "trend_AW.csv": "51752f6d77ec8eb31d5cf44a50e3bd0d0c3d029e9860692ef3e150eff1f66729",
        "trend_C.csv": "8d949708b379e6adc4021ba33961d5e5efb4552b02f16e6a45efff54307b3c0c",
        "trend_CA.csv": "f8ea1c9fa523fbba8c0f1017b1ce52b78a312b3240129216447f09ba46d58eae",
        "trend_FGR.csv": "faa33b107596abc59b266b457ca6d39487d944850555058483743e09f0bd9938",
        "trend_FR.csv": "b095633cb5cafd039cf1b0634904a75feed53be5a810d5be4c2c6e9155e07de1",
        "trend_P.csv": "d031936018d5e3076468dee0bf2f59a8f8e26622fc5226d90afe0ecd0531c975",
        "trend_PC.csv": "f0cf05af766f98ffb3ebfa25470a1880d12c6bed84a3a56e8e6f59a0d0f241e4",
        "trend_TD.csv": "7aab6d55f28467250bfd4ad822a4c2a26d46c61b1d0e5959793dba262ff5788a",
        "vif.csv": "5cd5678367111e8d3ee7147b02fefa6ff94b487b11f6b1f49de2b604270497e1",
    },
    "ingest": {
        "normalized.csv": "068c270f1821f47b0b8a1adbab17fbd75446fcb403b4f66675de35f72399ef34",
    },
    "describe": {
        "correlation.csv": "d3c49cb04924a588b9f41d5cf3d884847660b3a8002f88223fe86dfc1cbd6ad3",
        "descriptive_stats.csv": "38a4041e36cc715ef3c0c217ddfe22363c7f5516736d91f2281b9b6b4273bb5c",
        "features.csv": "b7f9e68c75510636af684750e5014746d579efc1ceac0d37d13d0c313811e956",
        "vif.csv": "5cd5678367111e8d3ee7147b02fefa6ff94b487b11f6b1f49de2b604270497e1",
    },
    "fit-subset": {
        "fit.json": "edcc67ba3e3028db09af6f59c7ee4b00f9e4ff92be1eeb624b89fdc50d0c7548",
        "inference.csv": "5b3a90ad805f25a088deb196c7631c06313dece023bbc1cc632fdb6d879c86e0",
    },
    "fit-all": {
        "fit.json": "a50c6f5130795e4a5dfd0a5a6fafa768a2f3966e5f110c6670ea91dc3e77846f",
        "inference.csv": "1210c4d8b5b2a11b2cada5d712cbff63946e5c7ae6e999c928dc45a00354c09b",
    },
    "select-enumerate": {
        "comparison.csv": "178d186443c3ed6d42f3d395faf6add222f3e9974a219863c28f123dd7192367",
        "selection.json": "6b8285b0d73432f6f0991ae2c6ce8a8c73fe2b43193efc3962ea09ebb087709a",
    },
    "select-stepwise": {
        "comparison.csv": "9b822808046e78efeda1a4a6437fb12a5dad175f084c2c6545355cf270eb24c3",
        "selection.json": "2637c023b76feaed610a45f2db61b87391b63ccb7bcfd710599d58a996bcaec7",
    },
    "evaluate-subset": {
        "confusion.csv": "32769748e8406b78eb51b043a4cd46f28fe8687ada33aa30e901de76e2d3f5e0",
        "metrics.csv": "91ae1ca0028eb6ef515b43164df3aae133d5ec7bf2f7454fd38a7fc6265ad33f",
        "roc.csv": "d7c11540996e1d1f3c6b852a99454e1d64810ffe89d0213d2decd77d1c026ff1",
    },
    "attribute-subset": {
        "importance.csv": "081823e9a4a5a6c1e277a7b93c509aa648bf46bb317e963a3e9ce9061484bf9a",
        "shap_values.csv": "f80b6491bdb7d4e6786d704c02e9d0551d20a88a85e2cb11caf22bc574573a3b",
        "trend_AW.csv": "1582c6adec9cedaf6852ab4c7376cbf1df40dd4684d0b583a713f4de108d592e",
        "trend_CA.csv": "e93e9fe39c5eb9e3f7e5648cc244e0a7a0596c030f0201f52bbf2089f1125459",
        "trend_FR.csv": "1e424f2ff9b5a3f27d5b8c39bcb82aca21a44f162d07f667d7290e09b561dcb7",
    },
    "attribute-all": {
        "importance.csv": "158aff9f1250d5ed128bf7bd7978a5f5b028d7aa9b179f22394dce7ea82582e1",
        "shap_values.csv": "a3f6f2999d0b61cb0327cca72a7f0b9a27b9242deb2bf59a3a91b7117638063f",
        "trend_AD.csv": "b5b8385e5ab921950dc4cde4c913e9b0a118d315a61f5f1e0a3687b366342e74",
        "trend_AW.csv": "8c3ae8ba4480bfaed2988531fd936c051ba0704572e7e5bc5c09c4a2768f6f24",
        "trend_C.csv": "30bf6fdfeb29355c2515f099c24e4159b68cbdb4a9d34bdce3964536b675ae43",
        "trend_CA.csv": "1ec421e90a0b2334f34d83cc908019a7db5a06526237532b810e2452a3452a6f",
        "trend_FGR.csv": "dbc54ce82a628f83e76ad023d31b07e30e0816bf445e70fefba6ed7f0525c1ee",
        "trend_FR.csv": "6ab7fb83b28f4a675cea518c78faf4e71aba7195f82e1428cca269188d7ac153",
        "trend_P.csv": "d0514e46ec23cb4c979794984083b962a9e9000092770842934772eddd0859ef",
        "trend_PC.csv": "94d8a43e0d46ffd46a0b4294c5c07d1cf72ea6eb6e9b366a0a364f51d319e81e",
        "trend_TD.csv": "7c9af4292c5c5fd45fa0ba1732a41ac3a0009e3eb0109b8796648cbe0f4ab774",
    },
    "communities": {
        "dendrogram.json": "7b3ce8f2b33e9da51932985a33104fb0f89de97974e56411bb93f2c1a4699435",
        "partition.csv": "cc02a66b17b230f6d969b66c8e900f01e051c7ee00ffe048aca1bad5223f42b6",
    },
    "report-synth2000-stepwise": {
        "comparison.csv": "fa4ec1062527c945b0b98fe4675b212c74b840e5d2e22da7354cf404ba48f2fb",
        "confusion.csv": "32a2a1a8fd91b57b8aa7eee4f24e3a54bcecbbc34f58fc58676d13914f9ff256",
        "correlation.csv": "14202c5c8fc093ee0d4c53edb66123bef33c16b8dac2f896537bcad9ea517bb4",
        "descriptive_stats.csv": "472df5ca58f798149878214f62bf442a9c4d71e9692f9763de9e22d792a3f2e4",
        "features.csv": "5856b0546a0b64890f798aa36d37469afc5b784a3af16cd688d62c65a6173ee1",
        "importance_full.csv": "a0be19ebb8916ab4aa17f5378d8ceb1341c442e8ae66e6ef52c40e81e9dd8d3e",
        "importance_optimized.csv": "d1d6672b1d9d502fb3e4cfc46098c2d40515a38e6a9b9ae8b799c70a072e6962",
        "inference_full.csv": "00ea9ce70eaf609232cd197e658f72475f155f19d894bfc0b747e309f21e55bf",
        "inference_optimized.csv": "c63631cfc1c03e25a41cf688fce32728703cf3cb74b3032f25203cdf1c411128",
        "metrics.csv": "9e87bc1c9c04bd586d4e5dea8affd8535f09fc70e9cf95c7282fa88717c87f6f",
        "report.json": "79989d3ef078f00355a5237cc886a8e960b06c6d4403cd3896a12fed2d12841b",
        "roc.csv": "40c2b15f7053878a5b96ec479895697f37a7cb5ac53b0641fc920b255463d5c5",
        "shap_full.csv": "c309a78f9b02a6c90e10b8783232cb0fc73c1b2a7f7669da66acb9c0aa7bb11d",
        "shap_optimized.csv": "8d173af917035a152e84ee4d04fc9fb643a31894e36a8620ae3da6133d1c55fc",
        "trend_AD.csv": "e73118d4fc926b4c1aa439aa17b51256d79de87e9541766700f9a3ce9053ecad",
        "trend_AW.csv": "03fcf4aa88d3d905b917941212153e70df5dc36029b16ae3e71b69c6d0107de3",
        "trend_C.csv": "80aa4ce7f45bf17bd3366ff790b9daf27e182da901309b1cdce15d657126948b",
        "trend_CA.csv": "4d7bee29293f89f1e3da69ea933cef0088522b3df5a754bd6c664f3e00e45b45",
        "trend_FGR.csv": "3ff4fc484afa65aebd6bf293a1ada2f5de3b85f805e3734520d75c63d3b1b662",
        "trend_FR.csv": "ea6d3e517ac8755e4544298bb7ef8a2dcbd677d064659e630b0070c3804762e7",
        "trend_P.csv": "aa5bc0cf5bfd7b5756e49b64ef2393844070c90329c6bde6bb24cd3d6cf49897",
        "trend_PC.csv": "6bde1f66b036c76fff7bf454dfca3a6a3733c2283962173eb9ee6a8f41e33671",
        "trend_TD.csv": "e096c606f1abef39a9fcc7d39431f89708d2a2ea2b0abbad957f84b7c3d02e52",
        "vif.csv": "527ee28c0b318006d9bbb4bc443bdeba15bdb3b552d0ccf7102f6e244c700c24",
    },
}


def run_case(case_id, out_dir):
    """{file name: sha256 hex} of what the case writes into ``out_dir``."""
    saved_cwd = os.getcwd()
    try:
        with tempfile.TemporaryDirectory() as work:
            if case_id in INPUTS:
                INPUTS[case_id](work)
                os.chdir(work)
            else:
                os.chdir(ROOT)
            assert main([*CASES[case_id], "--out", os.path.abspath(out_dir)]) == 0
    finally:
        os.chdir(saved_cwd)
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def check_golden(case_id, out_dir):
    got = run_case(case_id, out_dir)
    want = GOLDEN[case_id]
    moved = sorted(name for name in want.keys() & got.keys() if want[name] != got[name])
    missing = sorted(want.keys() - got.keys())
    extra = sorted(got.keys() - want.keys())
    assert not (moved or missing or extra), (
        f"{case_id}: moved {moved}, missing {missing}, unexpected {extra}"
    )


@pytest.mark.parametrize("case_id", CASES)
def test_output_bytes_match_golden(case_id, tmp_path):
    check_golden(case_id, tmp_path)


# The package once read STRAT_THREADS in both searches and refused a
# non-integer value (exit 2 from select and report); it reads no thread
# setting now, so any value leaves every searching case's bytes as they are.
@pytest.mark.parametrize("case_id", [c for c in CASES if CASES[c][0] in ("select", "report")])
def test_former_thread_variable_is_ignored(case_id, tmp_path, monkeypatch):
    monkeypatch.setenv("STRAT_THREADS", "zero")
    check_golden(case_id, tmp_path)


if __name__ == "__main__":
    pinned = {}
    for case_id in CASES:
        with tempfile.TemporaryDirectory() as out_dir, redirect_stdout(sys.stderr):
            pinned[case_id] = run_case(case_id, out_dir)
    lines = ["GOLDEN = {"]
    for case_id, digests in pinned.items():
        lines.append(f'    "{case_id}": {{')
        lines += [f'        "{name}": "{digest}",' for name, digest in digests.items()]
        lines.append("    },")
    sys.stdout.write("\n".join(lines + ["}"]) + "\n")

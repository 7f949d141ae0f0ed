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
        "comparison.csv": "cfc0e0437bddd8ae39678fe426ca404adeb4ffd645e8c50f1fb730930b014a39",
        "confusion.csv": "30e133442f7ff4381af9b68f91262e9f5c43008e93e15091baa4e9eacfc433de",
        "correlation.csv": "d3c49cb04924a588b9f41d5cf3d884847660b3a8002f88223fe86dfc1cbd6ad3",
        "descriptive_stats.csv": "38a4041e36cc715ef3c0c217ddfe22363c7f5516736d91f2281b9b6b4273bb5c",
        "features.csv": "b7f9e68c75510636af684750e5014746d579efc1ceac0d37d13d0c313811e956",
        "importance_full.csv": "158aff9f1250d5ed128bf7bd7978a5f5b028d7aa9b179f22394dce7ea82582e1",
        "importance_optimized.csv": "34241f0ab2f54ca579fd9ad3e032d205686eded3ad5f80f625186d69dfb01a08",
        "inference_full.csv": "1210c4d8b5b2a11b2cada5d712cbff63946e5c7ae6e999c928dc45a00354c09b",
        "inference_optimized.csv": "f563c278b0aab827c626b56f0bcc62fec96ed2a2a91e288dcac05319db9c273b",
        "metrics.csv": "a0881fc313a9d0777da4d67d6e15f99abfa14e3565f874b964ab0a5cab70555f",
        "report.json": "6c1bcfc2ebb66c011581fe69fc0ac87095bb4b07329d24135371d1d26657a4f3",
        "roc.csv": "7074add8a62e5a5d615b57e79a00a1a120cc12d403bdf708be86c107b4eb96e2",
        "shap_full.csv": "a3f6f2999d0b61cb0327cca72a7f0b9a27b9242deb2bf59a3a91b7117638063f",
        "shap_optimized.csv": "e92cec13306ea4cec009a7438c18e8f62a682f9eda69236c94ff4e1e2f9bb6b2",
        "trend_AD.csv": "bf1914100879db61bcccfa3cf3373a2f55d05eacd43567796cd570efe7c0e025",
        "trend_AW.csv": "b750cd285842d573e402d4352e7ed3b2dd5da980e8394bac62d649e74d2d0f30",
        "trend_C.csv": "6ecc2e6e3c75e73683b490b1323eb8878bb4e0bb32f698d6c3c26e13c43e7f06",
        "trend_CA.csv": "1854ef46f38fa9e97d244f5870b771f1fbdbdc5dbd0d7eb8091c5cc2bedf2197",
        "trend_FGR.csv": "a7e5d114cbfb103b6ff9f71f9484767ae6f960878da44857143804ec6be37e2c",
        "trend_FR.csv": "b095633cb5cafd039cf1b0634904a75feed53be5a810d5be4c2c6e9155e07de1",
        "trend_P.csv": "d031936018d5e3076468dee0bf2f59a8f8e26622fc5226d90afe0ecd0531c975",
        "trend_PC.csv": "f0cf05af766f98ffb3ebfa25470a1880d12c6bed84a3a56e8e6f59a0d0f241e4",
        "trend_TD.csv": "7aab6d55f28467250bfd4ad822a4c2a26d46c61b1d0e5959793dba262ff5788a",
        "vif.csv": "5cd5678367111e8d3ee7147b02fefa6ff94b487b11f6b1f49de2b604270497e1",
    },
    "report-stepwise": {
        "comparison.csv": "46dc6f92767e8c638d19126425b167bea51012e82121c2d41f569ea77562e058",
        "confusion.csv": "30e133442f7ff4381af9b68f91262e9f5c43008e93e15091baa4e9eacfc433de",
        "correlation.csv": "d3c49cb04924a588b9f41d5cf3d884847660b3a8002f88223fe86dfc1cbd6ad3",
        "descriptive_stats.csv": "38a4041e36cc715ef3c0c217ddfe22363c7f5516736d91f2281b9b6b4273bb5c",
        "features.csv": "b7f9e68c75510636af684750e5014746d579efc1ceac0d37d13d0c313811e956",
        "importance_full.csv": "158aff9f1250d5ed128bf7bd7978a5f5b028d7aa9b179f22394dce7ea82582e1",
        "importance_optimized.csv": "1bbd7f5d1274eea492486df7c0af4c98f674471241a6ac2e958874307c08cec1",
        "inference_full.csv": "1210c4d8b5b2a11b2cada5d712cbff63946e5c7ae6e999c928dc45a00354c09b",
        "inference_optimized.csv": "66edc771a5f243c3e29bd6c4932bcc72e0c211d96c501eb03dea186d0ecb2442",
        "metrics.csv": "a0881fc313a9d0777da4d67d6e15f99abfa14e3565f874b964ab0a5cab70555f",
        "report.json": "3f5c37f7bb749227408806eefdb184bb2ee77f7c04ca86dea96951771c774b42",
        "roc.csv": "d1e28417e002fcabd1bfd534764933f09e031559fa78c294ac825560fdc9eabf",
        "shap_full.csv": "a3f6f2999d0b61cb0327cca72a7f0b9a27b9242deb2bf59a3a91b7117638063f",
        "shap_optimized.csv": "0ccc621a764389240730083a342236f7e10705a07ec65b9f299f5b10e051f1c6",
        "trend_AD.csv": "bf1914100879db61bcccfa3cf3373a2f55d05eacd43567796cd570efe7c0e025",
        "trend_AW.csv": "83fdf1722f22e8b91566ad7638bf786dac7572c10de294334d6d848f0b17a2bd",
        "trend_C.csv": "6ecc2e6e3c75e73683b490b1323eb8878bb4e0bb32f698d6c3c26e13c43e7f06",
        "trend_CA.csv": "1854ef46f38fa9e97d244f5870b771f1fbdbdc5dbd0d7eb8091c5cc2bedf2197",
        "trend_FGR.csv": "358a00d3e99574f5cbb47ee5acd57064b7ebe31d8d0181b4ef529c55069cea2c",
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
        "comparison.csv": "cfc0e0437bddd8ae39678fe426ca404adeb4ffd645e8c50f1fb730930b014a39",
        "selection.json": "6b8285b0d73432f6f0991ae2c6ce8a8c73fe2b43193efc3962ea09ebb087709a",
    },
    "select-stepwise": {
        "comparison.csv": "46dc6f92767e8c638d19126425b167bea51012e82121c2d41f569ea77562e058",
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
        "comparison.csv": "1735a1e00682353af79bc5d4efada407085e31883f3d000997f464cca33982aa",
        "confusion.csv": "32a2a1a8fd91b57b8aa7eee4f24e3a54bcecbbc34f58fc58676d13914f9ff256",
        "correlation.csv": "14202c5c8fc093ee0d4c53edb66123bef33c16b8dac2f896537bcad9ea517bb4",
        "descriptive_stats.csv": "472df5ca58f798149878214f62bf442a9c4d71e9692f9763de9e22d792a3f2e4",
        "features.csv": "5856b0546a0b64890f798aa36d37469afc5b784a3af16cd688d62c65a6173ee1",
        "importance_full.csv": "a0be19ebb8916ab4aa17f5378d8ceb1341c442e8ae66e6ef52c40e81e9dd8d3e",
        "importance_optimized.csv": "3efcc1dd2bcef02aae4d8f2acd2177ddfc48c318347952fce72a794815169d2c",
        "inference_full.csv": "00ea9ce70eaf609232cd197e658f72475f155f19d894bfc0b747e309f21e55bf",
        "inference_optimized.csv": "43cac0153938bc1f531a225d2112c47bfe2f811254c890ceea15d57fae0c0553",
        "metrics.csv": "9e87bc1c9c04bd586d4e5dea8affd8535f09fc70e9cf95c7282fa88717c87f6f",
        "report.json": "fd12350c272711f86127a9646679503a37da0bbc9c13ab71a4fdc84428577a18",
        "roc.csv": "9f34b20d9a51aa2e8957db09de77b9effa4d625049d137ddbb2d219879ea5475",
        "shap_full.csv": "c309a78f9b02a6c90e10b8783232cb0fc73c1b2a7f7669da66acb9c0aa7bb11d",
        "shap_optimized.csv": "2194be4286e6ef4a485e46ccbb21ed7bbc27ba32be38667fc321a705e6c82c7e",
        "trend_AD.csv": "ae240014e2ea2e220a205762a0391884486ef15e1626cd4a8c6e8894db44f0a0",
        "trend_AW.csv": "03fcf4aa88d3d905b917941212153e70df5dc36029b16ae3e71b69c6d0107de3",
        "trend_C.csv": "c21a06eb866947ecbbe87643d88daafd0b585d7a42493e5335cf8ff19165db42",
        "trend_CA.csv": "be0149809c384c10f3bdee3047dd4e615a54d338ff3a662a05cc93186b32acb3",
        "trend_FGR.csv": "8e9c0e2cb81fa185a64b774f3b3e55dbfb54623cf35ac9e8e9f4a9e6b9e70f9f",
        "trend_FR.csv": "6430db7abea66c50bf3cf4dba677949feeb21a66b7c8a0eaef0297e0c48a2afb",
        "trend_P.csv": "d7144ec0738236d34b88d977277c4a9a50142c874de4c284ae1c79c4447fe57e",
        "trend_PC.csv": "90d349da69ddea92c001720d76d41d0f898c3edaa8de58feed63d41daeeddf9f",
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

"""Regenerate the bundled data fixtures.

Run from the repository root:

    python scripts/make_fixtures.py

Outputs are fully determined by the seeds baked into stratlogit.synth,
so rerunning must leave the files unchanged (checked in the tests).
"""

import csv
import pathlib

from stratlogit import synth
from stratlogit.ingest import write_dataset_csv

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def main() -> None:
    DATA.mkdir(exist_ok=True)
    dataset = synth.make_scholar_dataset(n=459, seed=20240801, target_increase=226)
    write_dataset_csv(dataset, DATA / "synthetic_scholars.csv")
    with open(DATA / "coauthor_edges.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["author_a", "author_b"])
        writer.writerows(synth.make_coauthor_edges())
    print(f"wrote {DATA / 'synthetic_scholars.csv'} ({len(dataset.scholar_id)} records)")
    print(f"wrote {DATA / 'coauthor_edges.csv'}")


if __name__ == "__main__":
    main()

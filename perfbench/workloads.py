"""The benchmark's workloads and the inputs each one generates from a seed.

Every workload is one client running one `dp-la run` at a time (closed loop).
The grid is written out in full in each config, so a later change to the
package's defaults cannot change what a workload measures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

METHODS = ("input_perturbation", "objective_perturbation", "prediction_perturbation")
EPSILONS = (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0)
SEEDS = (1, 2, 3, 4, 5)
INNER_TRAIN_FRACTION = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int
    methods: tuple[str, ...]
    epsilons: tuple[float, ...]
    seeds: tuple[int, ...]
    n: int
    synth: bool  # synthetic data in the config, else a generated CSV + schema

    @property
    def cells(self) -> list[tuple[str, float, int]]:
        """Rows results.csv must hold, in order: method, then epsilon, then seed."""
        return [(m, e, s) for m in self.methods for e in self.epsilons for s in self.seeds]

    @property
    def members(self) -> int:
        """Victim-train rows: the victim half takes the odd row, its train part
        the remainder."""
        return math.ceil(((self.n + 1) // 2) * INNER_TRAIN_FRACTION)

    def write_inputs(self, seed: int, directory: Path) -> Path:
        """Write the config (and for a CSV workload the data and schema) into
        ``directory``; return the config path. Same seed, same bytes."""
        directory.mkdir(parents=True, exist_ok=True)
        doc: dict = {
            "methods": list(self.methods),
            "epsilons": list(self.epsilons),
            "delta": 1e-5,
            "seeds": list(self.seeds),
            "num_teachers": 10,
            "train": {"lam": 1e-4, "epochs": 100, "learning_rate": 0.5},
            "inner_train_fraction": INNER_TRAIN_FRACTION,
            "master_seed": seed,
        }
        if self.synth:
            doc["data"] = {"synth": {"n": self.n, "d_numeric": 5, "d_categorical": 2,
                                     "separation": 1.0, "seed": seed}}
        else:
            data, schema = directory / "records.csv", directory / "schema.json"
            write_student_records(self.n, seed, data, schema)
            doc["data"] = {"path": str(data), "schema": str(schema)}
        config = directory / "config.json"
        config.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        return config


_CATEGORICAL = {
    "code_module": ("AAA", "BBB", "CCC"),
    "code_presentation": ("2013B", "2013J", "2014B"),
    "gender": ("F", "M", "U"),
    "region": ("North", "South", "West"),
    "highest_education": ("A Level", "HE Qualification", "Lower Than A Level"),
    "imd_band": ("0-30%", "30-70%", "70-100%"),
    "disability": ("N", "Y", "U"),
}


def write_student_records(n: int, seed: int, data_path: Path, schema_path: Path) -> None:
    """A student-records table: 2 numeric and 7 three-valued categorical columns
    (23 features after one-hot) and a four-valued outcome, two values of which
    count as positive. The outcome depends on the features, so the fits learn."""
    rng = np.random.default_rng([seed, 0x5EED])
    credits = rng.choice(np.array([30, 60, 90, 120, 150]), size=n)
    score = np.round(np.clip(rng.normal(65.0, 15.0, size=n), 0.0, 100.0), 1)
    codes = rng.integers(0, 3, size=(n, len(_CATEGORICAL)))
    logit = (score - 65.0) / 10.0 - (credits - 90.0) / 60.0 + 0.4 * (codes[:, 3] - 1) \
        + rng.logistic(size=n)
    outcome = np.where(logit > 0, np.where(logit > 2.0, "Distinction", "Pass"),
                       np.where(logit < -2.0, "Withdrawn", "Fail"))
    names = list(_CATEGORICAL)
    columns = [[str(v) for v in credits], [repr(float(v)) for v in score]]
    columns += [[_CATEGORICAL[name][k] for k in codes[:, j]] for j, name in enumerate(names)]
    columns.append(list(outcome))
    header = ["studied_credits", "assessment_score", *names, "final_result"]
    with open(data_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*columns))
    schema = {
        "columns": [{"name": "studied_credits", "kind": "numeric"},
                    {"name": "assessment_score", "kind": "numeric"}]
        + [{"name": name, "kind": "categorical"} for name in names]
        + [{"name": "final_result", "kind": "target"}],
        "positive_labels": ["Distinction", "Pass"],
    }
    schema_path.write_text(json.dumps(schema, indent=2) + "\n", encoding="utf-8")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="default_grid",
            why="synth n=2000, full 105-cell grid, 1 thread: fit redundancy and per-call "
                "overhead dominate (735 fits, 135 distinct)",
            threads=1, methods=METHODS, epsilons=EPSILONS, seeds=SEEDS, n=2000, synth=True,
        ),
        # One thread, not the --threads pool: with both vCPUs of a shared 2-vCPU
        # host busy, hypervisor steal moved this workload's median by 25% between
        # two sets of runs, beyond any bound the benchmark may set.
        Workload(
            name="trend_grid",
            why="synth n=8000, same 105-cell grid, 1 thread: 4x larger matrices, so per-call "
                "overhead counts for less than on default_grid",
            threads=1, methods=METHODS, epsilons=EPSILONS, seeds=SEEDS, n=8000, synth=True,
        ),
        Workload(
            name="csv_ingest",
            why="200k-row student CSV, one objective-perturbation cell: ingest and "
                "preprocess dominate; no fit is repeated, nothing batches",
            threads=1, methods=("objective_perturbation",), epsilons=(1.0,), seeds=(1,),
            n=200_000, synth=False,
        ),
    )
}

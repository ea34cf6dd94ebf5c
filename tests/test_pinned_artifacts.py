"""Pinned harness artifacts: config fingerprints and report file bytes.

A results directory is tied to its config by `ExperimentConfig.fingerprint()`,
so a fingerprint that moves orphans every directory written before; the
summary and ranks files are what readers compare across versions.  The
values below were recorded before the config schema came to be read from
the dataclass declarations.  RAW and DIRECT between them set every config,
problem and algorithm field, in the spellings a user may write: lower-case
names, labels, dimension overrides, seeds as an object, `"pc": 1`.
"""

import hashlib

import numpy as np
import pytest

from temof import (AlgorithmSpec, ExperimentConfig, ProblemSelection, RunRecord,
                   summarize, write_ranks, write_summary)
from temof.harness import config_from_dict

RAW = {
    "problems": ["zdt1", {"name": "dtlz2", "n_obj": 4, "n_var": 9, "label": "D2-4"},
                 {"name": "Dtlz1", "n_obj": 3}, {"name": "zdt3", "n_var": 8}],
    "algorithms": ["nsga3", {"name": "temof-nsga3", "label": "t03", "p": 0.3,
                             "stage_fraction": 0.4, "pc": 1, "eta_c": 15, "pm": 0.1,
                             "eta_m": 25}],
    "seeds": {"master_seed": 7, "n_runs": 3},
    "n": 20, "max_fes": 400, "metrics": ["IGD", "GD", "HV"],
    "indicator_target": "archive", "igd_reference_size": 500,
    "hv_ref_scale": 1.2, "hv_mc_samples": 5000, "output_dir": "somewhere"}


def direct_config():
    return ExperimentConfig(
        problems=(ProblemSelection("dtlz7"), ProblemSelection("zdt6", n_var=5, label="z6")),
        algorithms=(AlgorithmSpec("temof-nsga3", p=0.7, pm=None),
                    AlgorithmSpec("nsga3", label="base", pc=0.9, eta_c=10.0, eta_m=30.0)),
        seeds=(4, 1, 9), n=12, max_fes=240, master_seed=3, metrics=("HV",),
        indicator_target="population", igd_reference_size=100, hv_ref_scale=1.5,
        hv_mc_samples=2000, output_dir="elsewhere")


FINGERPRINTS = {
    "raw": "7032ab03bbc47efcc5770b9534626e4b8a04faa0afa3e6c3c3914b78aee4ec55",
    "direct": "5d8eeaa34631fd8cc09dd590a4b6f27f230b19006ce3548298760b10b5b81e82",
}
REPORTS = {
    # re-recorded when ranks.csv came to list metrics in the records' order (IGD,
    # then HV here) instead of by name; the rows themselves are unchanged
    "ranks.csv": "e5706bbd4fa8d2ea435278a8e24870fd540aa57a8eaecf36ee6afe2630daaec8",
    "summary_HV.csv": "06cce4f9989e36273b22fabf8be3c646df4eec467d089c6510427774c68ff32a",
    "summary_HV.md": "22108a018293fa04a5f2168e8ffd9c7ff09a7877227e973755e07a7acd4841fd",
    "summary_IGD.csv": "bd0643d7af3875e0e44e3cf766a22bd74f67a315e1584acbee838f985fee613d",
    "summary_IGD.md": "af3d9c8c3b2c05bf0a583e7bb0ea532abd52444465cf80f895d2456245855f58",
}


def synthetic_records():
    """3 problems x 3 algorithms x 7 seeds with +, - and = marks against base."""
    shift = {"P1": (0.0, 0.05, 0.1), "P2": (0.05, 0.0, 0.05), "P3": (0.1, 0.1, 0.0)}
    rng = np.random.default_rng(5)
    return [RunRecord(p, a, seed, {"IGD": 0.1 + shift[p][i] + 0.02 * rng.random(),
                                   "HV": 0.5 - shift[p][i] + 0.02 * rng.random()},
                      1000, 1.0)
            for p in shift for i, a in enumerate(("base", "alt", "other"))
            for seed in range(7)]


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_fingerprint_is_pinned(name):
    config = config_from_dict(RAW) if name == "raw" else direct_config()
    assert config.fingerprint() == FINGERPRINTS[name]


def test_report_files_are_pinned(tmp_path):
    records = synthetic_records()
    for metric in ("IGD", "HV"):
        write_summary(summarize(records, "base", metric), tmp_path)
    write_ranks(records, tmp_path)
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == REPORTS

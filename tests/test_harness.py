import csv
import json
import os
import pickle
import re
import subprocess
import sys
import warnings
from concurrent.futures import Future
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import temof.harness as harness
from temof import (AlgorithmSpec, ConfigurationError, ExperimentConfig,
                   ProblemSelection, RunRecord, UsageError, load_config,
                   load_records, run_matrix, summarize, write_ranks, write_summary)
from temof.cli import main as cli_main
from temof.benchmarks import make_problem
from temof.core import ProblemSpec
from temof.harness import SummaryCell, config_from_dict, format_sci


def tiny_config(out_dir, seeds=(0, 1), metrics=("IGD", "HV")):
    return ExperimentConfig(
        problems=(ProblemSelection("ZDT1", n_var=6),),
        algorithms=(AlgorithmSpec("nsga3"), AlgorithmSpec("temof-nsga3")),
        seeds=tuple(seeds),
        n=12, max_fes=240,
        metrics=tuple(metrics),
        igd_reference_size=500,
        output_dir=str(out_dir))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfigValidation:
    def test_duplicate_algorithm_labels(self):
        with pytest.raises(ConfigurationError,
                           match=r"^algorithms must be unique, got \['nsga3', 'nsga3'\]$"):
            ExperimentConfig(problems=(ProblemSelection("ZDT1"),),
                             algorithms=(AlgorithmSpec("nsga3"),
                                         AlgorithmSpec("nsga3")),
                             seeds=(0,), n=10, max_fes=100)

    def test_duplicate_problem_labels(self):
        with pytest.raises(ConfigurationError,
                           match=r"^problems must be unique, got \['ZDT1', 'ZDT1'\]$"):
            ExperimentConfig(problems=(ProblemSelection("ZDT1"),
                                       ProblemSelection("ZDT2", label="ZDT1")),
                             algorithms=(AlgorithmSpec("nsga3"),),
                             seeds=(0,), n=10, max_fes=100)

    def test_labels_disambiguate(self):
        cfg = ExperimentConfig(
            problems=(ProblemSelection("ZDT1"),),
            algorithms=(AlgorithmSpec("temof-nsga3", label="p03", p=0.3),
                        AlgorithmSpec("temof-nsga3", label="p07", p=0.7)),
            seeds=(0,), n=10, max_fes=100)
        assert [a.key for a in cfg.algorithms] == ["p03", "p07"]

    def test_unknown_metric(self):
        with pytest.raises(ConfigurationError, match="metric"):
            ExperimentConfig(problems=(ProblemSelection("ZDT1"),),
                             algorithms=(AlgorithmSpec("nsga3"),),
                             seeds=(0,), n=10, max_fes=100, metrics=("SPREAD",))

    def test_bad_indicator_target(self):
        with pytest.raises(ConfigurationError, match="indicator_target"):
            ExperimentConfig(problems=(ProblemSelection("ZDT1"),),
                             algorithms=(AlgorithmSpec("nsga3"),),
                             seeds=(0,), n=10, max_fes=100,
                             indicator_target="trace")

    def test_duplicate_seeds(self):
        with pytest.raises(ConfigurationError, match="unique"):
            ExperimentConfig(problems=(ProblemSelection("ZDT1"),),
                             algorithms=(AlgorithmSpec("nsga3"),),
                             seeds=(1, 1), n=10, max_fes=100)
        # seeds enter their streams modulo 2**64, so these pairs would run one stream twice
        for a, b in ((-1, 2**64 - 1), (0, 2**64)):
            with pytest.raises(ConfigurationError,
                               match=rf"^seeds {a} and {b} name one random stream"):
                ExperimentConfig(problems=(ProblemSelection("ZDT1"),),
                                 algorithms=(AlgorithmSpec("nsga3"),),
                                 seeds=(a, b), n=10, max_fes=100)

    def test_hv_scale_must_clear_front(self):
        for scale in (1.0, float("nan")):
            with pytest.raises(ConfigurationError, match="hv_ref_scale"):
                ExperimentConfig(problems=(ProblemSelection("ZDT1"),),
                                 algorithms=(AlgorithmSpec("nsga3"),),
                                 seeds=(0,), n=10, max_fes=100, hv_ref_scale=scale)

    def test_duplicate_metrics(self):
        # each metric would write its runs.csv and ranks.csv rows twice
        with pytest.raises(ConfigurationError, match="metrics must be unique"):
            ExperimentConfig(problems=(ProblemSelection("ZDT1"),),
                             algorithms=(AlgorithmSpec("nsga3"),),
                             seeds=(0,), n=10, max_fes=100, metrics=("IGD", "IGD"))

    def test_population_below_objective_count_rejected(self):
        # the reference directions need n >= n_obj; the run would fail in every cell
        with pytest.raises(ConfigurationError,
                           match="population size 4 is below n_obj=5 of problem DTLZ2_dx5"):
            config_from_dict({"problems": ["ZDT1", {"name": "DTLZ2", "n_obj": 5}],
                              "algorithms": ["nsga3"], "seeds": [0], "n": 4,
                              "max_fes": 100})
        ExperimentConfig(problems=(ProblemSelection("DTLZ2", n_obj=5),),
                         algorithms=(AlgorithmSpec("nsga3"),), seeds=(0,), n=5, max_fes=100)
        # n < 2 is caught by the same check, since every problem has n_obj >= 2
        with pytest.raises(ConfigurationError, match="population size 1 is below n_obj=2"):
            ExperimentConfig(problems=(ProblemSelection("ZDT1"),),
                             algorithms=(AlgorithmSpec("nsga3"),), seeds=(0,), n=1, max_fes=100)

    def test_each_problem_is_built_once(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return make_problem(*args)

        monkeypatch.setattr(harness, "make_problem", counting)
        ExperimentConfig(problems=(ProblemSelection("ZDT1"), ProblemSelection("DTLZ2", n_obj=4)),
                         algorithms=(AlgorithmSpec("nsga3"),), seeds=(0,), n=10, max_fes=100)
        assert calls == [("ZDT1", None, None), ("DTLZ2", None, 4)]

    def test_resolved_objective_count_survives_pickling(self):
        selection = pickle.loads(pickle.dumps(ProblemSelection("dtlz2")))
        assert selection._n_obj == 3
        assert selection.n_obj is None  # the stated field is unchanged
        assert asdict(selection) == {"name": "DTLZ2", "n_var": None, "n_obj": None,
                                     "label": None}
        assert pickle.loads(pickle.dumps(ProblemSelection("DTLZ2", n_obj=5)))._n_obj == 5

    @pytest.mark.parametrize("change, message", [
        ({"problems": ()}, "experiment needs at least one problem"),
        ({"algorithms": ()}, "experiment needs at least one algorithm"),
        ({"metrics": ()}, "experiment needs at least one metric"),
        ({"igd_reference_size": 0}, "igd_reference_size must be >= 1")])
    def test_empty_axis_or_reference_rejected(self, change, message):
        settings = dict(problems=(ProblemSelection("ZDT1"),), algorithms=(AlgorithmSpec("nsga3"),),
                        seeds=(0,), n=10, max_fes=100)
        with pytest.raises(ConfigurationError) as info:
            ExperimentConfig(**{**settings, **change})
        assert str(info.value) == message

    @pytest.mark.parametrize("samples", [0, -3])
    def test_hv_samples_must_be_positive(self, samples):
        with pytest.raises(ConfigurationError, match="hv_mc_samples"):
            ExperimentConfig(problems=(ProblemSelection("ZDT1"),),
                             algorithms=(AlgorithmSpec("nsga3"),),
                             seeds=(0,), n=10, max_fes=100, hv_mc_samples=samples)

    def test_unknown_algorithm_name(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            AlgorithmSpec("nsga2")

    def test_problem_selection_validates_eagerly(self):
        with pytest.raises(ConfigurationError):
            ProblemSelection("ZDT1", n_obj=3)

    def test_problem_without_front_sampler_rejected(self):
        # every metric is scored against the true front, so such a problem
        # must fail when the config is built, not after optimizing
        for name in ("DTLZ5", "DTLZ6", "DTLZ7"):
            with pytest.raises(ConfigurationError, match="true-front sampler"):
                ProblemSelection(name, n_obj=4)
        assert ProblemSelection("DTLZ2", n_obj=4).key == "DTLZ2_dx4"


class TestConfigFromDict:
    def test_seeds_as_list(self):
        cfg = config_from_dict({
            "problems": ["ZDT1"], "algorithms": ["nsga3"],
            "seeds": [3, 5, 8], "n": 10, "max_fes": 100})
        assert cfg.seeds == (3, 5, 8) and cfg.master_seed == 0

    def test_seeds_as_master_plus_count(self):
        cfg = config_from_dict({
            "problems": ["ZDT1"], "algorithms": ["nsga3"],
            "seeds": {"master_seed": 42, "n_runs": 4}, "n": 10, "max_fes": 100})
        assert cfg.seeds == (0, 1, 2, 3) and cfg.master_seed == 42

    def test_master_seed_given_twice_rejected(self):
        # the one in seeds used to win silently
        with pytest.raises(ConfigurationError) as info:
            config_from_dict({"problems": ["ZDT1"], "algorithms": ["nsga3"],
                              "seeds": {"n_runs": 2, "master_seed": 5}, "master_seed": 3,
                              "n": 10, "max_fes": 100})
        assert str(info.value) == "master_seed is given twice: 5 in seeds and 3 at the top level"

    @pytest.mark.parametrize("change, message", [
        ({"problems": [5]}, "each problem must be a name or an object, got 5"),
        ({"algorithms": [["nsga3"]]}, "each algorithm must be a name or an object, got ['nsga3']"),
        ({"seeds": {"n_runs": 2, "seed": 1}}, "unknown seeds keys: ['seed']"),
        ({"seeds": {"master_seed": 1}}, "seeds object needs n_runs"),
        ({"seeds": {"n_runs": 0}}, "n_runs must be >= 1, got 0"),
        ({"seeds": 3}, "seeds must be a list of ints or {master_seed, n_runs}")])
    def test_malformed_entry_or_seeds_rejected(self, change, message):
        raw = {"problems": ["ZDT1"], "algorithms": ["nsga3"], "seeds": [0],
               "n": 10, "max_fes": 100, **change}
        with pytest.raises(ConfigurationError) as info:
            config_from_dict(raw)
        assert str(info.value) == message

    def test_entry_with_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError,
                           match=r"^bad algorithm entry \{'name': 'nsga3', 'speed': 2\}: .*"
                                 r"unexpected keyword argument 'speed'$"):
            config_from_dict({"problems": ["ZDT1"], "algorithms": [{"name": "nsga3", "speed": 2}],
                              "seeds": [0], "n": 10, "max_fes": 100})

    def test_problem_objects(self):
        cfg = config_from_dict({
            "problems": [{"name": "dtlz2", "n_obj": 5, "n_var": 14, "label": "D2-5"}],
            "algorithms": [{"name": "temof-nsga3", "p": 0.3}],
            "seeds": [0], "n": 10, "max_fes": 100})
        assert cfg.problems[0].key == "D2-5"
        assert cfg.problems[0].name == "DTLZ2"  # stored as the registry key
        assert cfg.algorithms[0].p == 0.3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            config_from_dict({"problems": ["ZDT1"], "algorithms": ["nsga3"],
                              "seeds": [0], "n": 10, "max_fes": 100,
                              "populationsize": 5})

    def test_missing_required_key(self):
        with pytest.raises(ConfigurationError, match="missing required"):
            config_from_dict({"problems": ["ZDT1"], "algorithms": ["nsga3"],
                              "seeds": [0], "n": 10})

    @pytest.mark.parametrize("key, value", [
        ("n", "twenty"), ("max_fes", None), ("master_seed", [1]),
        ("hv_ref_scale", "wide"), ("seeds", [0, "x"]), ("output_dir", None)])
    def test_uncoercible_value_names_its_key(self, key, value):
        raw = {"problems": ["ZDT1"], "algorithms": ["nsga3"], "seeds": [0],
               "n": 10, "max_fes": 100, key: value}
        with pytest.raises(ConfigurationError, match=f"config key '{key}'"):
            config_from_dict(raw)

    @pytest.mark.parametrize("key, value, named", [
        ("seeds", [1.9, 2.7], "seeds"), ("n", 10.9, "n"), ("max_fes", 100.5, "max_fes"),
        ("n", True, "n"), ("master_seed", 0.5, "master_seed"),
        ("igd_reference_size", 2000.5, "igd_reference_size"),
        ("hv_mc_samples", False, "hv_mc_samples"), ("seeds", {"n_runs": 2.5}, "n_runs"),
        ("seeds", {"n_runs": 2, "master_seed": True}, "master_seed")])
    def test_inexact_int_names_its_key(self, key, value, named):
        raw = {"problems": ["ZDT1"], "algorithms": ["nsga3"], "seeds": [0],
               "n": 10, "max_fes": 100, key: value}
        with pytest.raises(ConfigurationError, match=f"config key '{named}' must be int"):
            config_from_dict(raw)

    @pytest.mark.parametrize("entry, named", [
        ('"hv_ref_scale": NaN', "config key 'hv_ref_scale'"),
        ('"hv_ref_scale": Infinity', "config key 'hv_ref_scale'"),
        ('"hv_ref_scale": "nan"', "config key 'hv_ref_scale'"),
        ('"algorithms": [{"name": "nsga3", "eta_c": NaN}]', "algorithm field 'eta_c'"),
        ('"algorithms": [{"name": "nsga3", "eta_m": NaN}]', "algorithm field 'eta_m'")])
    def test_non_finite_float_names_its_key(self, tmp_path, entry, named):
        # json reads the NaN and Infinity literals; every cell would fail after optimizing
        path = tmp_path / "cfg.json"
        path.write_text('{"problems": ["ZDT1"], "algorithms": ["nsga3"], "seeds": [0], '
                        '"n": 10, "max_fes": 100, ' + entry + "}")
        with pytest.raises(ConfigurationError, match=f"{named} must be finite"):
            load_config(path)

    @pytest.mark.parametrize("change, message", [
        ({"max_fes": 9}, "max_fes=9 cannot be below the population size 10"),
        ({"algorithms": [{"name": "temof-nsga3", "p": 1.5}]}, "p must be in [0, 1], got 1.5"),
        ({"algorithms": [{"name": "nsga3", "p": -0.1}]}, "p must be in [0, 1], got -0.1"),
        ({"algorithms": [{"name": "temof-nsga3", "stage_fraction": 2}]},
         "stage_fraction must be in [0, 1], got 2.0")])
    def test_run_settings_checked_at_the_config_sizes(self, change, message):
        raw = {"problems": ["ZDT1"], "algorithms": ["nsga3"], "seeds": [0],
               "n": 10, "max_fes": 100, **change}
        with pytest.raises(ConfigurationError) as info:
            config_from_dict(raw)
        assert str(info.value) == message

    def test_integral_float_is_an_int(self):
        cfg = config_from_dict({"problems": ["ZDT1"], "algorithms": ["nsga3"],
                                "seeds": [1.0, 2], "n": 10.0, "max_fes": 1e2})
        assert (cfg.seeds, cfg.n, cfg.max_fes) == ((1, 2), 10, 100)
        assert all(type(v) is int for v in (*cfg.seeds, cfg.n, cfg.max_fes))

    @pytest.mark.parametrize("what, entry, field", [
        ("algorithm", {"name": "nsga3", "pm": "x"}, "pm"),
        ("algorithm", {"name": "temof-nsga3", "p": "half"}, "p"),
        ("algorithm", {"name": "nsga3", "eta_c": True}, "eta_c"),
        ("algorithm", {"name": "nsga3", "pc": None}, "pc"),
        ("problem", {"name": "DTLZ2", "n_obj": 3.5}, "n_obj"),
        ("problem", {"name": "DTLZ2", "n_var": "many"}, "n_var")])
    def test_entry_field_names_itself(self, what, entry, field):
        raw = {"problems": ["ZDT1"], "algorithms": ["nsga3"], "seeds": [0],
               "n": 10, "max_fes": 100, f"{what}s": [entry]}
        with pytest.raises(ConfigurationError, match=f"{what} field '{field}' must be"):
            config_from_dict(raw)

    @pytest.mark.parametrize("name", [None, 5])
    def test_problem_name_must_be_known(self, name):
        raw = {"problems": [{"name": name}], "algorithms": ["nsga3"], "seeds": [0],
               "n": 10, "max_fes": 100}
        with pytest.raises(ConfigurationError, match=f"unknown problem {name!r}"):
            config_from_dict(raw)

    def test_entry_fields_are_converted(self):
        cfg = config_from_dict({
            "problems": [{"name": "DTLZ2", "n_obj": "3", "n_var": None}],
            "algorithms": [{"name": "nsga3", "pc": 1, "pm": None}],
            "seeds": [0], "n": 10, "max_fes": 100})
        assert cfg.problems[0].n_obj == 3 and cfg.problems[0].n_var is None
        assert type(cfg.algorithms[0].pc) is float and cfg.algorithms[0].pm is None

    @pytest.mark.parametrize("key", ["problems", "algorithms", "metrics"])
    def test_names_must_come_as_a_list(self, key):
        raw = {"problems": ["ZDT1"], "algorithms": ["nsga3"], "seeds": [0],
               "n": 10, "max_fes": 100, "metrics": ["IGD"]}
        raw[key] = raw[key][0]
        with pytest.raises(ConfigurationError, match=f"'{key}' must be a list"):
            config_from_dict(raw)

    def test_fingerprint_ignores_output_dir(self, tmp_path):
        base = {"problems": ["ZDT1"], "algorithms": ["nsga3"], "seeds": [0],
                "n": 10, "max_fes": 100}
        a = config_from_dict({**base, "output_dir": "x"})
        b = config_from_dict({**base, "output_dir": "y"})
        assert a.fingerprint() == b.fingerprint()
        c = config_from_dict({**base, "seeds": [1]})
        assert a.fingerprint() != c.fingerprint()

    def test_load_config_round_trip(self, tmp_path):
        raw = {"problems": ["ZDT1"], "algorithms": ["nsga3"], "seeds": [0],
               "n": 10, "max_fes": 100}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert load_config(path).fingerprint() == config_from_dict(raw).fingerprint()
        with pytest.raises(ConfigurationError, match="not found"):
            load_config(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigurationError, match="JSON"):
            load_config(bad)
        bad.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="^config must be a JSON object, got list$"):
            load_config(bad)


class TestRunMatrix:
    def test_end_to_end(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        records = run_matrix(cfg)
        assert len(records) == 4  # 1 problem x 2 algorithms x 2 seeds
        rows = read_rows(tmp_path / "out" / "runs.csv")
        assert len(rows) == 8  # two metrics per run
        assert set(r["metric"] for r in rows) == {"IGD", "HV"}
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert meta["fingerprint"] == cfg.fingerprint()
        for rec in records:
            assert set(rec.metrics) == {"IGD", "HV"}
            assert rec.fes > cfg.max_fes
            assert rec.metrics["IGD"] > 0

    def test_rerun_is_a_noop(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        run_matrix(cfg)
        before = (tmp_path / "out" / "runs.csv").read_bytes()
        executed = []
        orig = harness._execute_run
        harness._execute_run = lambda *cell: executed.append(cell) or orig(*cell)
        try:
            run_matrix(cfg)
        finally:
            harness._execute_run = orig
        assert executed == []
        assert (tmp_path / "out" / "runs.csv").read_bytes() == before

    def test_resume_fills_missing_runs(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        run_matrix(cfg)
        runs = tmp_path / "out" / "runs.csv"
        full = read_rows(runs)
        lines = runs.read_bytes().splitlines(keepends=True)
        runs.write_bytes(b"".join(lines[:-2]))  # drop the last run's two metric rows
        records = run_matrix(cfg)
        assert len(records) == 4
        again = read_rows(runs)
        assert len(again) == len(full)
        for a, b in zip(full, again):  # identical apart from timing
            a.pop("wall_ms"), b.pop("wall_ms")
            assert a == b

    def test_resume_writes_only_missing_metric_rows(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        run_matrix(cfg)
        runs = tmp_path / "out" / "runs.csv"
        full = read_rows(runs)
        lines = runs.read_bytes().splitlines(keepends=True)
        assert b",HV," in lines[2]
        runs.write_bytes(b"".join(lines[:2] + lines[3:]))  # the first run keeps only IGD
        run_matrix(cfg)
        again = read_rows(runs)
        keys = [(r["problem"], r["algorithm"], r["seed"], r["metric"]) for r in again]
        assert len(keys) == len(set(keys)) == len(full)
        assert again[-1]["metric"] == "HV" and again[-1]["seed"] == full[1]["seed"]
        for a, b in zip(full[:1] + full[2:] + full[1:2], again):  # identical apart from timing
            a.pop("wall_ms"), b.pop("wall_ms")
            assert a == b

    def test_resume_after_an_unterminated_last_row(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        run_matrix(cfg)
        runs = tmp_path / "out" / "runs.csv"
        full = read_rows(runs)
        lines = runs.read_bytes().splitlines(keepends=True)
        runs.write_bytes(b"".join(lines[:-1]).rstrip(b"\r\n"))  # as a cut-off write leaves it
        assert len(run_matrix(cfg)) == 4
        again = read_rows(runs)
        assert len(again) == len(full)
        for a, b in zip(full, again):
            a.pop("wall_ms"), b.pop("wall_ms")
            assert a == b
        assert len(load_records(tmp_path / "out")) == 4

    def test_empty_runs_file_gets_a_header(self, tmp_path):
        cfg = tiny_config(tmp_path / "out", seeds=(0,), metrics=("IGD",))
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "runs.csv").touch()  # as left by a kill before the header
        records = run_matrix(cfg)
        assert len(records) == 2
        assert len(load_records(tmp_path / "out")) == 2
        assert len(run_matrix(cfg)) == 2  # and the resume reads it back

    @pytest.mark.parametrize("label", [None, "ZDT1 α→β"], ids=["ascii", "non-ascii"])
    def test_resume_after_a_cut_off_last_row(self, tmp_path, label):
        cfg = replace(tiny_config(tmp_path / "out"),
                      problems=(ProblemSelection("ZDT1", n_var=6, label=label),))
        run_matrix(cfg)
        runs = tmp_path / "out" / "runs.csv"
        full = read_rows(runs)
        data = runs.read_bytes()
        short = data[:data.rstrip(b"\r\n").rindex(b",") + 1]  # wall_ms and newline cut off
        runs.write_bytes(short)
        assert len(load_records(tmp_path / "out")) == 4  # the cut row was never written
        assert runs.read_bytes() == short  # and reading leaves it be
        assert len(run_matrix(cfg)) == 4
        again = read_rows(runs)
        assert len(again) == len(full)
        for a, b in zip(full, again):
            a.pop("wall_ms"), b.pop("wall_ms")
            assert a == b
        assert runs.read_bytes().startswith(short[:short.rindex(b"\n") + 1])

    def test_resume_after_a_cut_off_header(self, tmp_path):
        cfg = tiny_config(tmp_path / "out", seeds=(0,), metrics=("IGD",))
        (tmp_path / "out").mkdir()
        runs = tmp_path / "out" / "runs.csv"
        runs.write_text("problem,algor")  # as a kill inside the header write leaves it
        assert load_records(tmp_path / "out") == []
        assert len(run_matrix(cfg)) == 2
        assert runs.read_bytes().startswith(",".join(harness.RUN_COLUMNS).encode() + b"\r\n")
        assert len(read_rows(runs)) == 2

    def test_runs_without_metadata_rejected(self, tmp_path):
        # rows of an unknown configuration must not be adopted by the next one
        run_matrix(tiny_config(tmp_path / "out", seeds=(0,), metrics=("IGD",)))
        meta_path, runs = tmp_path / "out" / "metadata.json", tmp_path / "out" / "runs.csv"
        meta_path.unlink()
        before = runs.read_bytes()
        other = replace(tiny_config(tmp_path / "out", seeds=(0,), metrics=("IGD",)), max_fes=480)
        for _ in range(2):  # nothing is written, so a second attempt fails too
            with pytest.raises(ConfigurationError) as info:
                run_matrix(other)
            assert str(info.value) == (f"{runs} holds runs but {meta_path} is missing, so "
                                       f"their configuration is unknown; choose another "
                                       f"output_dir")
            assert not meta_path.exists()
            assert runs.read_bytes() == before

    def test_header_only_runs_file_without_metadata_proceeds(self, tmp_path):
        cfg = tiny_config(tmp_path / "out", seeds=(0,), metrics=("IGD",))
        (tmp_path / "out").mkdir()
        runs = tmp_path / "out" / "runs.csv"
        runs.write_text(",".join(harness.RUN_COLUMNS) + "\r\n")
        assert len(run_matrix(cfg)) == 2
        assert len(read_rows(runs)) == 2

    def test_resume_across_versions_rejected(self, tmp_path):
        cfg = tiny_config(tmp_path / "out", seeds=(0,), metrics=("IGD",))
        run_matrix(cfg)
        meta_path = tmp_path / "out" / "metadata.json"
        meta = json.loads(meta_path.read_text())
        meta["package_version"] = "0.0.0"
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ConfigurationError, match="0.0.0"):
            run_matrix(cfg)

    def test_conflicting_directory_rejected(self, tmp_path):
        run_matrix(tiny_config(tmp_path / "out"))
        other = tiny_config(tmp_path / "out", seeds=(0, 1, 2))
        with pytest.raises(ConfigurationError, match="different configuration"):
            run_matrix(other)

    def test_failures_recorded_and_retried(self, tmp_path):
        cfg = tiny_config(tmp_path / "out", seeds=(0,), metrics=("IGD",))
        orig = harness._execute_run

        def flaky(config, problem, algorithm, seed):
            if algorithm.name == "temof-nsga3":
                raise RuntimeError("synthetic fault")
            return orig(config, problem, algorithm, seed)

        harness._execute_run = flaky
        try:
            records = run_matrix(cfg)
        finally:
            harness._execute_run = orig
        assert len(records) == 1
        failures = read_rows(tmp_path / "out" / "failures.csv")
        assert len(failures) == 1
        assert failures[0]["algorithm"] == "temof-nsga3"
        assert "synthetic fault" in failures[0]["error"]
        records = run_matrix(cfg)  # retry succeeds
        assert len(records) == 2
        assert not (tmp_path / "out" / "failures.csv").exists()

    def test_partly_saved_cell_whose_retry_fails_is_incomplete(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path / "out", seeds=(0,))
        run_matrix(cfg)
        runs = tmp_path / "out" / "runs.csv"
        data = runs.read_bytes()
        runs.write_bytes(data[:data.rstrip(b"\r\n").rindex(b",") + 1])  # the last HV cut off

        def broken(config, problem, algorithm, seed):
            raise RuntimeError("synthetic fault")

        monkeypatch.setattr(harness, "_execute_run", broken)
        records = run_matrix(cfg)
        assert [(r.algorithm, set(r.metrics)) for r in records] == [("nsga3", {"IGD", "HV"})]
        failures = read_rows(tmp_path / "out" / "failures.csv")
        assert [f["algorithm"] for f in failures] == ["temof-nsga3"]

    def test_unscorable_cell_fails_before_optimizing(self, tmp_path, monkeypatch):
        def broken_sampler(self, count):
            raise RuntimeError("sampler fault")

        optimized = []
        monkeypatch.setattr(ProblemSpec, "true_front", broken_sampler)
        monkeypatch.setattr(harness, "nsga3_run", lambda *a, **k: optimized.append(a))
        monkeypatch.setattr(harness, "temof_run", lambda *a, **k: optimized.append(a))
        cfg = tiny_config(tmp_path / "out", seeds=(0,), metrics=("IGD",))
        assert run_matrix(cfg, workers=1) == []
        assert optimized == []
        failures = read_rows(tmp_path / "out" / "failures.csv")
        assert [f["algorithm"] for f in failures] == ["nsga3", "temof-nsga3"]
        assert all("sampler fault" in f["error"] for f in failures)

    def test_overflowing_hv_reference_fails_before_optimizing(self, tmp_path, monkeypatch):
        optimized = []
        monkeypatch.setattr(harness, "nsga3_run", lambda *a, **k: optimized.append(a))
        monkeypatch.setattr(harness, "temof_run", lambda *a, **k: optimized.append(a))
        # 1e308 leaves ZDT1's reference point finite but its box infinite, and
        # overflows DTLZ7's reference point itself
        cfg = ExperimentConfig(
            problems=(ProblemSelection("ZDT1"), ProblemSelection("DTLZ7")),
            algorithms=(AlgorithmSpec("nsga3"),), seeds=(0,), n=12, max_fes=60,
            metrics=("IGD", "HV"), hv_ref_scale=1e308, output_dir=str(tmp_path / "out"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning either
            assert run_matrix(cfg, workers=1) == []
        assert optimized == []
        assert "inf" not in (tmp_path / "out" / "runs.csv").read_text()
        failures = read_rows(tmp_path / "out" / "failures.csv")
        assert [f["problem"] for f in failures] == ["ZDT1", "DTLZ7"]
        assert all("hv_ref_scale" in f["error"] for f in failures)

    @pytest.mark.parametrize("matrix", [
        {},
        # at n = 100 the DTLZ7 runs read past niching's first block of words
        {"problems": (ProblemSelection("ZDT3"), ProblemSelection("DTLZ7")),
         "seeds": (0, 1, 2), "n": 100, "max_fes": 2000, "metrics": ("IGD", "GD", "HV"),
         "igd_reference_size": 2000},
        # five objectives score HV by Monte Carlo
        {"problems": (ProblemSelection("DTLZ2", n_obj=5),), "n": 15, "max_fes": 150,
         "metrics": ("IGD", "GD", "HV"), "igd_reference_size": 10_000,
         "hv_mc_samples": 20_000},
    ], ids=["tiny", "irregular", "five-objective"])
    def test_parallel_output_matches_sequential(self, tmp_path, matrix):
        rows = {}
        for workers in (1, 2):
            cfg = replace(tiny_config(tmp_path / str(workers)), **matrix)
            assert len(run_matrix(cfg, workers=workers)) == (
                len(cfg.problems) * len(cfg.algorithms) * len(cfg.seeds))
            rows[workers] = read_rows(tmp_path / str(workers) / "runs.csv")
            for row in rows[workers]:
                row.pop("wall_ms")
        assert rows[1] == rows[2]

    def test_pool_has_no_more_workers_than_cells(self, tmp_path, monkeypatch):
        pools = []

        class RecordingPool:  # runs each cell in-process as it is submitted
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        cfg = tiny_config(tmp_path / "out", seeds=(0,), metrics=("IGD",))
        assert len(run_matrix(cfg, workers=64)) == 2
        assert pools == [2]
        runs = tmp_path / "out" / "runs.csv"
        runs.write_bytes(b"".join(runs.read_bytes().splitlines(keepends=True)[:-1]))
        assert len(run_matrix(cfg, workers=8)) == 2  # one cell left: run in-process
        assert pools == [2]
        assert len(read_rows(runs)) == 2

    def test_error_cancels_pending_cells(self, tmp_path, monkeypatch):
        ran, shutdowns = [], []

        class LazyFuture:  # runs its cell only when its result is read
            def __init__(self, fn, args):
                self.fn, self.args = fn, args

            def result(self):
                ran.append(self.args)
                return self.fn(*self.args)

        class RecordingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                return LazyFuture(fn, args)

            def shutdown(self, wait=True, *, cancel_futures=False):
                shutdowns.append(cancel_futures)

        def unwritable(path, content, append=False, keep=None):
            if isinstance(content, list) and content != [harness.RUN_COLUMNS]:  # a cell's rows
                raise UsageError(f"cannot write {path}: No space left on device")
            return write(path, content, append, keep)

        write = harness._write
        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness, "_write", unwritable)
        with pytest.raises(UsageError, match="No space left on device"):
            run_matrix(tiny_config(tmp_path / "out", seeds=(0, 1)), workers=4)
        assert len(ran) == 1  # the first cell's rows could not be saved
        assert shutdowns == [True]

    def test_progress_callback(self, tmp_path):
        seen = []
        run_matrix(tiny_config(tmp_path / "out", seeds=(0,)),
                   progress=lambda done, total, rec: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]

    def test_load_records_round_trip(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        records = run_matrix(cfg)
        loaded = load_records(tmp_path / "out")
        by_key = {(r.problem, r.algorithm, r.seed): r for r in loaded}
        assert len(by_key) == len(records)
        for rec in records:
            twin = by_key[(rec.problem, rec.algorithm, rec.seed)]
            assert twin.metrics == rec.metrics  # repr round-trip is exact
            assert twin.fes == rec.fes

    @pytest.mark.parametrize("row", ["ZDT1,nsga3,x,IGD,0.5,100,1.0",
                                     "ZDT1,nsga3,0,IGD,junk,100,1.0",
                                     "ZDT1,nsga3,0,IGD",
                                     "ZDT1,nsga3,0,FOO,0.5,100,1.0"])
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        runs = tmp_path / "runs.csv"
        runs.write_text(",".join(harness.RUN_COLUMNS) + "\n"
                        "ZDT1,nsga3,1,IGD,0.5,100,1.0\n" + row + "\n")
        with pytest.raises(ConfigurationError, match=f"{runs} line 3: malformed run row"):
            load_records(tmp_path)

    @pytest.mark.parametrize("content, problem", [(b"{", "is not valid JSON"),
                                                  (b"\xff{", "is not valid JSON"),
                                                  (b"[]", "must hold a JSON object, got list")])
    def test_malformed_metadata_rejected(self, tmp_path, content, problem):
        out = tmp_path / "out"
        out.mkdir()
        (out / "metadata.json").write_bytes(content)
        with pytest.raises(ConfigurationError,
                           match=f"metadata file {out / 'metadata.json'} {problem}"):
            run_matrix(tiny_config(out))

    def test_zero_workers_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="worker count must be >= 1, got 0"):
            run_matrix(tiny_config(tmp_path / "out"), workers=0)
        assert not (tmp_path / "out").exists()


class TestFormatting:
    def test_format_sci(self):
        assert format_sci(14.3) == "1.4e+1"
        assert format_sci(0.756) == "7.6e-1"
        assert format_sci(0.0) == "0.0e+0"
        assert format_sci(1e-10) == "1.0e-10"
        assert format_sci(-0.05) == "-5.0e-2"
        assert format_sci(9.99e21) == "1.0e+22"

    def test_format_cell(self):
        assert SummaryCell(14.3, 0.756).text() == "1.4e+1 (7.6e-1)"


def synthetic_records(base_better=True):
    """3 problems x 2 algorithms x 6 seeds with a clear IGD winner."""
    rng = np.random.default_rng(0)
    records = []
    for p in ("P1", "P2", "P3"):
        for algo, shift in (("base", 0.0 if base_better else 1.0),
                            ("contender", 1.0 if base_better else 0.0)):
            for seed in range(6):
                records.append(RunRecord(
                    problem=p, algorithm=algo, seed=seed,
                    metrics={"IGD": 0.1 + shift + rng.random() * 0.01},
                    fes=1000, wall_ms=1.0))
    return records


class TestSummarize:
    def test_structure_and_marks(self):
        table = summarize(synthetic_records(), "base", "IGD")
        assert table.algorithms == ["base", "contender"]
        assert table.problems == ["P1", "P2", "P3"]
        for p in table.problems:
            assert table.cells[(p, "contender")].mark == "-"
            assert table.cells[(p, "base")].mark is None
        assert table.footer["contender"] == (0, 3, 0)
        signed = table.signed["contender"]
        assert signed.r_minus == 6.0 and signed.r_plus == 0.0
        assert table.friedman.mean_ranks[0] == 1.0  # base ranks first everywhere

    def test_contender_wins_flip_everything(self):
        table = summarize(synthetic_records(base_better=False), "base", "IGD")
        assert table.footer["contender"] == (3, 0, 0)
        assert table.friedman.mean_ranks[1] == 1.0

    def test_markdown_contains_required_pieces(self):
        md = summarize(synthetic_records(), "base", "IGD").to_markdown()
        assert "| Problem | base | contender |" in md
        assert "+/-/= (vs base)" in md
        assert "0/3/0" in md
        assert "signed-rank contender vs base (IGD):" in md
        assert "Friedman mean ranks (IGD):" in md
        # cells look like "1.1e-1 (3.1e-3) -"
        assert "e-1 (" in md

    def test_missing_base(self):
        with pytest.raises(UsageError, match="base"):
            summarize(synthetic_records(), "nsga3", "IGD")

    def test_unknown_metric(self):
        with pytest.raises(UsageError, match="metric"):
            summarize(synthetic_records(), "base", "SPREAD")

    def test_no_record_carries_the_metric(self):
        with pytest.raises(UsageError, match="^no records carry metric 'HV'$"):
            summarize(synthetic_records(), "base", "HV")

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 7.0, float("nan")])
    def test_alpha_checked_with_the_base_alone(self, alpha):
        base_only = [r for r in synthetic_records() if r.algorithm == "base"]
        with pytest.raises(UsageError, match="alpha must be in"):
            summarize(base_only, "base", "IGD", alpha)

    def test_incomplete_cells(self):
        records = synthetic_records()
        short = [r for r in records if not (r.problem == "P2" and r.algorithm == "base")]
        with pytest.raises(UsageError, match="missing"):
            summarize(short, "base", "IGD")

    def test_hv_orientation_flips_marks(self):
        records = [RunRecord("P", a, s, {"HV": v + s * 0.001}, 10, 1.0)
                   for a, v in (("base", 0.5), ("contender", 0.9))
                   for s in range(5)]
        records += [RunRecord("Q", a, s, {"HV": v + s * 0.001}, 10, 1.0)
                    for a, v in (("base", 0.5), ("contender", 0.9))
                    for s in range(5)]
        table = summarize(records, "base", "HV")
        assert table.cells[("P", "contender")].mark == "+"  # higher HV is better

    def test_write_summary_files(self, tmp_path):
        table = summarize(synthetic_records(), "base", "IGD")
        csv_path, md_path = write_summary(table, tmp_path)
        assert csv_path.read_text().startswith("problem,base,contender")
        assert "signed-rank" in md_path.read_text()

    def test_write_ranks(self, tmp_path):
        path = write_ranks(synthetic_records(), tmp_path)
        rows = read_rows(path)
        assert [r["algorithm"] for r in rows] == ["base", "contender"]
        assert float(rows[0]["mean_rank"]) == 1.0
        assert rows[0]["metric"] == "IGD"

    def test_write_ranks_follows_the_records_metric_order(self, tmp_path):
        # neither sorted by name (GD, HV, IGD) nor the harness's default order
        records = [replace(rec, metrics={"HV": 1.0 - rec.metrics["IGD"], **rec.metrics,
                                         "GD": rec.metrics["IGD"] / 2})
                   for rec in synthetic_records()]
        rows = read_rows(write_ranks(records, tmp_path))
        assert [r["metric"] for r in rows] == ["HV", "HV", "IGD", "IGD", "GD", "GD"]
        assert [float(r["mean_rank"]) for r in rows] == [1.0, 2.0] * 3


class TestCli:
    def test_bench_list(self, capsys):
        assert cli_main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "DTLZ1" in out and "ZDT6" in out

    def test_metric_igd(self, tmp_path, capsys):
        front = tmp_path / "front.csv"
        ref = tmp_path / "ref.csv"
        np.savetxt(front, [[0.0, 1.0], [1.0, 0.0]], delimiter=",")
        np.savetxt(ref, [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]], delimiter=",")
        assert cli_main(["metric", "igd", "--front", str(front), "--ref", str(ref)]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(np.sqrt(0.5) / 3)

    def test_metric_hv(self, tmp_path, capsys):
        front = tmp_path / "front.csv"
        ref = tmp_path / "ref.csv"
        np.savetxt(front, [[0.25, 0.75], [0.75, 0.25]], delimiter=",")
        np.savetxt(ref, [[1.0, 1.0]], delimiter=",")
        assert cli_main(["metric", "hv", "--front", str(front), "--ref", str(ref)]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(0.3125)

    def test_metric_hv_monte_carlo_names_its_samples(self, tmp_path, capsys):
        front = tmp_path / "front.csv"
        ref = tmp_path / "ref.csv"
        np.savetxt(front, [[0.2, 0.5, 0.5, 0.5], [0.5, 0.2, 0.5, 0.5]], delimiter=",")
        np.savetxt(ref, [[1.0, 1.0, 1.0, 1.0]], delimiter=",")
        assert cli_main(["metric", "hv", "--front", str(front), "--ref", str(ref),
                         "--mode", "monte_carlo", "--samples", "2000"]) == 0
        captured = capsys.readouterr()
        assert 0.0 < float(captured.out.strip()) < 1.0
        assert captured.err == "mode=monte_carlo samples=2000\n"

    def test_metric_hv_rejects_overflowing_box(self, tmp_path, capsys):
        front = tmp_path / "front.csv"
        ref = tmp_path / "ref.csv"
        np.savetxt(front, [[-1e308] * 4], delimiter=",")
        np.savetxt(ref, [[1e308] * 4], delimiter=",")
        assert cli_main(["metric", "hv", "--front", str(front), "--ref", str(ref)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: hv: the box from [-1e+308, ")

    @pytest.mark.parametrize("metric, front, ref, message", [
        ("igd", [[1e200, 1e200]], [[0.0, 0.0]], "igd: a distance between the sets"),
        ("gd", [[1e200, 1e200]], [[0.0, 0.0]], "gd: a distance between the sets"),
        ("hv", [[0.0] * 3], [[1e-200, 1e-200, 1e200]], "hv: the box from [0.0, 0.0, 0.0]"),
    ], ids=["igd-overflow", "gd-overflow", "hv-underflow"])
    def test_metric_rejects_values_beyond_the_float_range(self, tmp_path, capsys, metric,
                                                          front, ref, message):
        paths = tmp_path / "front.csv", tmp_path / "ref.csv"
        np.savetxt(paths[0], front, delimiter=",")
        np.savetxt(paths[1], ref, delimiter=",")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["metric", metric, "--front", str(paths[0]),
                             "--ref", str(paths[1])]) == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1

    def test_metric_hv_one_objective(self, tmp_path, capsys):
        front = tmp_path / "front.csv"
        ref = tmp_path / "ref.csv"
        front.write_text("0.2\n0.5\n")
        ref.write_text("1.0\n")
        assert cli_main(["metric", "hv", "--front", str(front), "--ref", str(ref)]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(0.8, abs=1e-15)

    def test_metric_hv_rejects_multirow_reference(self, tmp_path, capsys):
        front = tmp_path / "front.csv"
        ref = tmp_path / "ref.csv"
        np.savetxt(front, [[0.5, 0.5]], delimiter=",")
        np.savetxt(ref, [[1.0, 1.0], [2.0, 2.0]], delimiter=",")
        assert cli_main(["metric", "hv", "--front", str(front), "--ref", str(ref)]) == 2
        assert "exactly one point" in capsys.readouterr().err

    @pytest.mark.parametrize("metric", ["igd", "gd", "hv"])
    @pytest.mark.parametrize("where", ["front", "ref"])
    def test_metric_rejects_non_finite(self, tmp_path, capsys, metric, where):
        files = {"front": [[0.25, 0.75], [0.75, 0.25]], "ref": [[1.0, 1.0]]}
        files[where] = [*files[where][:-1], [float("nan"), 0.5]]
        args = ["metric", metric]
        for name, rows in files.items():
            path = tmp_path / f"{name}.csv"
            np.savetxt(path, rows, delimiter=",")
            args += [f"--{name}", str(path)]
        assert cli_main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {metric}: ")
        assert "NaN or infinity" in captured.err

    @pytest.mark.parametrize("metric", ["igd", "gd", "hv"])
    @pytest.mark.parametrize("content", ["", "\n\n", "# header only\n"],
                             ids=["empty", "blank-lines", "comment-only"])
    def test_metric_rejects_empty_csv(self, tmp_path, capsys, metric, content):
        front = tmp_path / "front.csv"
        ref = tmp_path / "ref.csv"
        front.write_text(content)
        np.savetxt(ref, [[1.0, 1.0]], delimiter=",")
        assert cli_main(["metric", metric, "--front", str(front), "--ref", str(ref)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {front} holds no rows\n"

    def test_metric_rejects_non_numeric_csv(self, tmp_path, capsys):
        front = tmp_path / "front.csv"
        ref = tmp_path / "ref.csv"
        front.write_text("f1,f2\n0.5,0.5\n")
        np.savetxt(ref, [[1.0, 1.0]], delimiter=",")
        assert cli_main(["metric", "igd", "--front", str(front), "--ref", str(ref)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {front} is not a numeric CSV: ")
        assert captured.err.count("\n") == 1

    def test_metric_missing_file(self, tmp_path, capsys):
        assert cli_main(["metric", "igd", "--front", str(tmp_path / "a.csv"),
                         "--ref", str(tmp_path / "b.csv")]) == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["front", "ref"])
    def test_metric_directory_path(self, tmp_path, capsys, where):
        files = {"front": tmp_path / "front.csv", "ref": tmp_path / "ref.csv"}
        np.savetxt(files["front"], [[0.5, 0.5]], delimiter=",")
        np.savetxt(files["ref"], [[1.0, 1.0]], delimiter=",")
        files[where] = tmp_path
        assert cli_main(["metric", "igd", "--front", str(files["front"]),
                         "--ref", str(files["ref"])]) == 2
        assert capsys.readouterr().err == f"error: cannot read {tmp_path}: Is a directory\n"

    def test_run_config_directory(self, tmp_path, capsys):
        assert cli_main(["run", "--config", str(tmp_path)]) == 2
        assert (capsys.readouterr().err
                == f"error: cannot read config file {tmp_path}: Is a directory\n")

    @pytest.mark.parametrize("blocker, message", [
        ("out", "cannot write {out}/metadata.json: File exists"),
        ("metadata.json", "cannot read metadata file {out}/metadata.json: Is a directory"),
        ("runs.csv", "cannot read {out}/runs.csv: Is a directory")])
    def test_run_output_path_unusable(self, tmp_path, capsys, blocker, message):
        out = tmp_path / "out"
        if blocker == "out":
            out.write_text("")
        else:
            (out / blocker).mkdir(parents=True)
        rc = cli_main(["run", "--problem", "ZDT1", "--algo", "nsga3", "--seeds", "1",
                       "--n", "10", "--max-fes", "20", "--out", str(out), "--quiet"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message.format(out=out)}\n"

    def test_resume_after_a_version_bump_is_an_error(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        argv = ["run", "--problem", "ZDT1", "--algo", "nsga3", "--seeds", "2", "--n", "10",
                "--max-fes", "20", "--metrics", "IGD", "--out", str(out), "--quiet"]
        assert cli_main(argv) == 0
        before, version = (out / "runs.csv").read_bytes(), harness.__version__
        monkeypatch.setattr(harness, "__version__", version + "+bumped")
        capsys.readouterr()
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {out} holds results of temof {version!r}, not of this version "
            f"{version + '+bumped'!r}; choose another output_dir\n")
        assert (out / "runs.csv").read_bytes() == before

    def test_run_with_flags_and_reports(self, tmp_path, capsys):
        out = tmp_path / "exp"
        rc = cli_main(["run", "--problem", "ZDT1", "--algo", "nsga3",
                       "--algo", "temof-nsga3", "--seeds", "2", "--n", "10",
                       "--max-fes", "100", "--metrics", "IGD",
                       "--out", str(out), "--quiet"])
        assert rc == 0
        assert (out / "runs.csv").exists()
        assert (out / "summary_IGD.csv").exists()
        captured = capsys.readouterr().out
        assert "4/4 runs complete" in captured
        assert "+/-/=" in captured

        assert cli_main(["report", "summarize", "--runs", str(out),
                         "--base", "nsga3", "--metric", "IGD"]) == 0
        assert "| Problem |" in capsys.readouterr().out

        assert cli_main(["report", "ranks", "--runs", str(out)]) == 0
        assert "metric,algorithm,mean_rank" in capsys.readouterr().out

    def test_report_ranks_rewrites_the_ranks_run_wrote(self, tmp_path, capsys):
        out = tmp_path / "exp"
        assert cli_main(["run", "--problem", "DTLZ7", "--problem", "ZDT3", "--algo", "nsga3",
                         "--algo", "temof-nsga3", "--seeds", "2", "--n", "10",
                         "--max-fes", "20", "--metrics", "IGD", "HV", "--out", str(out),
                         "--quiet"]) == 0
        written = (out / "ranks.csv").read_bytes()
        assert [r["metric"] for r in read_rows(out / "ranks.csv")] == ["IGD"] * 2 + ["HV"] * 2
        assert cli_main(["report", "ranks", "--runs", str(out)]) == 0
        assert (out / "ranks.csv").read_bytes() == written

    def test_run_prints_one_line_per_cell(self, tmp_path, capsys):
        out = tmp_path / "exp"
        assert cli_main(["run", "--problem", "ZDT1", "--algo", "nsga3", "--seeds", "2",
                         "--n", "10", "--max-fes", "20", "--metrics", "IGD", "HV",
                         "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"2/2 runs complete in {out}"
        for i, line in enumerate(lines[:-1]):
            assert re.fullmatch(rf"\[{i + 1}/2\] ZDT1 nsga3 seed={i} "
                                r"HV=\d\.\d{4}e[+-]\d\d IGD=\d\.\d{4}e[+-]\d\d \(\d+ ms\)",
                                line), line
        assert len(lines) == 3

    def test_run_prints_failed_cells(self, tmp_path, capsys, monkeypatch):
        def broken_sampler(self, count):
            raise RuntimeError("sampler fault")

        monkeypatch.setattr(ProblemSpec, "true_front", broken_sampler)
        out = tmp_path / "exp"
        assert cli_main(["run", "--problem", "ZDT1", "--algo", "nsga3", "--seeds", "2",
                         "--n", "10", "--max-fes", "20", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ("[1/2] failed (see failures.csv)\n"
                                "[2/2] failed (see failures.csv)\n"
                                f"0/2 runs complete in {out}\n")
        assert captured.err == f"some runs failed; see {out / 'failures.csv'}\n"

    def test_run_with_a_partly_saved_cell_whose_retry_fails(self, tmp_path, capsys,
                                                           monkeypatch):
        out = tmp_path / "exp"
        argv = ["run", "--problem", "ZDT1", "--problem", "ZDT2", "--algo", "nsga3",
                "--algo", "temof-nsga3", "--seeds", "1", "--n", "10", "--max-fes", "20",
                "--out", str(out), "--quiet"]
        assert cli_main(argv) == 0
        runs = out / "runs.csv"
        data = runs.read_bytes()
        runs.write_bytes(data[:data.rstrip(b"\r\n").rindex(b",") + 1])  # the last HV cut off

        def broken(config, problem, algorithm, seed):
            raise RuntimeError("synthetic fault")

        monkeypatch.setattr(harness, "_execute_run", broken)
        capsys.readouterr()
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == f"3/4 runs complete in {out}\n"
        assert captured.err == f"some runs failed; see {out / 'failures.csv'}\n"

    def test_run_with_config_file(self, tmp_path, capsys):
        cfg = {"problems": ["ZDT1"], "algorithms": ["nsga3"], "seeds": [0],
               "n": 10, "max_fes": 50, "metrics": ["IGD"],
               "igd_reference_size": 200,
               "output_dir": str(tmp_path / "exp")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["run", "--config", str(path), "--quiet"]) == 0
        assert (tmp_path / "exp" / "runs.csv").exists()

    def test_run_config_file_with_out_override(self, tmp_path, capsys):
        cfg = {"problems": ["ZDT1"], "algorithms": ["nsga3"], "seeds": [0],
               "n": 10, "max_fes": 50, "metrics": ["IGD"],
               "igd_reference_size": 200,
               "output_dir": str(tmp_path / "from_config")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "from_flag"
        assert cli_main(["run", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        assert (out / "runs.csv").exists()
        assert json.loads((out / "metadata.json").read_text())["config"]["seeds"] == [0]
        assert not (tmp_path / "from_config").exists()

    def test_run_flags_keep_the_fingerprint(self, tmp_path, capsys):
        # unset --p and --master-seed leave the config defaults 0.5 and 0
        out = tmp_path / "exp"
        assert cli_main(["run", "--problem", "ZDT1", "--algo", "nsga3",
                         "--algo", "temof-nsga3", "--seeds", "1", "--n", "10",
                         "--max-fes", "50", "--metrics", "IGD",
                         "--out", str(out), "--quiet"]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["fingerprint"] == \
            "e4a99b841dbd4b297a505aac8293ed45d19485286b279b5a3cdc368a0f11b6e7"
        assert meta["config"]["master_seed"] == 0
        assert [a["p"] for a in meta["config"]["algorithms"]] == [0.5, 0.5]

    def test_run_seeds_with_seed_list_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--problem", "ZDT1", "--algo", "nsga3", "--seeds", "3",
                      "--seed-list", "7", "--n", "10", "--max-fes", "50",
                      "--out", str(tmp_path / "o"), "--quiet"])
        assert exc.value.code == 2
        assert "--seed-list: not allowed with argument --seeds" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags", [
        ["--problem", "DTLZ2", "--seeds", "5", "--n", "50"], ["--algo", "temof-nsga3"],
        ["--seed-list", "7"], ["--master-seed", "0"], ["--max-fes", "500"], ["--p", "0.5"],
        ["--metrics", "GD"], ["--indicator-target", "archive"]],
        ids=lambda flags: "+".join(f[2:] for f in flags if f.startswith("--")))
    def test_run_config_with_matrix_flags_rejected(self, tmp_path, capsys, flags):
        named = ", ".join(f for f in flags if f.startswith("--"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problems": ["ZDT1"], "algorithms": ["nsga3"],
                                    "seeds": [0], "n": 10, "max_fes": 50,
                                    "metrics": ["IGD"], "igd_reference_size": 200}))
        out = tmp_path / "o"
        assert cli_main(["run", "--config", str(path), *flags,
                         "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: --config cannot be combined with {named}\n"
        assert not out.exists()

    def test_run_flag_validation(self, capsys):
        assert cli_main(["run", "--problem", "ZDT1"]) == 2
        assert "needs either --config" in capsys.readouterr().err

    def test_run_zero_seeds(self, tmp_path, capsys):
        rc = cli_main(["run", "--problem", "ZDT1", "--algo", "nsga3", "--seeds", "0",
                       "--n", "10", "--max-fes", "50", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_run_repeated_metrics(self, tmp_path, capsys):
        rc = cli_main(["run", "--problem", "ZDT1", "--algo", "nsga3", "--seeds", "1",
                       "--n", "10", "--max-fes", "50", "--metrics", "IGD", "IGD",
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error: metrics must be unique" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_run_config_with_bad_value(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problems": ["ZDT1"], "algorithms": ["nsga3"],
                                    "seeds": [0], "n": "twenty", "max_fes": 50}))
        assert cli_main(["run", "--config", str(path), "--quiet"]) == 2
        assert "error: config key 'n'" in capsys.readouterr().err

    def test_run_config_with_problems_as_a_string(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problems": "ZDT1", "algorithms": ["nsga3"],
                                    "seeds": [0], "n": 10, "max_fes": 50}))
        assert cli_main(["run", "--config", str(path), "--quiet"]) == 2
        assert "'problems' must be a list" in capsys.readouterr().err

    def test_run_bad_seed_list(self, tmp_path, capsys):
        rc = cli_main(["run", "--problem", "ZDT1", "--algo", "nsga3", "--seed-list", "0,x",
                       "--n", "10", "--max-fes", "50", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error: --seed-list" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["summarize", "--base", "nsga3", "--metric", "IGD"],
                                         ["ranks"]],
                             ids=["summarize", "ranks"])
    def test_report_without_runs_file(self, tmp_path, capsys, command):
        assert cli_main(["report", command[0], "--runs", str(tmp_path), *command[1:]]) == 2
        assert capsys.readouterr().err == f"error: no runs.csv under {tmp_path}\n"

    def test_report_ranks_reads_utf8_in_an_ascii_locale(self, tmp_path, capsys):
        # ranks.csv is written as UTF-8 whatever the locale, so it must be read back so
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "problems": [{"name": "ZDT1", "n_var": 6, "label": "ZDT1-\u00e9"}, "ZDT2"],
            "algorithms": ["nsga3", {"name": "temof-nsga3", "label": "temof-\u00fc"}],
            "seeds": [0, 1], "n": 10, "max_fes": 20, "metrics": ["IGD"],
            "igd_reference_size": 50, "output_dir": str(tmp_path / "out")}))
        assert cli_main(["run", "--config", str(config), "--quiet"]) == 0
        capsys.readouterr()
        src = str(Path(harness.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
               "PYTHONIOENCODING": "utf-8",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "temof.cli", "report", "ranks",
                               "--runs", str(tmp_path / "out")],
                              env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        out = proc.stdout.decode("utf-8")
        assert out == (tmp_path / "out" / "ranks.csv").read_text(encoding="utf-8")
        assert "IGD,temof-\u00fc," in out

    def test_cli_prints_utf8_in_an_ascii_locale(self, tmp_path):
        # stdout is UTF-8, as every results file is, whatever the locale's encoding
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "problems": [{"name": "ZDT1", "n_var": 6, "label": "ZDT1-\u00e9"}, "ZDT2"],
            "algorithms": ["nsga3", {"name": "temof-nsga3", "label": "temof-\u00fc"}],
            "seeds": [0, 1], "n": 10, "max_fes": 20, "metrics": ["IGD"],
            "igd_reference_size": 50, "output_dir": str(tmp_path / "out")}))
        src = str(Path(harness.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONIOENCODING", None)

        def temof(*args):
            proc = subprocess.run([sys.executable, "-m", "temof.cli", *args],
                                  env=env, capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
            return proc.stdout.decode("utf-8")

        out = temof("run", "--config", str(config))
        assert "[1/8] ZDT1-\u00e9 nsga3 seed=0 IGD=" in out
        assert "[8/8] ZDT2 temof-\u00fc seed=1 IGD=" in out
        assert "| ZDT1-\u00e9 |" in temof("report", "summarize", "--runs", str(tmp_path / "out"),
                                         "--base", "nsga3", "--metric", "IGD")
        out = temof("report", "ranks", "--runs", str(tmp_path / "out"))
        assert out == (tmp_path / "out" / "ranks.csv").read_text(encoding="utf-8")
        assert "IGD,temof-\u00fc," in out

    def test_report_on_malformed_runs(self, tmp_path, capsys):
        (tmp_path / "runs.csv").write_text(",".join(harness.RUN_COLUMNS) + "\n"
                                           "ZDT1,nsga3,x,IGD,0.5,100,1.0\n")
        assert cli_main(["report", "ranks", "--runs", str(tmp_path)]) == 2
        assert "line 2: malformed run row" in capsys.readouterr().err

    def test_report_on_unknown_metric(self, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        runs.write_text(",".join(harness.RUN_COLUMNS) + "\n" "ZDT1,nsga3,0,FOO,0.5,100,1.0\n")
        assert cli_main(["report", "ranks", "--runs", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (f"error: {runs} line 2: malformed run row "
                                           f"(unknown metric 'FOO'; known: IGD, GD, HV)\n")

    def test_report_on_non_utf8_runs(self, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        runs.write_bytes(",".join(harness.RUN_COLUMNS).encode() + b"\r\n"
                         b"\xff\xfe,nsga3,0,IGD,0.5,100,1.0\r\n")
        assert cli_main(["report", "ranks", "--runs", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {runs} is not UTF-8 text (") and err.count("\n") == 1

    @pytest.mark.parametrize("blocker", ["metadata.json", "runs.csv"])
    def test_run_into_a_dangling_link(self, tmp_path, capsys, blocker):
        out = tmp_path / "out"
        out.mkdir()
        (out / blocker).symlink_to(tmp_path / "gone" / "x")
        rc = cli_main(["run", "--problem", "ZDT1", "--algo", "nsga3", "--seeds", "1",
                       "--n", "10", "--max-fes", "20", "--out", str(out), "--quiet"])
        assert rc == 2
        assert (capsys.readouterr().err
                == f"error: cannot write {out / blocker}: No such file or directory\n")

    @pytest.mark.parametrize("command, blocker", [
        (["summarize", "--base", "nsga3", "--metric", "IGD"], "summary_IGD.csv"),
        (["summarize", "--base", "nsga3", "--metric", "IGD"], "summary_IGD.md"),
        (["ranks"], "ranks.csv")], ids=["summary-csv", "summary-md", "ranks"])
    def test_report_file_unwritable(self, tmp_path, capsys, command, blocker):
        (tmp_path / "runs.csv").write_text(",".join(harness.RUN_COLUMNS) + "\n"
                                           "ZDT1,nsga3,0,IGD,0.5,100,1.0\n")
        (tmp_path / blocker).mkdir()
        assert cli_main(["report", command[0], "--runs", str(tmp_path), *command[1:]]) == 2
        assert (capsys.readouterr().err
                == f"error: cannot write {tmp_path / blocker}: Is a directory\n")

    @pytest.mark.parametrize("failing, message", [
        (True, "cannot write {path}: Is a directory"),
        (False, "cannot remove {path}: Is a directory")], ids=["failing-run", "clean-run"])
    def test_failures_file_unwritable(self, tmp_path, capsys, monkeypatch, failing, message):
        def broken(config, problem, algorithm, seed):
            raise RuntimeError("synthetic fault")
        if failing:
            monkeypatch.setattr(harness, "_execute_run", broken)
        out = tmp_path / "out"
        (out / "failures.csv").mkdir(parents=True)
        rc = cli_main(["run", "--problem", "ZDT1", "--algo", "nsga3", "--seeds", "1",
                       "--n", "10", "--max-fes", "20", "--out", str(out), "--quiet"])
        assert rc == 2
        assert (capsys.readouterr().err
                == f"error: {message.format(path=out / 'failures.csv')}\n")

    @pytest.mark.parametrize("flags, message", [
        (["--max-fes", "50", "--p", "1.5"], "p must be in [0, 1], got 1.5"),
        (["--max-fes", "5"], "max_fes=5 cannot be below the population size 10")])
    def test_run_settings_rejected(self, tmp_path, capsys, flags, message):
        rc = cli_main(["run", "--problem", "ZDT1", "--algo", "temof-nsga3", "--seeds", "1",
                       "--n", "10", *flags, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_report_summarize_checks_alpha(self, tmp_path, capsys):
        (tmp_path / "runs.csv").write_text(",".join(harness.RUN_COLUMNS) + "\n"
                                           "ZDT1,nsga3,0,IGD,0.5,100,1.0\n")
        assert cli_main(["report", "summarize", "--runs", str(tmp_path), "--base", "nsga3",
                         "--metric", "IGD", "--alpha", "7"]) == 2
        assert capsys.readouterr().err == "error: alpha must be in (0, 1), got 7.0\n"
        assert not (tmp_path / "summary_IGD.csv").exists()

    def test_bad_config_path(self, capsys):
        assert cli_main(["run", "--config", "/nonexistent.json"]) == 2
        assert "not found" in capsys.readouterr().err

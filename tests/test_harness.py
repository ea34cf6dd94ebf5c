import csv
import json
import pickle
import warnings
from dataclasses import asdict
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
from temof.harness import config_from_dict, format_cell, format_sci


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
        with pytest.raises(ConfigurationError, match="not unique"):
            ExperimentConfig(problems=(ProblemSelection("ZDT1"),),
                             algorithms=(AlgorithmSpec("nsga3"),
                                         AlgorithmSpec("nsga3")),
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
        harness._execute_run = lambda task: executed.append(task) or orig(task)
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

    def test_empty_runs_file_gets_a_header(self, tmp_path):
        cfg = tiny_config(tmp_path / "out", seeds=(0,), metrics=("IGD",))
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "runs.csv").touch()  # as left by a kill before the header
        records = run_matrix(cfg)
        assert len(records) == 2
        assert len(load_records(tmp_path / "out")) == 2
        assert len(run_matrix(cfg)) == 2  # and the resume reads it back

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

        def flaky(task):
            if task.algorithm.name == "temof-nsga3":
                raise RuntimeError("synthetic fault")
            return orig(task)

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

    def test_parallel_output_matches_sequential(self, tmp_path):
        cfg1 = tiny_config(tmp_path / "seq")
        cfg2 = tiny_config(tmp_path / "par")
        run_matrix(cfg1, workers=1)
        run_matrix(cfg2, workers=2)
        seq = read_rows(tmp_path / "seq" / "runs.csv")
        par = read_rows(tmp_path / "par" / "runs.csv")
        for a, b in zip(seq, par):
            a.pop("wall_ms"), b.pop("wall_ms")
            assert a == b

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
                                     "ZDT1,nsga3,0,IGD"])
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
        assert format_cell(14.3, 0.756) == "1.4e+1 (7.6e-1)"


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

    def test_metric_missing_file(self, tmp_path, capsys):
        assert cli_main(["metric", "igd", "--front", str(tmp_path / "a.csv"),
                         "--ref", str(tmp_path / "b.csv")]) == 2
        assert "not found" in capsys.readouterr().err

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

    def test_report_on_malformed_runs(self, tmp_path, capsys):
        (tmp_path / "runs.csv").write_text(",".join(harness.RUN_COLUMNS) + "\n"
                                           "ZDT1,nsga3,x,IGD,0.5,100,1.0\n")
        assert cli_main(["report", "ranks", "--runs", str(tmp_path)]) == 2
        assert "line 2: malformed run row" in capsys.readouterr().err

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

import json
import os
from pathlib import Path

import numpy as np
import pytest

from rpentropy.cli import OPTIONS, main
from rpentropy.serialize import canonical_dumps, read_xy_csv, write_csv


def run(tmp_path, *argv):
    return main(list(argv) + ["--out", str(tmp_path)])


def load(tmp_path, name):
    with open(tmp_path / name) as handle:
        return json.load(handle)


class TestGramSweep:

    def test_default_run_passes(self, tmp_path):
        code = run(tmp_path, "gram-sweep", "--trials", "30", "--seed", "42")
        assert code == 0
        payload = load(tmp_path, "gram-sweep-seed42.json")
        results = payload["report"]["results"]
        assert results["passed"]
        assert results["instances"] == 30
        assert results["checks"] == 30 * 4

    def test_trial_accounting_with_lists(self, tmp_path):
        code = run(tmp_path, "gram-sweep", "--trials", "12", "--seed", "1",
                   "--n", "2,3", "--dims", "2x2", "--subsystems", "3")
        assert code == 0
        results = load(tmp_path, "gram-sweep-seed1.json")["report"]["results"]
        assert results["checks"] == 24

    def test_deterministic_report(self, tmp_path):
        run(tmp_path, "gram-sweep", "--trials", "10", "--seed", "5")
        first = load(tmp_path, "gram-sweep-seed5.json")["report"]
        run(tmp_path, "gram-sweep", "--trials", "10", "--seed", "5")
        second = load(tmp_path, "gram-sweep-seed5.json")["report"]
        assert canonical_dumps(first) == canonical_dumps(second)

    def test_control_violation_exit_code(self, tmp_path, monkeypatch):
        import rpentropy.cli as cli_mod
        from rpentropy.positivity import SweepResult

        def fake_sweep(*args, **kwargs):
            return SweepResult(instances=1, checks=1, min_normalized_eig=-1.0,
                               worst={}, violations=[{"instance": 0, "n": 2}])

        monkeypatch.setattr(cli_mod, "theorem_sweep_parallel", fake_sweep)
        code = run(tmp_path, "gram-sweep", "--trials", "1", "--seed", "3")
        assert code == 3

    def test_parallel_jobs_match(self, tmp_path):
        run(tmp_path, "gram-sweep", "--trials", "12", "--seed", "9", "--jobs", "1")
        serial = load(tmp_path, "gram-sweep-seed9.json")["report"]["results"]
        run(tmp_path, "gram-sweep", "--trials", "12", "--seed", "9", "--jobs", "3")
        parallel = load(tmp_path, "gram-sweep-seed9.json")["report"]["results"]
        assert canonical_dumps(serial) == canonical_dumps(parallel)


class TestSearch:

    def test_entropy_search_writes_fixture(self, tmp_path):
        code = run(tmp_path, "search", "--target", "entropy_n1",
                   "--dims", "2x2,2x2,2x2", "--trials", "3000", "--seed", "2024")
        assert code == 0
        results = load(tmp_path, "search-entropy_n1-seed2024.json")["report"]["results"]
        assert results["num_violations"] >= 1
        assert results["fixtures"]
        fixture = tmp_path / "fixtures" / results["fixtures"][0]
        assert fixture.exists()
        payload = json.loads(fixture.read_text())
        assert payload["violation"]["slack"] < 0

    def test_none_found_is_success(self, tmp_path):
        code = run(tmp_path, "search", "--target", "entropy_n1",
                   "--dims", "2x2,2x2", "--trials", "20", "--seed", "1")
        assert code == 0
        results = load(tmp_path, "search-entropy_n1-seed1.json")["report"]["results"]
        assert results["num_violations"] == 0
        assert results["trials_run"] == 20

    def test_integer_control_violation_exits_3(self, tmp_path, monkeypatch):
        # a control-mode violation can only come from a numerics bug, so fake one
        import rpentropy.cli as cli_mod
        from rpentropy.positivity import SearchReport

        def fake_search(cfg, jobs=1):
            return SearchReport(config=cfg, trials_run=cfg.trials,
                                violations=[{"trial": 0, "slack": -1.0}],
                                min_slack=-1.0, min_slack_trial=0)

        monkeypatch.setattr(cli_mod, "counterexample_search", fake_search)
        code = run(tmp_path, "search", "--target", "integer_n", "--n", "2",
                   "--dims", "2x2,2x2", "--trials", "5", "--seed", "2")
        assert code == 3

    def test_bad_dims_config_error(self, tmp_path):
        assert run(tmp_path, "search", "--dims", "2xx2") == 1
        assert run(tmp_path, "search", "--dims", "2x2,3x3") == 1


class TestFermion:

    def test_identities_pass(self, tmp_path):
        code = run(tmp_path, "fermion", "--trials", "15", "--seed", "42",
                   "--witness-trials", "15")
        assert code == 0
        payload = load(tmp_path, "fermion-seed42.json")
        results = payload["report"]["results"]
        assert results["passed"]
        assert results["worst_residuals"]["wick_cauchy"] <= 1e-10
        csv_rows = (tmp_path / results["csv"]).read_text().splitlines()
        assert len(csv_rows) == 16  # header + trials


class TestKl:

    def test_builtin_round_trip(self, tmp_path):
        code = run(tmp_path, "kl", "--seed", "42")
        assert code == 0
        results = load(tmp_path, "kl-seed42.json")["report"]["results"]
        assert results["residual_relative"] <= 1e-6
        assert results["derivative_report"]["increasing"]
        assert results["derivative_report"]["concave"]

    def test_csv_input(self, tmp_path):
        xs = np.logspace(-0.5, 0.5, 30)
        write_csv(tmp_path / "curve.csv", ["x", "s"],
                  zip(xs.tolist(), (np.log(xs) / 6).tolist()))
        code = run(tmp_path, "kl", "--seed", "1", "--input", str(tmp_path / "curve.csv"),
                   "--lam", "2.0")
        assert code == 0
        results = load(tmp_path, "kl-seed1.json")["report"]["results"]
        assert not results["round_trip"]
        assert results["residual_relative"] <= 1e-3


class TestCft:

    def test_builtin_passes(self, tmp_path):
        code = run(tmp_path, "cft", "--seed", "42", "--grid-points", "200",
                   "--pairs", "200")
        assert code == 0
        results = load(tmp_path, "cft-seed42.json")["report"]["results"]
        assert results["passed"]
        assert results["z_identity_deviation"] == 0.0
        assert (tmp_path / results["csv"]).exists()

    def test_violator_table_fails(self, tmp_path):
        xs = np.linspace(0.01, 0.99, 99)
        q = 1.0 / 6.0 * (2 - 0.5)
        write_csv(tmp_path / "f.csv", ["x", "f"],
                  zip(xs.tolist(), ((1 - xs) ** (2 * q)).tolist()))
        code = run(tmp_path, "cft", "--seed", "1", "--f-table", str(tmp_path / "f.csv"),
                   "--grid-points", "100", "--pairs", "50")
        assert code == 2


class TestConfigHandling:

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"trials": \n oops}')
        code = main(["gram-sweep", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_readme_key_table_matches_options(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        rows = {}
        for line in readme.read_text().splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if len(cells) == 2 and cells[0] in OPTIONS:
                rows[cells[0]] = [key.strip() for key in cells[1].split(",")]
        assert rows == {name: [key for key, *_ in options]
                        for name, options in OPTIONS.items()}

    @pytest.mark.parametrize("value", [[3], {"count": 3}, "x"])
    def test_bad_scalar_value_config_error(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": value}))
        assert main(["gram-sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "trials" in capsys.readouterr().err

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bogus": 1}')
        assert main(["kl", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 8, "seed": 11, "subsystems": "2",
                                   "dims": "2x2", "n": "2"}))
        code = main(["gram-sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        results = load(tmp_path, "gram-sweep-seed11.json")["report"]["results"]
        assert results["instances"] == 8

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 8, "seed": 11}))
        code = main(["gram-sweep", "--config", str(cfg), "--seed", "99",
                     "--trials", "5", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "gram-sweep-seed99.json").exists()

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RPENTROPY_OUT", str(tmp_path / "envout"))
        code = main(["cft", "--seed", "4", "--grid-points", "50", "--pairs", "20"])
        assert code == 0
        assert (tmp_path / "envout" / "cft-seed4.json").exists()

    def test_report_embeds_version_and_config(self, tmp_path):
        run(tmp_path, "cft", "--seed", "8", "--grid-points", "50", "--pairs", "20")
        payload = load(tmp_path, "cft-seed8.json")
        report = payload["report"]
        assert report["tool"] == "rpentropy"
        assert report["version"]
        assert report["config"]["seed"] == 8
        assert "timestamp" in payload["meta"]


class TestFermionExplicitSets:

    def test_config_supplied_interval_sets(self, tmp_path):
        cfg = tmp_path / "sets.json"
        cfg.write_text(json.dumps({
            "seed": 6,
            "sets": [[[1.0, 2.0]], [[3.0, 4.0], [5.0, 6.0]]],
            "lambda": "0.5,2.0",
        }))
        code = main(["fermion", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        payload = load(tmp_path, "fermion-seed6.json")
        results = payload["report"]["results"]
        assert results["passed"]
        # both sets sit in the half line, so the divisibility witness ran
        assert results["divisibility_min_normalized_eigenvalue"] is not None
        assert payload["report"]["config"]["sets"] == [[[1.0, 2.0]],
                                                       [[3.0, 4.0], [5.0, 6.0]]]

    def test_witness_skipped_off_half_line(self, tmp_path):
        cfg = tmp_path / "sets.json"
        cfg.write_text(json.dumps({"seed": 7, "sets": [[[-2.0, -1.0]], [[3.0, 4.0]]]}))
        code = main(["fermion", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        results = load(tmp_path, "fermion-seed7.json")["report"]["results"]
        assert results["divisibility_min_normalized_eigenvalue"] is None

    def test_bad_sets_config_error(self, tmp_path):
        cfg = tmp_path / "sets.json"
        cfg.write_text(json.dumps({"sets": [[[2.0, 1.0]]]}))
        assert main(["fermion", "--config", str(cfg), "--out", str(tmp_path)]) == 1


class TestSerializeHelpers:

    def test_read_xy_skips_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
        xs, ys = read_xy_csv(str(path))
        assert xs.tolist() == [1.0, 3.0]
        assert ys.tolist() == [2.0, 4.0]

    def test_read_xy_rejects_empty(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("only,header\n")
        with pytest.raises(ValueError):
            read_xy_csv(str(path))

    def test_complex_round_trip(self):
        from rpentropy.serialize import decode_complex, encode_complex
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        assert np.array_equal(decode_complex(encode_complex(mat)), mat)

    def test_content_hash_stability(self):
        from rpentropy.serialize import content_hash
        payload = {"b": [1.0, 2.5e-17], "a": "x"}
        assert content_hash(payload) == content_hash(dict(payload))
        assert content_hash(payload) != content_hash({"b": [1.0, 2.4e-17], "a": "x"})

    def test_fixture_filename_is_content_hash(self, tmp_path):
        from rpentropy.serialize import content_hash, write_fixture
        payload = {"k": 1.25}
        path = write_fixture(str(tmp_path), payload)
        assert os.path.basename(path) == content_hash(payload) + ".json"
        assert json.loads(open(path).read()) == payload

    def test_lambda_flag_alias(self, tmp_path):
        code = main(["kl", "--seed", "21", "--lambda", "2.0", "--out", str(tmp_path)])
        assert code == 0
        assert load(tmp_path, "kl-seed21.json")["report"]["config"]["lam"] == 2.0


class TestResolvedConfig:
    """The full resolved report.config of every subcommand, key by key."""

    @pytest.fixture(autouse=True)
    def fast_sweeps(self, monkeypatch):
        import rpentropy.cli as cli_mod
        from rpentropy.positivity import SearchReport, SweepResult

        monkeypatch.setattr(cli_mod, "theorem_sweep_parallel", lambda *args, **kwargs:
                            SweepResult(instances=0, checks=0, min_normalized_eig=0.0,
                                        worst={}, violations=[]))
        monkeypatch.setattr(cli_mod, "counterexample_search", lambda cfg, jobs=1:
                            SearchReport(config=cfg, trials_run=cfg.trials, violations=[],
                                         min_slack=0.0, min_slack_trial=0))

    def check(self, tmp_path, name, argv, expected):
        assert run(tmp_path, *argv) == 0
        config = load(tmp_path, name)["report"]["config"]
        # canonical JSON on both sides pins the value types too (1.0 is not 1)
        assert canonical_dumps(config) == canonical_dumps(expected)

    def test_gram_sweep(self, tmp_path):
        self.check(tmp_path, "gram-sweep-seed42.json", ["gram-sweep"], {
            "seed": 42, "trials": 500, "dims": [[2, 2], [2, 3], [2, 4], [3, 3], [4, 4]],
            "subsystems": [2, 3, 4], "n": [2, 3, 4, 5], "tolerance": 1e-10, "jobs": 1})
        self.check(tmp_path, "gram-sweep-seed3.json",
                   ["gram-sweep", "--seed", "3", "--trials", "7", "--dims", "2x3,3X2",
                    "--subsystems", "2", "--n", "4", "--tolerance", "1e-8", "--jobs", "2"], {
            "seed": 3, "trials": 7, "dims": [[2, 3], [3, 2]], "subsystems": [2], "n": [4],
            "tolerance": 1e-8, "jobs": 2})

    def test_search(self, tmp_path):
        self.check(tmp_path, "search-entropy_n1-seed42.json", ["search"], {
            "dims": [[2, 2], [2, 2], [2, 2]], "trials": 2000, "master_seed": 42,
            "target": "entropy_n1", "tolerance": 1e-6, "lam": 1.0, "n": 1,
            "literal_s": None, "trial_offset": 0, "refine_iterations": 0, "jobs": 1})
        # the default n follows the target
        self.check(tmp_path, "search-integer_n-seed5.json",
                   ["search", "--seed", "5", "--target", "integer_n", "--dims", "2x3,3x2",
                    "--trials", "9", "--jobs", "2"], {
            "dims": [[2, 3], [3, 2]], "trials": 9, "master_seed": 5, "target": "integer_n",
            "tolerance": 1e-6, "lam": 1.0, "n": 2, "literal_s": None, "trial_offset": 0,
            "refine_iterations": 0, "jobs": 2})
        self.check(tmp_path, "search-schur_s_fraction-seed6.json",
                   ["search", "--seed", "6", "--target", "schur_s_fraction", "--lam", "2",
                    "--n", "3", "--literal-s", "0.5", "--refine", "10",
                    "--tolerance", "1e-4"], {
            "dims": [[2, 2], [2, 2], [2, 2]], "trials": 2000, "master_seed": 6,
            "target": "schur_s_fraction", "tolerance": 1e-4, "lam": 2.0, "n": 3,
            "literal_s": 0.5, "trial_offset": 0, "refine_iterations": 10, "jobs": 1})

    def test_fermion(self, tmp_path):
        self.check(tmp_path, "fermion-seed42.json",
                   ["fermion", "--trials", "3", "--witness-trials", "2"], {
            "seed": 42, "trials": 3, "max_components": 5, "lam": [0.1, 1.0, 6.0, 10.0],
            "cutoff": 1.0, "tolerance": 1e-10, "witness_trials": 2, "sets": None})
        self.check(tmp_path, "fermion-seed2.json",
                   ["fermion", "--seed", "2", "--trials", "2", "--max-components", "2",
                    "--lambda", "0.5,2", "--cutoff", "0.5", "--witness-trials", "1"], {
            "seed": 2, "trials": 2, "max_components": 2, "lam": [0.5, 2.0],
            "cutoff": 0.5, "tolerance": 1e-10, "witness_trials": 1, "sets": None})

    def test_kl(self, tmp_path):
        self.check(tmp_path, "kl-seed42.json", ["kl", "--grid-points", "30"], {
            "seed": 42, "lam": 1.0, "grid_points": 30, "ridge": 0.0, "tolerance": 1e-6,
            "input": None})

    def test_cft(self, tmp_path):
        self.check(tmp_path, "cft-seed42.json", ["cft", "--grid-points", "50", "--pairs", "20"], {
            "seed": 42, "n": 2, "central_charge": 1.0, "grid_points": 50, "pairs": 20,
            "tolerance": 1e-10, "f_table": None})
        self.check(tmp_path, "cft-seed4.json",
                   ["cft", "--seed", "4", "--n", "3", "--central-charge", "0.5",
                    "--grid-points", "50", "--pairs", "20", "--tolerance", "1e-9"], {
            "seed": 4, "n": 3, "central_charge": 0.5, "grid_points": 50, "pairs": 20,
            "tolerance": 1e-9, "f_table": None})

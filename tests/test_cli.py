import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from rpentropy import cli
from rpentropy.cli import OPTIONS, OUT_ENV_VAR, main
from rpentropy.positivity import summarize
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

        monkeypatch.setattr(cli_mod, "theorem_sweep", fake_sweep)
        code = run(tmp_path, "gram-sweep", "--trials", "1", "--seed", "3")
        assert code == 3

    def test_renyi_index_below_one_config_error(self, tmp_path, capsys):
        for n in ("0", "-1", "2,0"):
            assert run(tmp_path, "gram-sweep", "--trials", "2", "--n", n) == 1
            assert "for n" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 2, "n": [2, 0]}))
        assert main(["gram-sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_empty_lists_config_error(self, tmp_path, capsys):
        # an empty n list once reached the sweep, whose minimum over no
        # checks (inf) the report writer refused midway through the file
        cfg = tmp_path / "cfg.json"
        for key in ("n", "dims", "subsystems"):
            cfg.write_text(json.dumps({"trials": 3, key: []}))
            assert main(["gram-sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 1
            assert f"for {key}: must list at least one value" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_bad_plan_config_error(self, tmp_path, capsys):
        # a one-subsystem instance, or a plan of no instances (which once
        # wrote a minimum eigenvalue of inf that JSON cannot hold), is a
        # config error, as in the search, and writes no report
        for argv, message in ((["--subsystems", "1", "--trials", "2"], "at least two"),
                              (["--subsystems", "2,1", "--trials", "1"], "at least two"),
                              (["--trials", "0"], "trials: must be >= 1"),
                              (["--trials", "-3"], "trials: must be >= 1")):
            assert run(tmp_path, "gram-sweep", *argv) == 1
            assert message in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 0}))
        assert main(["gram-sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_parallel_jobs_match(self, tmp_path):
        run(tmp_path, "gram-sweep", "--trials", "12", "--seed", "9", "--jobs", "1")
        serial = load(tmp_path, "gram-sweep-seed9.json")["report"]["results"]
        run(tmp_path, "gram-sweep", "--trials", "12", "--seed", "9", "--jobs", "3")
        parallel = load(tmp_path, "gram-sweep-seed9.json")["report"]["results"]
        assert canonical_dumps(serial) == canonical_dumps(parallel)


class TestJobsIsRunContext:
    """--jobs changes no result, so it stays out of the report section
    (config included) and is recorded under meta."""

    @pytest.mark.parametrize("argv, name", [
        (["gram-sweep", "--trials", "40", "--seed", "4"], "gram-sweep-seed4.json"),
        # 96 pair entries per 3 x 2x2 trial: at a block budget of 2000, five
        # blocks at jobs 1 and six at jobs 2
        (["search", "--trials", "100", "--seed", "2024"], "search-entropy_n1-seed2024.json"),
    ])
    def test_report_bytes_equal_across_jobs(self, tmp_path, monkeypatch, argv, name):
        from rpentropy import positivity
        # 48 to 768 entries per sweep instance: a plan of several blocks
        monkeypatch.setattr(positivity, "SWEEP_BLOCK_ENTRIES", 2000)
        reports = []
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 0
            text = (out / name).read_text()
            assert json.loads(text)["meta"]["jobs"] == int(jobs)
            # meta sorts before report: the rest of the file is the report
            reports.append(text[text.index('"report": '):])
        assert reports[0] == reports[1]
        assert "jobs" not in json.loads("{" + reports[0])["report"]["config"]


class TestSearch:

    def test_entropy_search_writes_fixture(self, tmp_path):
        code = run(tmp_path, "search", "--target", "entropy_n1",
                   "--dims", "2x2,2x2,2x2", "--trials", "3000", "--seed", "2024")
        assert code == 0
        results = load(tmp_path, "search-entropy_n1-seed2024.json")["report"]["results"]
        assert results["num_violations"] >= 1
        assert results["fixtures"]
        fixture = tmp_path / "fixtures" / results["fixtures"][0]
        text = fixture.read_text()
        payload = json.loads(text)
        assert payload["violation"]["slack"] < 0
        # named by the hash of the text it holds before its one newline
        assert text == canonical_dumps(payload) + "\n"
        assert fixture.name == hashlib.sha256(text[:-1].encode()).hexdigest()[:16] + ".json"

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

    def test_refine_counters_in_meta_only(self, tmp_path, monkeypatch):
        # the descent's counters go to meta.refine; the report section is
        # byte-identical with them and with the counters dropped
        argv = ("search", "--target", "schur_s_fraction", "--dims", "2x2,2x2,2x2",
                "--trials", "200", "--seed", "7", "--refine", "20000")
        assert run(tmp_path / "with", *argv) == 0
        with_counters = load(tmp_path / "with", "search-schur_s_fraction-seed7.json")
        counters = with_counters["meta"]["refine"]
        assert set(counters) == {"blocks", "evaluated", "accepted", "discarded", "shrinks"}
        assert counters["blocks"] > 0 and counters["accepted"] > 0
        assert counters["evaluated"] - counters["discarded"] <= 138
        assert with_counters["report"]["results"]["refine_used"] == 138
        search = cli.counterexample_search

        def without_counters(cfg, jobs=1):
            report = search(cfg, jobs=jobs)
            report.refine_counters = {}
            return report

        monkeypatch.setattr(cli, "counterexample_search", without_counters)
        assert run(tmp_path / "without", *argv) == 0
        without = load(tmp_path / "without", "search-schur_s_fraction-seed7.json")
        assert without["meta"]["refine"] == {}
        assert canonical_dumps(without["report"]) == canonical_dumps(with_counters["report"])

    @pytest.mark.parametrize("target", ["integer_n", "entropy_n1", "schur_s_fraction"])
    def test_renyi_index_below_one_config_error(self, tmp_path, capsys, target):
        # det-B at n = -2 once reported spurious violations and wrote them
        # as fixtures
        for n in ("-2", "0"):
            assert run(tmp_path, "search", "--target", target, "--n", n,
                       "--trials", "20") == 1
            assert "Renyi index must be >= 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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

    # each bad value is a config error (exit 1) before any set is drawn, and
    # writes no report; they once exited 2 mid-run or passed having checked
    # nothing
    @pytest.mark.parametrize("argv, message", [
        (["--max-components", "9", "--trials", "40"], "max_components: must be in 1..8"),
        (["--max-components", "0"], "max_components: must be in 1..8"),
        (["--trials", "-3"], "trials: must be >= 1"),
        (["--trials", "0"], "trials: must be >= 1"),
        (["--witness-trials", "-2"], "witness_trials: must be >= 0"),
        (["--lambda", "0"], "lam: must be > 0"),
        (["--lambda", "1,-1"], "lam: must be > 0"),
        (["--cutoff", "0"], "cutoff: must be > 0"),
    ])
    def test_bad_value_config_error(self, tmp_path, capsys, argv, message):
        assert run(tmp_path, "fermion", *argv) == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_bad_config_values_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for key, value in (("max_components", 9), ("trials", 0), ("witness_trials", -1),
                           ("lambda", [1.0, 0.0]), ("lambda", []), ("cutoff", -0.5),
                           ("sets", [])):
            cfg.write_text(json.dumps({key: value}))
            assert main(["fermion", "--config", str(cfg), "--out", str(tmp_path)]) == 1
            assert "config error" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_zero_witness_trials_skips_the_witness(self, tmp_path):
        assert run(tmp_path, "fermion", "--trials", "3", "--witness-trials", "0") == 0
        results = load(tmp_path, "fermion-seed42.json")["report"]["results"]
        assert results["passed"] and results["divisibility_min_normalized_eigenvalue"] is None

    def test_eight_components_run(self, tmp_path):
        assert run(tmp_path, "fermion", "--trials", "24", "--max-components", "8",
                   "--witness-trials", "4") == 0
        rows = (tmp_path / "fermion-identities-seed42.csv").read_text().splitlines()[1:]
        assert max(int(row.split(",")[1]) for row in rows) == 8


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

    def test_underflowing_fit_grid_exits_numerics(self, tmp_path, monkeypatch, capsys):
        # kl's own grids stop at p x_min = 40, so the fit is handed a grid
        # reaching past the K0 underflow at p x_min ~ 742
        from rpentropy import spectral

        fit = spectral.fit_spectral
        monkeypatch.setattr(spectral, "fit_spectral", lambda curve, grid, ridge=0.0: fit(
            curve, np.append(grid, (800.0 / curve.x.min()) ** 2), ridge=ridge))
        assert run(tmp_path, "kl", "--seed", "1") == 2
        assert "K0 underflows to 0" in capsys.readouterr().err


class TestCft:

    def test_builtin_passes(self, tmp_path):
        code = run(tmp_path, "cft", "--seed", "42", "--grid-points", "200",
                   "--pairs", "200")
        assert code == 0
        results = load(tmp_path, "cft-seed42.json")["report"]["results"]
        assert results["passed"]
        assert (tmp_path / results["csv"]).exists()

    def test_report_holds_summaries_only(self, tmp_path):
        from rpentropy.cft import CrossRatioFunction, check_midpoint_inequality

        xs = np.linspace(1e-3, 1 - 1e-3, 200)
        write_csv(tmp_path / "f.csv", ["x", "f"],
                  zip(xs.tolist(), (1.0 + 0.2 * (xs * (1 - xs)) ** 2).tolist()))
        code = run(tmp_path, "cft", "--seed", "9", "--f-table", str(tmp_path / "f.csv"),
                   "--grid-points", "2000", "--pairs", "20000")
        assert code == 0
        assert (tmp_path / "cft-seed9.json").stat().st_size < 10_000
        results = load(tmp_path, "cft-seed9.json")["report"]["results"]

        def longest_list(node):
            if isinstance(node, dict):
                return max(map(longest_list, node.values()), default=0)
            if isinstance(node, list):
                return max([len(node), *map(longest_list, node)])
            return 0

        assert longest_list(results) <= 8
        # the derivative summary is the summary of the CSV's slack column
        grid, slack = read_xy_csv(tmp_path / results["csv"])
        deriv = results["derivative"]
        assert deriv["min_slack"] == slack.min()
        assert deriv["argmin"] == grid[np.argmin(slack)]
        assert deriv["slack_quantiles"] == summarize(slack)[2]
        # the worst pair alone reproduces the midpoint minimum
        func = CrossRatioFunction.from_table(xs, 1.0 + 0.2 * (xs * (1 - xs)) ** 2)
        mid = results["midpoint"]
        alone = check_midpoint_inequality(func, results["q"], [mid["argmin"]])
        assert alone.slack[0] == mid["min_slack"]
        # and the pairs regenerate from the seed and the reported range
        lo, hi = results["x_range"]
        assert np.array_equal(grid, np.linspace(lo, hi, 2000))
        pairs = np.random.default_rng(9).uniform(lo, hi, size=(20000, 2))
        min_slack, best, quantiles = summarize(
            check_midpoint_inequality(func, results["q"], pairs).slack)
        assert (min_slack, pairs[best].tolist(), quantiles) == (
            mid["min_slack"], mid["argmin"], mid["slack_quantiles"])

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

    @pytest.mark.parametrize("subcommand", ["gram-sweep", "search"])
    def test_jobs_flag_below_one_config_error(self, tmp_path, capsys, subcommand):
        for jobs in ("0", "-3"):
            assert run(tmp_path, subcommand, "--trials", "2", "--jobs", jobs) == 1
            assert "jobs" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("subcommand", ["gram-sweep", "search"])
    def test_jobs_config_below_one_config_error(self, tmp_path, capsys, subcommand):
        cfg = tmp_path / "cfg.json"
        for jobs in (0, -3):
            cfg.write_text(json.dumps({"trials": 2, "jobs": jobs}))
            assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path)]) == 1
            assert "jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", list(OPTIONS))
    def test_negative_seed_config_error(self, tmp_path, capsys, subcommand):
        # a seeded stream takes no negative seed: a config error (exit 1)
        # before any work, not a numerics failure (exit 2), and no report
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps({"seed": -3}))
        for argv in (["--seed", "-1"], ["--config", str(cfg)]):
            assert main([subcommand, *argv, "--out", str(out)]) == 1
            assert "for seed: must be >= 0" in capsys.readouterr().err
        assert not out.exists()

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

    def test_one_parser_serves_independent_calls(self, tmp_path, monkeypatch):
        first_cfg, second_cfg = tmp_path / "first.json", tmp_path / "second.json"
        first_cfg.write_text(json.dumps({"trials": 8, "seed": 11}))
        second_cfg.write_text(json.dumps({"seed": 3, "lambda": [0.5, 2]}))
        assert main(["gram-sweep", "--config", str(first_cfg), "--n", "2",
                     "--out", str(tmp_path)]) == 0

        def rebuilt():
            raise AssertionError("main rebuilt its parser")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        assert main(["fermion", "--config", str(second_cfg), "--trials", "2",
                     "--witness-trials", "1", "--out", str(tmp_path)]) == 0
        assert main(["gram-sweep", "--trials", "4", "--out", str(tmp_path)]) == 0
        first = load(tmp_path, "gram-sweep-seed11.json")["report"]["config"]
        second = load(tmp_path, "fermion-seed3.json")["report"]["config"]
        third = load(tmp_path, "gram-sweep-seed42.json")["report"]["config"]
        assert (first["trials"], first["n"]) == (8, [2])
        assert (second["lam"], second["trials"], second["witness_trials"]) == ([0.5, 2.0], 2, 1)
        assert (third["seed"], third["trials"], third["n"]) == (42, 4, [2, 3, 4, 5])

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


class TestOptionBounds:
    """Each option's bound sits in its converter: a value outside it is a
    config error (exit 1) before any work, and writes no report.  These
    once raised a traceback, exited 2 as a numerics failure, or ran."""

    CASES = [
        (["cft", "--n", "0"], "for n: must be >= 2"),  # ZeroDivisionError
        (["cft", "--n", "1"], "for n: must be >= 2"),  # q = 0
        (["cft", "--central-charge", "-1"], "central_charge: must be > 0"),
        (["cft", "--grid-points", "0"], "grid_points: must be >= 1"),
        (["cft", "--pairs", "0"], "pairs: must be >= 1"),
        (["cft", "--pairs", "-1"], "pairs: must be >= 1"),
        (["kl", "--grid-points", "0"], "grid_points: must be >= 2"),  # IndexError
        (["kl", "--grid-points", "1"], "grid_points: must be >= 2"),
        (["kl", "--lam", "0"], "lam: must be > 0"),
        (["kl", "--ridge", "-1"], "ridge: must be >= 0"),  # ran with no ridge
        (["kl", "--ridge", "inf"], "ridge: must be >= 0 and finite"),
        (["gram-sweep", "--dims", "0x2"], "dims: must be >= 1"),
        (["search", "--dims", "2x2,4x0,2x2"], "dims: must be >= 1"),
        (["search", "--lam", "nan"], "lam: must be > 0 and finite"),  # LAPACK non-convergence
        # a weight <= 0 once ran, reported 20 violations in 20 trials and exited 0
        (["search", "--lam", "-1", "--trials", "20", "--seed", "3"], "lam: must be > 0"),
        (["search", "--lam", "0"], "lam: must be > 0"),
        (["search", "--literal-s", "nan"], "literal_s: must be > 0 and finite"),
        # s = 0 once reported the all-ones matrix's roundoff as a literal
        # power, and s < 0 the Gram matrix of exp(+|s| S)
        (["search", "--target", "schur_s_fraction", "--literal-s", "0"],
         "literal_s: must be > 0 and finite"),
        (["search", "--target", "schur_s_fraction", "--literal-s=-0.1"],
         "literal_s: must be > 0 and finite"),
        # once ran n = 1 and reported n = 3
        (["search", "--target", "entropy_n1", "--n", "3"],
         "entropy_n1 takes von Neumann entropies, n = 1; got n = 3"),
        (["search", "--refine", "-3"], "refine: must be >= 0"),  # ran with no descent
        # reported in the config but never run: a literal power outside det B,
        # a descent in the integer_n control mode
        (["search", "--target", "entropy_n1", "--literal-s", "0.5"],
         "literal_s is checked only by the schur_s_fraction target"),
        (["search", "--target", "integer_n", "--refine", "500"],
         "the integer_n control mode takes no refine descent"),
        (["fermion", "--cutoff", "inf"], "cutoff: must be > 0 and finite"),
        (["fermion", "--lambda", "1,nan"], "lam: must be > 0 and finite"),
        # search's trials and n are converted with every other option
        (["search", "--trials", "2.7"], "for trials: invalid literal"),
        (["search", "--n", "2.5"], "for n: invalid literal"),
    ] + [([name, "--tolerance", bad], "tolerance: must be finite")
         for name in OPTIONS for bad in ("nan", "inf")]

    @pytest.mark.parametrize("argv, message", CASES, ids=[" ".join(a) for a, _ in CASES])
    def test_out_of_bounds_config_error(self, tmp_path, capsys, argv, message):
        assert run(tmp_path, *argv) == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not list(tmp_path.iterdir())

    # a config value that int() would truncate, or a bool read as a number,
    # once ran: {"trials": 2.7, "seed": true} swept 2 instances at seed 1
    CONFIGS = [
        ("gram-sweep", {"trials": 2.7}, "trials: must be an integer"),
        ("gram-sweep", {"seed": True}, "seed: must be a number, not a boolean"),
        ("gram-sweep", {"trials": True}, "trials: must be a number, not a boolean"),
        ("gram-sweep", {"n": [2.5]}, "n: must be an integer"),
        ("gram-sweep", {"dims": [[2.5, 2]]}, "dims: must be an integer"),
        ("gram-sweep", {"jobs": 1.5}, "jobs: must be an integer"),
        ("search", {"trials": 2.7}, "trials: must be an integer"),
        ("search", {"n": 2.5}, "n: must be an integer"),
        ("search", {"trials": True}, "trials: must be a number, not a boolean"),
        ("search", {"lam": True}, "lam: must be a number, not a boolean"),
        ("fermion", {"lam": [1.0, True]}, "lam: must be a number, not a boolean"),
        ("kl", {"ridge": False}, "ridge: must be a number, not a boolean"),
        ("cft", {"pairs": 10.5}, "pairs: must be an integer"),
    ]

    @pytest.mark.parametrize("subcommand, config, message", CONFIGS,
                             ids=[f"{name} {json.dumps(cfg)}" for name, cfg, _ in CONFIGS])
    def test_truncated_or_boolean_config_value_config_error(self, tmp_path, capsys, subcommand,
                                                             config, message):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps(config))
        assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not out.exists()

    # a path from a config file once went through unchecked: cft checked
    # F = 1 and exited 0, out = 5 raised a TypeError traceback from
    # os.path.join, and kl read file descriptor 1
    PATHS = [("cft", {"f_table": 0}), ("gram-sweep", {"out": 5}), ("kl", {"input": True}),
             ("kl", {"input": ""})]

    @pytest.mark.parametrize("subcommand, config", PATHS,
                             ids=[f"{name} {json.dumps(cfg)}" for name, cfg in PATHS])
    def test_path_config_value_config_error(self, tmp_path, monkeypatch, capsys, subcommand,
                                            config):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(OUT_ENV_VAR, raising=False)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main([subcommand, "--config", "cfg.json"]) == 1
        (key, value), = config.items()
        err = capsys.readouterr().err
        assert f"config error: bad value {value!r} for {key}: must be a non-empty path" in err
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]

    def test_integral_float_config_values_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 4.0, "n": [2.0], "dims": [[2.0, 2]]}))
        assert main(["gram-sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        config = load(tmp_path, "gram-sweep-seed42.json")["report"]["config"]
        assert (config["trials"], config["n"], config["dims"]) == (4, [2], [[2, 2]])

    # a 50-row table with one malformed row at line 27
    MALFORMED = "x,F\n" + "".join(
        f"{x!r},{'1.0x' if k == 25 else '1.0'}\n"
        for k, x in enumerate(np.linspace(0.02, 0.98, 50).tolist()))
    # an input table with a nan or inf cell, with no numeric row, or with a
    # malformed row after its first once reached scipy and exited 2, or
    # (the malformed row) was skipped; the error names the file and the row
    TABLES = {"nan cell": ("x,y\n0.1,1.0\n0.2,nan\n0.3,1.2\n", "row 3: non-finite"),
              "inf cell": ("0.1,1.0\n0.2,1.1\ninf,1.2\n", "row 3: non-finite"),
              "no numeric row": ("x,y\na,b\n", "no numeric (x, y) rows"),
              "malformed row": (MALFORMED, "row 27: not two numbers")}

    @pytest.mark.parametrize("flag", [["kl", "--input"], ["cft", "--f-table"]],
                             ids=["kl", "cft"])
    @pytest.mark.parametrize("table", list(TABLES))
    def test_bad_input_table_config_error(self, tmp_path, capsys, flag, table):
        text, message = self.TABLES[table]
        path, out = tmp_path / "table.csv", tmp_path / "out"
        path.write_text(text)
        assert main(flag + [str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err and str(path) in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["kl", "--input"], ["cft", "--f-table"]],
                             ids=["kl", "cft"])
    def test_missing_input_table_config_error(self, tmp_path, capsys, flag):
        # FileNotFoundError once exited 2, as a numerics failure
        path, out = tmp_path / "missing.csv", tmp_path / "out"
        assert main(flag + [str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "No such file" in err and str(path) in err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("x,F\n0.3,1.0\n0.2,1.1\n0.1,1.2\n", "strictly increasing"),
        ("0.1,1.0\n0.2,1.0\n0.2,1.1\n", "strictly increasing"),
        ("0.1,1.0\n0.2,0.0\n0.3,1.1\n", "must be positive"),
    ], ids=["decreasing x", "repeated x", "zero F"])
    def test_bad_f_table_config_error(self, tmp_path, capsys, text, message):
        # CrossRatioFunction.from_table's ValueError once exited 2
        path, out = tmp_path / "f.csv", tmp_path / "out"
        path.write_text(text)
        assert main(["cft", "--f-table", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err and str(path) in err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("x,S\n0.1,1.0\n0.2,1.1\n", "at least 5 samples"),
        ("0.1,1.0\n0.2,1.1\n0.3,1.2\n0.4,1.3\n", "at least 5 samples"),
        ("0.1,1.0\n0.2,1.1\n0.2,1.2\n0.3,1.3\n0.4,1.4\n0.5,1.5\n", "positive and distinct"),
        ("0.0,1.0\n0.2,1.1\n0.3,1.2\n0.4,1.3\n0.5,1.4\n0.6,1.5\n", "positive and distinct"),
        ("-0.1,1.0\n0.2,1.1\n0.3,1.2\n0.4,1.3\n0.5,1.4\n", "positive and distinct"),
    ], ids=["two rows", "four rows", "repeated x", "zero x", "negative x"])
    def test_bad_kl_curve_config_error(self, tmp_path, capsys, text, message):
        # a table EntropyCurve or derivative_checks refuses once exited 2
        path, out = tmp_path / "curve.csv", tmp_path / "out"
        path.write_text(text)
        assert main(["kl", "--input", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err and str(path) in err
        assert not out.exists()

    def test_kl_decreasing_x_is_sorted(self, tmp_path):
        # the curve sorts its samples by x: a table listed from large x to
        # small reports the same as the one listed from small to large
        xs = np.linspace(0.5, 3.0, 6)
        rows = list(zip(xs.tolist(), np.log(xs).tolist()))
        reports = []
        for name, table in (("up", rows), ("down", rows[::-1])):
            write_csv(tmp_path / f"{name}.csv", ["x", "S"], table)
            assert main(["kl", "--input", str(tmp_path / f"{name}.csv"),
                         "--out", str(tmp_path / name)]) == 0
            results = load(tmp_path / name, "kl-seed42.json")["report"]["results"]
            assert results["derivative_report"]["increasing"]
            reports.append(results)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("subcommand", list(OPTIONS))
    def test_non_finite_config_tolerance(self, tmp_path, capsys, subcommand):
        # JSON config files may spell NaN; the converter refuses it there too
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps({"tolerance": float("nan")}))
        assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 1
        assert "tolerance: must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_tolerance_still_accepted(self, tmp_path):
        # a negative tolerance is how a report check records violations
        assert run(tmp_path, "cft", "--grid-points", "20", "--pairs", "10",
                   "--tolerance", "-0.5") == 2
        assert load(tmp_path, "cft-seed42.json")["report"]["config"]["tolerance"] == -0.5


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

    def test_write_csv_bytes_are_csv_writer(self, tmp_path):
        # the one-pass join writes, byte for byte, what csv.writer wrote for
        # Python ints and floats (a float as its repr), "\r\n" line ends included
        import csv
        import io
        header = ["trial", "value", "other"]
        rows = [(0, 0.5, -3), (1, float("inf"), 1e-300), (-2, -0.1, float("-inf")),
                (3, 1e16, 123456789.12345679), (4, -0.0, 2.5e-17), (5, 1e-05, 0.0001)]
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
        path = write_csv(str(tmp_path / "t.csv"), header, iter(rows))
        assert Path(path).read_bytes() == expected.getvalue().encode()
        assert Path(write_csv(str(tmp_path / "h.csv"), header, [])).read_bytes() == \
            b"trial,value,other\r\n"

    def test_write_csv_numpy_scalars_are_plain_numbers(self, tmp_path):
        # a numpy float once went through repr: np.float64(0.5) under numpy 2
        path = write_csv(str(tmp_path / "t.csv"), ["a", "b", "c", "d"],
                         [(np.float64(0.5), np.int64(3), 0.25, np.float64(-1e-300))])
        assert Path(path).read_bytes() == b"a,b,c,d\r\n0.5,3,0.25,-1e-300\r\n"

    def test_complex_round_trip(self):
        from rpentropy.serialize import decode_complex, encode_complex
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        assert np.array_equal(decode_complex(encode_complex(mat)), mat)

    def test_content_hash_stability(self, tmp_path):
        # a fixture's name follows its content, not its key order
        from rpentropy.serialize import write_fixture

        def name(payload):
            return os.path.basename(write_fixture(str(tmp_path), payload))
        assert name({"b": [1.0, 2.5e-17], "a": "x"}) == name({"a": "x", "b": [1.0, 2.5e-17]})
        assert name({"b": [1.0, 2.5e-17], "a": "x"}) != name({"b": [1.0, 2.4e-17], "a": "x"})

    def test_fixture_filename_is_content_hash(self, tmp_path):
        from rpentropy.serialize import write_fixture
        payload = {"k": 1.25}
        path = write_fixture(str(tmp_path), payload)
        digest = hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()[:16]
        assert os.path.basename(path) == digest + ".json"
        assert json.loads(open(path).read()) == payload

    def test_refused_value_leaves_no_report(self, tmp_path):
        # the payload is encoded before the file opens: inf raises and no
        # truncated report is left behind
        from rpentropy.serialize import save_report
        path = tmp_path / "sub" / "report.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_report(str(path), {"ok": [1.0, 2.0], "worst": float("inf")})
        assert not path.exists()

    def test_report_bytes_are_the_streamed_encoding(self, tmp_path):
        # a good report is byte for byte what json.dump streamed into the
        # file before: indent 2, sorted keys, numpy values, a final newline
        import io
        from rpentropy.serialize import _json_default, save_report
        report = {"z": np.float64(0.1), "a": [np.int64(3), np.bool_(True)],
                  "m": np.arange(4.0).reshape(2, 2), "s": "x", "n": None}
        path = save_report(str(tmp_path / "report.json"), report, meta={"argv": ["x"]})
        written = Path(path).read_text()
        streamed = io.StringIO()
        json.dump(json.loads(written), streamed, sort_keys=True, indent=2, allow_nan=False,
                  default=_json_default)
        assert written == streamed.getvalue() + "\n"
        assert json.loads(written)["report"] == {"a": [3, True], "m": [[0.0, 1.0], [2.0, 3.0]],
                                                 "n": None, "s": "x", "z": 0.1}

    def test_summary_quantiles_equal_per_quantile_calls(self):
        # one np.quantile call over SUMMARY_QUANTILES, bit for bit the
        # per-q calls, on an odd and an even length with ties
        from rpentropy.positivity import SUMMARY_QUANTILES
        rng = np.random.default_rng(31)
        for values in (rng.standard_normal(301), rng.integers(0, 5, 200) * 0.1,
                       np.array([2.5])):
            _, _, quantiles = summarize(values)
            expected = [float(np.quantile(values, q)) for q in SUMMARY_QUANTILES]
            assert list(quantiles.values()) == expected
            assert list(quantiles) == ["q00", "q01", "q10", "q50", "q100"]

    def test_lambda_flag_alias(self, tmp_path):
        code = main(["kl", "--seed", "21", "--lambda", "2.0", "--out", str(tmp_path)])
        assert code == 0
        assert load(tmp_path, "kl-seed21.json")["report"]["config"]["lam"] == 2.0


class TestResolvedConfig:
    """The full resolved report.config of every subcommand, key by key; out
    and jobs are run context and stay out of it."""

    @pytest.fixture(autouse=True)
    def fast_sweeps(self, monkeypatch):
        import rpentropy.cli as cli_mod
        from rpentropy.positivity import SearchReport, SweepResult

        monkeypatch.setattr(cli_mod, "theorem_sweep", lambda *args, **kwargs:
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
            "subsystems": [2, 3, 4], "n": [2, 3, 4, 5], "tolerance": 1e-10})
        self.check(tmp_path, "gram-sweep-seed3.json",
                   ["gram-sweep", "--seed", "3", "--trials", "7", "--dims", "2x3,3X2",
                    "--subsystems", "2", "--n", "4", "--tolerance", "1e-8", "--jobs", "2"], {
            "seed": 3, "trials": 7, "dims": [[2, 3], [3, 2]], "subsystems": [2], "n": [4],
            "tolerance": 1e-8})

    def test_search(self, tmp_path):
        self.check(tmp_path, "search-entropy_n1-seed42.json", ["search"], {
            "dims": [[2, 2], [2, 2], [2, 2]], "trials": 2000, "master_seed": 42,
            "target": "entropy_n1", "tolerance": 1e-6, "lam": 1.0, "n": 1,
            "literal_s": None, "refine_iterations": 0})
        # the default n follows the target
        self.check(tmp_path, "search-integer_n-seed5.json",
                   ["search", "--seed", "5", "--target", "integer_n", "--dims", "2x3,3x2",
                    "--trials", "9", "--jobs", "2"], {
            "dims": [[2, 3], [3, 2]], "trials": 9, "master_seed": 5, "target": "integer_n",
            "tolerance": 1e-6, "lam": 1.0, "n": 2, "literal_s": None, "refine_iterations": 0})
        self.check(tmp_path, "search-schur_s_fraction-seed6.json",
                   ["search", "--seed", "6", "--target", "schur_s_fraction", "--lam", "2",
                    "--n", "3", "--literal-s", "0.5", "--refine", "10",
                    "--tolerance", "1e-4"], {
            "dims": [[2, 2], [2, 2], [2, 2]], "trials": 2000, "master_seed": 6,
            "target": "schur_s_fraction", "tolerance": 1e-4, "lam": 2.0, "n": 3,
            "literal_s": 0.5, "refine_iterations": 10})

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

"""Batch command-line front end: seeded sweeps, searches, and identity checks
with JSON reports, CSV tables, and content-hash fixtures.

Exit codes: 0 pass, 1 usage/config error, 2 assertion or numerics failure,
3 counterexample found in integer-index control mode.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .fermion import MAX_WICK_COMPONENTS
from .modular import _check_count, _check_renyi_order, _check_tolerance, _check_weight
from .positivity import (COUNTEREXAMPLE_TOL, PSD_RELATIVE_TOL, TARGETS, SearchConfig,
                         _check_theorem_index, counterexample_search, summarize, theorem_sweep)
from .serialize import read_xy_csv, save_report, write_csv, write_fixture

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICS = 2
EXIT_CONTROL_VIOLATION = 3

OUT_ENV_VAR = "RPENTROPY_OUT"


class ConfigError(Exception):
    pass


def _gated(parse, gate, *bounds):
    """The converter of a numeric option: a string (a flag's, or a config's)
    is read by `parse` (int or float), then the value passes `gate`, the
    modular gate of its domain, which names the option."""
    return lambda value, key: gate(parse(value) if isinstance(value, str) else value, key,
                                   *bounds)


_count = functools.partial(_gated, int, _check_count)  # _count(low[, high])
_weight = _gated(float, _check_weight)
_renyi_index = _gated(int, lambda n, key: _check_renyi_order(n, integer=True))
_theorem_index = _gated(int, lambda n, key: _check_theorem_index(n))


def _split_dims(entry, key) -> tuple:
    """'2x3' or [2, 3] -> (2, 3); each factor must be >= 1."""
    fields = entry.lower().split("x") if isinstance(entry, str) else list(entry)
    if len(fields) != 2:
        raise ValueError(f"bad dims entry {entry!r}; expected like '2x2'")
    return tuple(_count(1)(field, key) for field in fields)


def _path(value, key) -> str:
    """A path option (out, kl's input, cft's f_table): a non-empty string.
    A config file can hand it any JSON value: 0 would read as no table, 5
    fail in os.path.join, and true open file descriptor 1."""
    if not isinstance(value, str) or not value:
        raise ValueError("must be a non-empty path string")
    return value


def _list_of(item):
    """Parser of a comma string ('2,3,4') or a nonempty JSON array into [item(v), ...]."""
    def parse(value, key) -> list:
        if not len(value):
            raise ValueError("must list at least one value")
        return [item(v, key) for v in (value.split(",") if isinstance(value, str) else value)]
    return parse


def _options(tolerance: float, *specific) -> list:
    """Option table of one subcommand: seed, its own options, tolerance, out."""
    return [("seed", _count(0), 42, "master seed"), *specific,
            ("tolerance", _gated(float, _check_tolerance), tolerance, "pass/fail tolerance"),
            ("out", _path, lambda resolved: os.environ.get(OUT_ENV_VAR, "reports"),
             f"output directory (default ${OUT_ENV_VAR} or ./reports)")]


# One table per subcommand of (key, type, default, help).  The key is the
# config key and, dashed, the flag.  The type, called with the value and the
# key, converts flag and config values alike; a numeric option's ends in its
# modular gate, which holds the bound.  A tuple lists the allowed values and
# None keeps the value as given.
# A callable default is computed from the keys resolved before it.  A help of
# None marks a config-only key.  The README config table lists the same keys
# in the same order.
OPTIONS = {
    "gram-sweep": _options(
        1e-10,
        ("trials", _count(1), 500, "number of random instances"),
        ("dims", _list_of(_split_dims), "2x2,2x3,2x4,3x3,4x4",
         "pool of splits, e.g. '2x2,2x3,4x4'"),
        ("subsystems", _list_of(_count(2)), "2,3,4",
         "pool of subsystem counts, e.g. '2,3,4'"),
        ("n", _list_of(_theorem_index), "2,3,4,5", "Renyi index list (n >= 2), e.g. '2,3,4,5'"),
        ("jobs", _count(1), 1, "parallel workers")),
    "search": _options(
        COUNTEREXAMPLE_TOL,
        ("trials", _count(1), 2000, "number of random trials"),
        ("dims", _list_of(_split_dims), "2x2,2x2,2x2",
         "one split per subsystem, e.g. '2x2,2x2,2x2'"),
        ("target", TARGETS, "entropy_n1", "inequality to search"),
        ("lam", _weight, 1.0, "exponent weight for entropy mode"),
        ("n", _renyi_index, lambda resolved: 2 if resolved["target"] == "integer_n" else 1,
         "Renyi index for integer/detB modes"),
        ("refine", _count(0), 0, "stochastic descent budget after the sweep"),
        ("literal_s", _weight, None, "also check a literal fractional entrywise power"),
        ("jobs", _count(1), 1, "parallel workers")),
    "fermion": _options(
        1e-10,
        ("trials", _count(1), 50, "random interval sets"),
        ("max_components", _count(1, MAX_WICK_COMPONENTS), 5, "most intervals in a random set"),
        ("lam", _list_of(_weight), "0.1,1,6,10", "lambda list, e.g. '0.1,1,6,10'"),
        ("cutoff", _weight, 1.0, "UV cutoff of the entropies"),
        ("witness_trials", _count(0), 100,
         "random divisibility witness configurations"),
        ("sets", None, None, None)),
    "kl": _options(
        1e-6,
        ("input", _path, None, "CSV of (x, S) samples; default built-in fixture"),
        ("lam", _weight, 1.0, "exponent weight of the entropy curve"),
        ("grid_points", _count(2), 60, "points of the p^2 fit grid"),
        ("ridge", _gated(float, functools.partial(_check_weight, zero=True)), 0.0,
         "ridge parameter of the fit")),
    "cft": _options(
        1e-10,
        ("f_table", _path, None, "CSV of (x, F) pairs; default F=1"),
        ("n", _count(2), 2, "Renyi index"),
        ("central_charge", _weight, 1.0, "central charge"),
        ("grid_points", _count(1), 1000, "derivative-check grid points"),
        ("pairs", _count(1), 1000, "random midpoint-check pairs")),
}
# config keys accepted per subcommand (superset of flags)
CONFIG_KEYS = {name: {key for key, *_ in options} for name, options in OPTIONS.items()}


def _load_config(path: str | None, subcommand: str) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as handle:
            data = json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    if "lambda" in data:  # friendly alias for the --lambda flag
        data["lam"] = data.pop("lambda")
    unknown = set(data) - CONFIG_KEYS[subcommand]
    if unknown:
        raise ConfigError(f"unknown config keys for {subcommand}: {sorted(unknown)}")
    return data


def _resolve(args: argparse.Namespace) -> dict:
    """Every option of the subcommand: explicit flag > config file > default."""
    config = _load_config(args.config, args.subcommand)
    resolved = {}
    for key, kind, default, _ in OPTIONS[args.subcommand]:
        value = getattr(args, key, None)
        if value is None and key in config:
            value = config[key]
        elif value is None:
            value = default(resolved) if callable(default) else default
        try:  # a null stands for "none" only where that is the default
            gated = callable(kind) and (value is not None or default is not None)
            resolved[key] = kind(value, key) if gated else value
        except (TypeError, ValueError) as exc:  # a gate's reason opens with the key
            reason = str(exc).removeprefix(f"{key} ")
            raise ConfigError(f"bad value {value!r} for {key}: {reason}") from exc
    return resolved


def _emit(subcommand: str, opts: dict, name: str, results: dict, argv: list,
          meta: dict | None = None) -> str:
    """Write the report.  out and jobs are run context, not config: the
    report's config is every other resolved option, under its key, so it
    reruns as a --config file; jobs joins `meta` and the argv in the
    run-specific section."""
    report = {
        "tool": "rpentropy",
        "version": __version__,
        "subcommand": subcommand,
        "config": {k: v for k, v in opts.items() if k not in ("out", "jobs")},
        "results": results,
    }
    run = {"jobs": opts["jobs"]} if "jobs" in opts else {}
    path = os.path.join(opts["out"], name)
    save_report(path, report, meta=dict(meta or {}, **run, argv=argv))
    return path


# ----------------------------------------------------------------- gram-sweep

def cmd_gram_sweep(opts, argv) -> int:
    dims_pool, counts = opts["dims"], opts["subsystems"]
    plan = [[dims_pool[i % len(dims_pool)]] * counts[i % len(counts)]
            for i in range(opts["trials"])]
    result = theorem_sweep(plan, opts["n"], master_seed=opts["seed"],
                           tol=opts["tolerance"], jobs=opts["jobs"])
    by_dims = {}  # each distinct dims' rows of per-n slacks
    for dims, slacks in zip(plan, result.slacks):
        by_dims.setdefault(tuple(dims), []).append(slacks)
    results = {
        "instances": result.instances,
        "checks": result.checks,
        "min_normalized_eigenvalue": result.min_normalized_eig,
        "slack_quantiles": [{"dims": list(dims), "n": n, "quantiles": summarize(column)[2]}
                            for dims, rows in by_dims.items()
                            for n, column in zip(opts["n"], np.transpose(rows))],
        "worst": result.worst,
        "violations": result.violations,
        "passed": not result.violations,
    }
    path = _emit("gram-sweep", opts, f"gram-sweep-seed{opts['seed']}.json", results, argv)
    print(f"gram-sweep: {result.checks} checks over {result.instances} instances, "
          f"min normalized eigenvalue {result.min_normalized_eig:.3e} -> {path}")
    if result.violations:
        print(f"gram-sweep: {len(result.violations)} PSD violations in control mode "
              "(numerics bug)", file=sys.stderr)
        return EXIT_CONTROL_VIOLATION
    return EXIT_OK


# --------------------------------------------------------------------- search

def cmd_search(opts, argv) -> int:
    target = opts["target"]
    try:
        cfg = SearchConfig(dims=opts["dims"], trials=opts["trials"], master_seed=opts["seed"],
                           target=target, tolerance=opts["tolerance"], lam=opts["lam"],
                           n=opts["n"], literal_s=opts["literal_s"],
                           refine_iterations=opts["refine"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = counterexample_search(cfg, jobs=opts["jobs"])
    fixture_paths = [write_fixture(opts["out"], {
        "target": target, "lam": opts["lam"], "n": opts["n"], "tolerance": opts["tolerance"],
        "violation": violation}) for violation in report.violations]
    results = report.to_dict()
    results["fixtures"] = [os.path.basename(p) for p in fixture_paths]
    # the descent's counters are run telemetry: meta, never report
    path = _emit("search", opts, f"search-{target}-seed{opts['seed']}.json", results, argv,
                 meta={"refine": report.refine_counters})
    found = len(report.violations)
    print(f"search[{target}]: {found} violation(s) in {report.trials_run} trials"
          f"{f' (+{report.refine_used} refine steps)' if report.refine_used else ''}, "
          f"min slack {report.min_slack:.3e} -> {path}")
    if target == "integer_n" and found:
        print("search: violation in integer-index control mode (numerics bug)",
              file=sys.stderr)
        return EXIT_CONTROL_VIOLATION
    return EXIT_OK


# -------------------------------------------------------------------- fermion

def cmd_fermion(opts, argv) -> int:
    from . import fermion

    seed, lams, cutoff, tol = opts["seed"], opts["lam"], opts["cutoff"], opts["tolerance"]
    explicit_sets = opts["sets"]
    rng = np.random.default_rng(seed)
    if explicit_sets is not None:
        try:  # a set within the permutation sum's bound, as max_components
            test_sets = [fermion.IntervalSet.from_pairs(pairs, cutoff=cutoff)
                         for pairs in explicit_sets]
            for s in test_sets:
                _check_count(s.num_intervals, "intervals per set", 1, MAX_WICK_COMPONENTS)
        except (fermion.IntervalError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad interval sets: {exc}") from exc
        if not test_sets:
            raise ConfigError("sets must list at least one interval set")
    else:
        test_sets = fermion.interval_sets(
            [fermion.random_endpoints(rng, (1, opts["max_components"] + 1), 0.0, 10.0, 1e-3)
             for _ in range(opts["trials"])], cutoff)
    s_val, log_cauchy, wick = fermion.identity_rows(test_sets)
    p = [s.num_intervals for s in test_sets]
    cauchy = np.array([math.exp(v) for v in log_cauchy.tolist()])  # correlator_cauchy's exp
    wick_dev = np.abs(wick - cauchy) / np.abs(cauchy)
    rows = zip(range(len(test_sets)), p, s_val.tolist(), wick_dev.tolist())
    worst = {"wick_cauchy": float(wick_dev.max())}

    witness_families = []
    if explicit_sets is not None:
        # divisibility witnesses need half-line sets; skip otherwise
        if all(s.lefts.min() > 0 for s in test_sets) and len(test_sets) >= 2:
            witness_families.append(test_sets)
    else:
        draws = [[fermion.random_endpoints(rng, (1, 3), 0.1, 20.0, 1e-2)
                  for _ in range(int(rng.integers(2, 4)))]
                 for _ in range(opts["witness_trials"])]
        sets = iter(fermion.interval_sets([row for rows in draws for row in rows], cutoff))
        witness_families = [list(itertools.islice(sets, len(rows))) for rows in draws]
    witness_min = fermion.witness_minimum(fermion.witness_tables(witness_families), lams)

    csv_path = write_csv(os.path.join(opts["out"], f"fermion-identities-seed{seed}.csv"),
                         ["trial", "components", "entropy", "wick_cauchy_rel"], rows)
    witness_ran = bool(np.isfinite(witness_min))
    passed = worst["wick_cauchy"] <= tol and (not witness_ran or witness_min >= -PSD_RELATIVE_TOL)
    results = {"worst_residuals": worst,
               "divisibility_min_normalized_eigenvalue":
                   float(witness_min) if witness_ran else None,
               "csv": os.path.basename(csv_path), "passed": passed}
    path = _emit("fermion", opts, f"fermion-seed{seed}.json", results, argv)
    witness_note = f"{witness_min:.2e}" if witness_ran else "skipped"
    print(f"fermion: worst wick/cauchy {worst['wick_cauchy']:.2e}, "
          f"divisibility min {witness_note} -> {path}")
    return EXIT_OK if passed else EXIT_NUMERICS


# ------------------------------------------------------------------------- kl

def _read_table(path: str) -> tuple:
    """read_xy_csv, with a table that cannot be read (missing or unreadable
    file) or is malformed (non-finite or no numeric rows) as a config error."""
    try:
        return read_xy_csv(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def cmd_kl(opts, argv) -> int:
    from .spectral import (EntropyCurve, SpectralDensity, decay_rate,
                           derivative_checks, fit_grid, fit_spectral, forward)

    input_csv, lam, grid_points = opts["input"], opts["lam"], opts["grid_points"]
    if input_csv:
        xs, s_vals = _read_table(input_csv)
        try:  # too few rows for second differences, or an x not positive and distinct
            curve = EntropyCurve(x=xs, s=s_vals, lam=lam)
            deriv = derivative_checks(curve, tol=1e-6)
        except ValueError as exc:
            raise ConfigError(f"{input_csv}: {exc}") from exc
        truth = None
        grid = fit_grid(curve.x, grid_points)[0]
    else:
        # built-in round-trip fixture: two spectral spikes on the fit grid
        xs = np.logspace(-1, 0.7, 40)
        grid = np.logspace(-2, 2, grid_points)
        spikes = SpectralDensity(p2_grid=grid[[grid_points // 3, grid_points // 2]],
                                 weights=np.array([0.5, 0.3]))
        y = forward(spikes, xs)
        curve = EntropyCurve(x=xs, s=-np.log(y) / lam, lam=lam)
        deriv = derivative_checks(curve, tol=1e-6)
        truth = spikes
    density, fit_report = fit_spectral(curve, grid, ridge=opts["ridge"])
    gap_edge = math.sqrt(density.p2_grid[np.flatnonzero(density.weights)[0]]) \
        if np.any(density.weights > 0) else 0.0
    rate = None
    if gap_edge > 0:
        try:
            rate = decay_rate(density, (25.0 / gap_edge, 50.0 / gap_edge))
        except ValueError:
            rate = None

    results = {
        "grid_p2": density.p2_grid.tolist(),
        "weights": density.weights.tolist(),
        "residual_relative": fit_report.residual_relative,
        "conditioning_flag": fit_report.conditioning_flag,
        "decay_rate_estimate": rate,
        "derivative_report": {"increasing": deriv.increasing,
                              "concave": deriv.concave,
                              "c_theorem": deriv.c_theorem},
        "round_trip": truth is not None,
    }
    passed = fit_report.residual_relative <= opts["tolerance"] if truth is not None else True
    results["passed"] = passed
    path = _emit("kl", opts, f"kl-seed{opts['seed']}.json", results, argv)
    print(f"kl: residual {fit_report.residual_relative:.3e}, increasing="
          f"{deriv.increasing} concave={deriv.concave} -> {path}")
    return EXIT_OK if passed else EXIT_NUMERICS


# ------------------------------------------------------------------------ cft

def _check_summary(check) -> dict:
    """Verdict and slack summary of a cft check, in place of its per-point slacks;
    argmin is the worst grid x or the worst pair [x, y]."""
    _, best, quantiles = summarize(check.slack)
    return {"passed": check.passed, "min_slack": check.min_slack,
            "argmin": check.grid[best].tolist(), "slack_quantiles": quantiles}


def cmd_cft(opts, argv) -> int:
    from .cft import (CrossRatioFunction, check_derivative_inequality,
                      check_midpoint_inequality, twist_exponent)

    seed, n, f_table, tol = opts["seed"], opts["n"], opts["f_table"], opts["tolerance"]
    grid_points = opts["grid_points"]
    if f_table:
        xs, fs = _read_table(f_table)
        try:
            func = CrossRatioFunction.from_table(xs, fs, name=os.path.basename(f_table))
        except ValueError as exc:  # x not strictly increasing, or F <= 0
            raise ConfigError(f"{f_table}: {exc}") from exc
    else:
        func = CrossRatioFunction.ones()
    q = twist_exponent(opts["central_charge"], n)
    lo = max(func.domain[0] + 1e-4, 1e-3)
    hi = min(func.domain[1] - 1e-4, 1.0 - 1e-3)
    grid = np.linspace(lo, hi, grid_points)
    rng = np.random.default_rng(seed)
    pairs = rng.uniform(lo, hi, size=(opts["pairs"], 2))
    deriv = check_derivative_inequality(func, q, grid, tol=tol)
    midpoint = check_midpoint_inequality(func, q, pairs, tol=tol)
    validation = func.validate()

    csv_path = write_csv(os.path.join(opts["out"], f"cft-slack-seed{seed}.csv"),
                         ["x", "derivative_slack"],
                         zip(grid.tolist(), deriv.slack.tolist()))
    results = {
        "f_name": func.name,
        "q": q,
        "f_validation": validation,
        # the grid is linspace(lo, hi, grid_points) and the midpoint pairs are
        # default_rng(seed).uniform(lo, hi, (pairs, 2)), so both regenerate
        "x_range": [lo, hi],
        "derivative": dict(_check_summary(deriv), fd_error=deriv.fd_error),
        "midpoint": _check_summary(midpoint),
        "csv": os.path.basename(csv_path),
        "passed": deriv.passed and midpoint.passed,
    }
    path = _emit("cft", opts, f"cft-seed{seed}.json", results, argv)
    print(f"cft[{func.name}]: derivative {'PASS' if deriv.passed else 'FAIL'} "
          f"(min {deriv.min_slack:.3e}), midpoint {'PASS' if midpoint.passed else 'FAIL'} "
          f"(min {midpoint.min_slack:.3e}) -> {path}")
    return EXIT_OK if results["passed"] else EXIT_NUMERICS


# ----------------------------------------------------------------------- main

COMMANDS = {
    "gram-sweep": (cmd_gram_sweep, "PSD sweep of integer-index Gram matrices"),
    "search": (cmd_search, "randomized counterexample search"),
    "fermion": (cmd_fermion, "free-fermion identity and divisibility checks"),
    "kl": (cmd_kl, "spectral representation fit and derivative checks"),
    "cft": (cmd_cft, "two-interval cross-ratio inequality checks"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpentropy",
        description="Reflection-positivity entropy inequality toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, summary) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON config file")
        for key, kind, _, help_text in OPTIONS[name]:
            if help_text is None:
                continue
            flags = ["--lambda", "--lam"] if key == "lam" else ["--" + key.replace("_", "-")]
            p.add_argument(*flags, dest=key, help=help_text,
                           choices=kind if isinstance(kind, tuple) else None)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv: list | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return COMMANDS[args.subcommand][0](_resolve(args), argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())

"""Gram matrices of reflected-entropy exponentials, positivity checks,
infinite-divisibility conditions, and the randomized counterexample search.

For integer Renyi index n the Gram matrix of tr(rho_{A_i Abar_j}^n) is
positive semidefinite in any quantum system; the extension to the entropy
case (n -> 1) and to fractional entrywise powers (s -> 0, equivalently
det B >= 0) can fail, and the search hunts for such violating instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .modular import InvalidStateError, PurifiedState
from .reflected import SubsystemSplit, pair_spectrum, renyi_entropy, von_neumann
# not called here: the benchmark's tracer patches these names on this module
from .reflected import _combine, twist_operators  # noqa: F401
from .sampling import haar_unitary, simplex_eigenvalues, trial_rng

PSD_RELATIVE_TOL = 1e-10
SYMMETRY_TOL = 1e-9
# a violation must clear this much relative slack to count as a counterexample
COUNTEREXAMPLE_TOL = 1e-6
TARGETS = ("integer_n", "entropy_n1", "schur_s_fraction")


def _gram_spectrum(g):
    """The one PSD verdict: (symmetrized g, scale max(||g||_2, tiny), eigenvalues
    ascending, eigenvectors); a relative asymmetry above SYMMETRY_TOL raises."""
    g = np.asarray(g, dtype=float)
    if np.max(np.abs(g - g.T)) > SYMMETRY_TOL * max(1.0, np.abs(g).max()):
        raise InvalidStateError("Gram matrix asymmetric beyond tolerance")
    g = 0.5 * (g + g.T)
    eigvals, eigvecs = np.linalg.eigh(g)
    return g, max(float(np.linalg.norm(g, 2)), np.finfo(float).tiny), eigvals, eigvecs


@dataclass
class GramRecord:
    """(m+1) x (m+1) matrix of exp(-lam * S_n(A_i Abar_j)) with diagnostics."""

    size: int
    n: int
    lam: float
    entries: np.ndarray
    entropy_table: np.ndarray
    min_eigenvalue: float = 0.0
    scale: float = field(default=0.0, init=False)  # max(||entries||_2, tiny)

    def __post_init__(self):
        self.entries, self.scale, eigvals, _ = _gram_spectrum(self.entries)
        self.min_eigenvalue = float(eigvals[0])


def _pair_spectra(psi: PurifiedState, splits: list[SubsystemSplit]) -> dict:
    """Spectra of rho_{A_i Abar_j} over the split pairs i <= j, each reduced once.

    rho_{A_j Abar_i} is the reflection of rho_{A_i Abar_j} and has the same
    spectrum, so the pairs j < i need no reduction of their own.
    """
    return {(i, j): pair_spectrum(psi, splits[i], splits[j])
            for i in range(len(splits)) for j in range(i, len(splits))}


def entropy_table(psi: PurifiedState, splits: list[SubsystemSplit], n: int) -> np.ndarray:
    """Table of S_n(A_i Abar_j) over all split pairs (n = 1 is von Neumann)."""
    table = np.empty((len(splits), len(splits)))
    for (i, j), eigs in _pair_spectra(psi, splits).items():
        table[i, j] = table[j, i] = von_neumann(eigs) if n == 1 else renyi_entropy(eigs, n)
    return table


def gram_matrix(psi: PurifiedState, splits: list[SubsystemSplit], n: int,
                lam: float | None = None) -> GramRecord:
    """Assemble the Gram record for the given splits and Renyi index.

    lam defaults to n - 1, the proven case where entries equal the trace
    powers tr(rho^n); other values are experimental search targets.  For
    n = 1 the trace entries are trivially 1, so lam must be supplied.
    """
    if n < 1:
        raise ValueError("Renyi index must be >= 1")
    if lam is None:
        if n == 1:
            raise ValueError("n = 1 requires an explicit lam (entries e^{-lam S})")
        lam = float(n - 1)
    table = entropy_table(psi, splits, n)
    entries = np.exp(-lam * table)
    return GramRecord(size=len(splits), n=n, lam=float(lam), entries=entries,
                      entropy_table=table)


@dataclass
class PsdVerdict:
    passed: bool
    min_eigenvalue: float
    scale: float
    witness: np.ndarray | None
    minors_ok: bool


def check_psd(gram, tol: float = PSD_RELATIVE_TOL) -> PsdVerdict:
    """PASS iff the minimum eigenvalue and all leading minors clear -tol * scale.

    The failure witness is the eigenvector of the minimum eigenvalue: the
    coefficient vector of the violating operator combination.
    """
    g, scale, eigvals, eigvecs = _gram_spectrum(
        gram.entries if isinstance(gram, GramRecord) else gram)
    min_eig = float(eigvals[0])
    minors = np.array([np.linalg.det(g[: k + 1, : k + 1]) for k in range(g.shape[0])])
    minors_ok = bool(np.all(minors >= -tol * np.maximum(1.0, scale) ** np.arange(1, g.shape[0] + 1)))
    passed = bool(min_eig >= -tol * scale) and minors_ok
    witness = None if passed else eigvecs[:, 0]
    return PsdVerdict(passed=passed, min_eigenvalue=min_eig, scale=scale,
                      witness=witness, minors_ok=minors_ok)


def schur_power(gram: GramRecord, s: int) -> GramRecord:
    """Entrywise s-th power; stays PSD for positive integer s (Schur product)."""
    if int(s) != s or s < 1:
        raise ValueError("Schur power requires a positive integer exponent")
    return GramRecord(size=gram.size, n=gram.n, lam=gram.lam * int(s),
                      entries=gram.entries ** int(s),
                      entropy_table=gram.entropy_table)


@dataclass
class DivisibilityRecord:
    """Second-difference matrix of an entropy table and its determinant.

    B_ij = S(A_i Abar_{j+1}) + S(A_{i+1} Abar_j) - S(A_i Abar_j)
           - S(A_{i+1} Abar_{j+1}); det B >= 0 is the lam -> 0 limit of the
    Gram inequalities (infinite divisibility).
    """

    b_matrix: np.ndarray
    det_b: float
    b_from_mutual: np.ndarray
    cross_check_dev: float


def divisibility_matrix(entropy_table: np.ndarray,
                        marginals_i: np.ndarray | None = None,
                        marginals_j: np.ndarray | None = None) -> DivisibilityRecord:
    """Build the m x m second-difference record from an (m+1)x(m+1) table.

    The same matrix is rebuilt from mutual informations (the marginal
    entropies cancel) and the two routes are cross-checked.
    """
    s = np.asarray(entropy_table, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] < 2:
        raise ValueError("entropy table must be square with size >= 2")
    if np.max(np.abs(s - s.T)) > SYMMETRY_TOL * max(1.0, np.abs(s).max()):
        raise InvalidStateError("entropy table asymmetric beyond tolerance")
    m = s.shape[0] - 1
    b = s[:m, 1:] + s[1:, :m] - s[:m, :m] - s[1:, 1:]
    s_i = np.zeros(m + 1) if marginals_i is None else np.asarray(marginals_i, dtype=float)
    s_j = np.zeros(m + 1) if marginals_j is None else np.asarray(marginals_j, dtype=float)
    mutual = s_i[:, None] + s_j[None, :] - s
    b_mi = mutual[:m, :m] + mutual[1:, 1:] - mutual[:m, 1:] - mutual[1:, :m]
    dev = float(np.max(np.abs(b - b_mi)))
    return DivisibilityRecord(b_matrix=b, det_b=float(np.linalg.det(b)),
                              b_from_mutual=b_mi, cross_check_dev=dev)


def divisibility_over_orderings(entropy_table: np.ndarray):
    """det B for every subsystem ordering; returns (worst det, ordering, all).

    The consecutive-pair structure of B depends on the ordering; the minimum
    over permutations is the strongest divisibility test for an instance.
    """
    s = np.asarray(entropy_table, dtype=float)
    size = s.shape[0]
    if size > 4:
        raise ValueError("orderings report supported for up to 4 subsystems")
    results = []
    for perm in itertools.permutations(range(size)):
        table = s[np.ix_(perm, perm)]
        det_b = divisibility_matrix(table).det_b
        results.append((perm, det_b))
    worst = min(results, key=lambda item: item[1])
    return worst[1], worst[0], results


def three_set_inequality(s_ab, s_ac, s_bc, s_aa, s_bb, s_cc) -> float:
    """Slack (LHS - RHS) of the explicit three-subsystem divisibility inequality.

    Nonnegative whenever the entropy exponentials are infinitely divisible;
    equals det B of the corresponding 3x3 symmetric entropy table.
    """
    lhs = 2 * s_ab * s_ac + 2 * s_ab * s_bc + 2 * s_bc * s_ac \
        + s_aa * s_bb + s_aa * s_cc + s_bb * s_cc
    rhs = s_ab ** 2 + s_ac ** 2 + s_bc ** 2 \
        + 2 * s_ab * s_cc + 2 * s_ac * s_bb + 2 * s_bc * s_aa
    return float(lhs - rhs)


@dataclass
class SearchConfig:
    """Configuration of the randomized counterexample search.

    dims: one (d_A, d_B) pair per subsystem, all with equal product.
    target: 'integer_n' (control; violations flag a numerics bug),
            'entropy_n1' (Gram of e^{-lam S}, von Neumann entropies),
            'schur_s_fraction' (det B second differences, the s -> 0 limit;
            n = 1 is the entropy table of the divisibility inequalities,
            n >= 2 tests fractional powers of the proven integer-index case).
    literal_s: optional fractional entrywise power checked alongside det B.
    refine_iterations: when > 0 and the plain sweep finds nothing, run a
    seeded stochastic descent from the best sweep instance (violating
    regions occupy a small volume, so pure sampling can need huge budgets).
    """

    dims: list
    trials: int
    master_seed: int
    target: str = "entropy_n1"
    tolerance: float = COUNTEREXAMPLE_TOL
    lam: float = 1.0
    n: int = 1
    literal_s: float | None = None
    trial_offset: int = 0
    refine_iterations: int = 0
    refine_scale: float = 0.4
    refine_floor: float = 1e-8

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        if self.target == "integer_n" and self.n < 2:
            raise ValueError("integer_n control mode needs n >= 2")
        dims = [(int(a), int(b)) for a, b in self.dims]
        products = {a * b for a, b in dims}
        if len(products) != 1:
            raise ValueError("all subsystem splits must share the same total dimension")
        if len(dims) < 2:
            raise ValueError("need at least two subsystems")
        self.dims = dims

    @property
    def dim(self) -> int:
        return self.dims[0][0] * self.dims[0][1]


@dataclass
class SearchReport:
    config: SearchConfig
    trials_run: int
    violations: list
    min_slack: float
    min_slack_trial: int
    refine_used: int = 0
    slack_quantiles: dict | None = None

    @property
    def found(self) -> bool:
        return bool(self.violations)

    def to_dict(self) -> dict:
        cfg = self.config
        return {
            "config": {
                "dims": [list(d) for d in cfg.dims],
                "trials": cfg.trials,
                "master_seed": cfg.master_seed,
                "target": cfg.target,
                "tolerance": cfg.tolerance,
                "lam": cfg.lam,
                "n": cfg.n,
                "literal_s": cfg.literal_s,
                "trial_offset": cfg.trial_offset,
                "refine_iterations": cfg.refine_iterations,
            },
            "trials_run": self.trials_run,
            "refine_used": self.refine_used,
            "slack_quantiles": self.slack_quantiles,
            "num_violations": len(self.violations),
            "min_slack": self.min_slack,
            "min_slack_trial": self.min_slack_trial,
            "violations": self.violations,
        }


def _draw_instance(cfg: SearchConfig, trial: int):
    rng = trial_rng(cfg.master_seed, cfg.trial_offset + trial)
    d = cfg.dim
    lam = simplex_eigenvalues(d, rng)
    u = haar_unitary(d, rng)
    psi = PurifiedState(dim=d, schmidt_values=np.sort(lam)[::-1], eigenbasis=u)
    splits = [SubsystemSplit.haar(da, db, rng, label=f"A{k+1}")
              for k, (da, db) in enumerate(cfg.dims)]
    return psi, splits


def _serialize_instance(psi: PurifiedState, splits: list[SubsystemSplit]) -> dict:
    from .serialize import encode_complex

    return {
        "eigenvalues": psi.schmidt_values.tolist(),
        "eigenbasis": encode_complex(psi.eigenbasis),
        "splits": [{
            "dim_a": s.dim_a, "dim_b": s.dim_b,
            "coeffs": encode_complex(s.matrix),
        } for s in splits],
    }


def _instance_from_dict(data: dict):
    from .serialize import decode_complex

    u = decode_complex(data["eigenbasis"])
    psi = PurifiedState(dim=u.shape[0], schmidt_values=np.array(data["eigenvalues"]),
                        eigenbasis=u)
    splits = [SubsystemSplit(dim_a=s["dim_a"], dim_b=s["dim_b"],
                             coeffs=decode_complex(s["coeffs"]))
              for s in data["splits"]]
    return psi, splits


def _evaluate_target(cfg: SearchConfig, psi: PurifiedState,
                     splits: list[SubsystemSplit]) -> dict:
    """Normalized slack of the configured inequality (negative = violation)."""
    if cfg.target != "schur_s_fraction":
        # entropy_n1 weighs von Neumann entropies by lam; integer_n is the
        # proven case lam = n - 1
        record = (gram_matrix(psi, splits, n=1, lam=cfg.lam) if cfg.target == "entropy_n1"
                  else gram_matrix(psi, splits, n=cfg.n))
        return {"slack": record.min_eigenvalue / record.scale,
                "gram": record.entries.tolist(),
                "entropy_table": record.entropy_table.tolist(),
                "min_eigenvalue": record.min_eigenvalue}
    # schur_s_fraction: infinite divisibility through the lam -> 0 expansion
    table = entropy_table(psi, splits, n=cfg.n)
    m = table.shape[0] - 1
    record = divisibility_matrix(table)
    det_fixed = record.det_b
    if table.shape[0] <= 4:
        det_best, ordering, _ = divisibility_over_orderings(table)
    else:
        det_best, ordering = det_fixed, tuple(range(table.shape[0]))
    # the scale floor keeps roundoff on near-degenerate tables (B ~ 0) from
    # masquerading as violations
    b_scale = max(np.linalg.norm(record.b_matrix) ** m, 1e-12)
    out = {"slack": det_best / b_scale,
           "det_b": det_fixed, "det_b_best": det_best,
           "best_ordering": list(ordering),
           "entropy_table": table.tolist()}
    if cfg.literal_s is not None:
        _, scale, eigvals, _ = _gram_spectrum(np.exp(-cfg.literal_s * (cfg.n - 1) * table))
        out["literal_s_min_eigenvalue"] = float(eigvals[0])
        out["literal_s_slack"] = float(eigvals[0] / scale)
    return out


def run_trial(cfg: SearchConfig, trial: int) -> dict:
    psi, splits = _draw_instance(cfg, trial)
    result = _evaluate_target(cfg, psi, splits)
    result["trial"] = cfg.trial_offset + trial
    if result["slack"] < -cfg.tolerance:
        result["instance"] = _serialize_instance(psi, splits)
    return result


def _run_trials(args) -> list:
    trials, _, cfg = args
    return [run_trial(cfg, t) for t in trials]


def _pool_map(worker, items, jobs: int, *args) -> list:
    """worker((chunk, offset, *args)) over contiguous chunks of items, in item order.

    With jobs > 1 and at least two items, a fresh process pool of `jobs`
    workers runs ceil(len(items) / jobs)-sized chunks; otherwise one call
    takes every item in this process.
    """
    if jobs <= 1 or len(items) < 2:
        return [worker((items, 0, *args))]
    from concurrent.futures import ProcessPoolExecutor

    chunk = -(-len(items) // jobs)
    tasks = [(items[start:start + chunk], start, *args)
             for start in range(0, len(items), chunk)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks))


def counterexample_search(cfg: SearchConfig, jobs: int = 1) -> SearchReport:
    """Randomized search for violations of the configured inequality.

    Each trial derives its own stream from (master_seed, trial index), so any
    execution schedule (including parallel chunks) produces the identical
    report after the deterministic merge.  Exhausting the budget without a
    violation is a normal outcome, reported with the trial count; with
    refine_iterations > 0 a seeded descent then pushes the best sweep
    instance toward the violating region.
    """
    results = [r for batch in _pool_map(_run_trials, range(cfg.trials), jobs, cfg)
               for r in batch]
    violations = []
    min_slack = np.inf
    min_trial = -1
    slacks = np.empty(len(results))
    for idx, result in enumerate(results):
        slacks[idx] = result["slack"]
        if result["slack"] < min_slack:
            min_slack = result["slack"]
            min_trial = result["trial"]
        if "instance" in result:
            violations.append(result)
    quantiles = {f"q{int(100 * q):02d}": float(np.quantile(slacks, q))
                 for q in (0.0, 0.01, 0.1, 0.5, 1.0)}
    refine_used = 0
    if not violations and cfg.refine_iterations > 0 and cfg.target != "integer_n":
        refined, refine_used = _refine(cfg, min_trial)
        if refined is not None:
            violations.append(refined)
            min_slack = min(min_slack, refined["slack"])
    return SearchReport(config=cfg, trials_run=cfg.trials, violations=violations,
                        min_slack=float(min_slack), min_slack_trial=min_trial,
                        refine_used=refine_used, slack_quantiles=quantiles)


def _refine(cfg: SearchConfig, start_trial: int):
    """Stochastic descent from a sweep instance into the violating region.

    Moves perturb the spectrum in the log simplex or rotate one split by a
    random small unitary; only improvements are kept and the move scale
    shrinks after repeated rejections.  The state eigenbasis is irrelevant to
    every target (only the spectrum and the splits enter), so it stays fixed.
    Returns a violation payload once the slack clears -10 * tolerance.
    """
    rng = trial_rng(cfg.master_seed, cfg.trial_offset + cfg.trials)
    seed_cfg = SearchConfig(dims=cfg.dims, trials=1, master_seed=cfg.master_seed,
                            target=cfg.target, tolerance=cfg.tolerance, lam=cfg.lam,
                            n=cfg.n, literal_s=cfg.literal_s,
                            trial_offset=start_trial)
    psi, splits = _draw_instance(seed_cfg, 0)
    d = cfg.dim
    lam = psi.schmidt_values.copy()
    betas = [s.matrix.copy() for s in splits]

    def evaluate(lam_vec, beta_mats):
        state = PurifiedState(dim=d, schmidt_values=np.sort(lam_vec)[::-1],
                              eigenbasis=np.eye(d, dtype=complex))
        sub = [SubsystemSplit(dim_a=a, dim_b=b, coeffs=mat)
               for (a, b), mat in zip(cfg.dims, beta_mats)]
        return _evaluate_target(cfg, state, sub), state, sub

    current, _, _ = evaluate(lam, betas)
    cur_slack = current["slack"]
    target_slack = -10.0 * cfg.tolerance
    scale = cfg.refine_scale
    stall = 0
    for it in range(cfg.refine_iterations):
        which = int(rng.integers(0, 1 + len(betas)))
        lam_new, betas_new = lam, betas
        if which == 0:
            logl = np.log(lam) + scale * rng.standard_normal(lam.size)
            lam_new = np.exp(logl)
            lam_new = lam_new / lam_new.sum()
            if lam_new.min() < cfg.refine_floor:
                continue
        else:
            h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = 0.5 * (h + h.conj().T)
            w, v = np.linalg.eigh(h)
            rot = (v * np.exp(1j * scale * w)) @ v.conj().T
            betas_new = [b.copy() for b in betas]
            betas_new[which - 1] = rot @ betas_new[which - 1]
        result, state, sub = evaluate(lam_new, betas_new)
        if result["slack"] < cur_slack:
            cur_slack = result["slack"]
            lam, betas = lam_new, betas_new
            stall = 0
            if cur_slack < target_slack:
                result["trial"] = start_trial
                result["refined"] = True
                result["refine_iterations"] = it + 1
                result["instance"] = _serialize_instance(state, sub)
                return result, it + 1
        else:
            stall += 1
            if stall > 300:
                scale = max(scale * 0.6, 1e-3)
                stall = 0
    return None, cfg.refine_iterations


def verify_witness(witness: dict, target: str, tolerance: float = COUNTEREXAMPLE_TOL,
                   lam: float = 1.0, n: int = 2) -> float:
    """Re-evaluate a stored violating instance; returns the recomputed slack."""
    psi, splits = _instance_from_dict(witness["instance"])
    cfg = SearchConfig(dims=[(s.dim_a, s.dim_b) for s in splits], trials=1,
                       master_seed=0, target=target, tolerance=tolerance,
                       lam=lam, n=n)
    result = _evaluate_target(cfg, psi, splits)
    return result["slack"]


@dataclass
class SweepResult:
    instances: int
    checks: int
    min_normalized_eig: float
    worst: dict
    violations: list


def _sweep_chunk(args) -> "SweepResult":
    dims_list, offset, n_values, master_seed, tol = args
    return theorem_sweep(dims_list, n_values, master_seed, tol=tol, trial_offset=offset)


def theorem_sweep_parallel(dims_list: list, n_values, master_seed: int,
                           tol: float = PSD_RELATIVE_TOL, jobs: int = 1) -> "SweepResult":
    """Parallel theorem sweep; instance streams make the merge order-free."""
    parts = _pool_map(_sweep_chunk, list(dims_list), jobs, n_values, master_seed, tol)
    merged = SweepResult(instances=0, checks=0, min_normalized_eig=np.inf,
                         worst={}, violations=[])
    for part in parts:
        merged.instances += part.instances
        merged.checks += part.checks
        merged.violations.extend(part.violations)
        if part.min_normalized_eig < merged.min_normalized_eig:
            merged.min_normalized_eig = part.min_normalized_eig
            merged.worst = part.worst
    return merged


def theorem_sweep(dims_by_instance, n_values, master_seed: int,
                  tol: float = PSD_RELATIVE_TOL, trial_offset: int = 0) -> SweepResult:
    """PSD sweep of integer-index Gram matrices over random instances.

    dims_by_instance: iterable of split-dimension lists, one instance each.
    Every (instance, n) pair must come out PSD within -tol * ||G||; any
    violation is collected (a numerics bug, not physics).
    """
    min_norm_eig = np.inf
    worst = {}
    violations = []
    checks = 0
    count = 0
    for idx, dims in enumerate(dims_by_instance):
        cfg = SearchConfig(dims=dims, trials=1, master_seed=master_seed,
                           target="integer_n", n=2, trial_offset=trial_offset + idx)
        psi, splits = _draw_instance(cfg, 0)
        spectra = _pair_spectra(psi, splits)
        for n in n_values:
            g = np.empty((len(splits), len(splits)))
            for (i, j), eigs in spectra.items():
                g[i, j] = g[j, i] = float(np.sum(eigs ** n))
            g, scale, eigvals, _ = _gram_spectrum(g)
            min_eig = float(eigvals[0])
            checks += 1
            normalized = min_eig / scale
            if normalized < min_norm_eig:
                min_norm_eig = normalized
                worst = {"instance": trial_offset + idx, "n": n, "dims": list(dims),
                         "min_eigenvalue": min_eig, "scale": scale}
            if normalized < -tol:
                violations.append({"instance": trial_offset + idx, "n": n,
                                   "dims": list(dims), "gram": g.tolist(),
                                   "min_eigenvalue": min_eig})
        count += 1
    return SweepResult(instances=count, checks=checks,
                       min_normalized_eig=float(min_norm_eig), worst=worst,
                       violations=violations)

"""Span tracer that wraps calls into rpentropy's modules from the outside.

Nothing inside the package changes: `install` swaps module attributes (and
a few class attributes) for timing wrappers and `restore` puts the
originals back.  A wrapped call opens a span only where it crosses from one
layer into another; calls that stay inside one layer fold into the outer
span.  A span's self time is its duration minus the time covered by the
spans it caused, so self times of all spans add up to at most the wall time.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)    # span key -> self seconds
        self.counts = defaultdict(float)    # counter name -> total
        self.samples = defaultdict(list)    # sample name -> inclusive seconds
        self.values = defaultdict(list)     # observation name -> values
        self._stack = []                    # open spans: [key, layer, child seconds]
        self._sampling = set()              # sample names with a call in flight
        self._patches = []
        self._paused = False

    @contextlib.contextmanager
    def pause(self):
        """Let wrapped calls through untimed, e.g. for a workload's checks."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # ------------------------------------------------------------ wrapping

    def wrap(self, fn, key, layer=None, counter=None, count=None, sample=None,
             observe=None):
        """Timing wrapper for `fn`.

        key: span key, "<layer>.<stage>"; layer defaults to the key's prefix.
        counter/count: add count(args, kwargs, result) (default 1) to a counter.
        sample: record each outermost call's inclusive duration under this name.
        observe: observe(tracer, args, kwargs, result) after the call.
        """
        layer = layer or key.split(".")[0]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            opens = not stack or stack[-1][1] != layer
            outer_sample = sample is not None and sample not in self._sampling
            if outer_sample:
                self._sampling.add(sample)
            if opens:
                stack.append([key, layer, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if opens:
                    span = stack.pop()
                    self.self_s[key] += elapsed - span[2]
                    if stack:
                        stack[-1][2] += elapsed
                if outer_sample:
                    self._sampling.discard(sample)
                    self.samples[sample].append(elapsed)
            if counter is not None:
                self.counts[counter] += 1 if count is None else count(args, kwargs, result)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, key, **options):
        """Replace owner.attr (a module function, classmethod or method)."""
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(original.__func__, key, **options))
        else:
            replacement = self.wrap(original, key, **options)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- summary

    def covered_s(self) -> float:
        return sum(self.self_s.values())


def _percentile_ms(values, q) -> float:
    return float(np.percentile(values, q) * 1e3) if values else 0.0


def _observe_reduce(tracer, args, kwargs, result):
    """Computed cost of one twist-operator contraction (pqkm,pqrs->krms)."""
    ops_i, ops_j = args[0].operators, args[1].operators
    d, da_i, da_j = ops_i.shape[0], ops_i.shape[2], ops_j.shape[2]
    tracer.counts["reflected.reduce_flops"] += d * d * da_i * da_i * da_j * da_j
    tracer.counts["reflected.reduce_bytes"] += (ops_i.nbytes + ops_j.nbytes
                                                + result.matrix.nbytes)


def _observe_gram(tracer, args, kwargs, result):
    # only integer-index records (entries tr rho^n) fall under the theorem
    if result.n >= 2 and result.lam == result.n - 1:
        scale = max(np.linalg.norm(result.entries, 2), np.finfo(float).tiny)
        tracer.values["min_normalized_eig"].append(result.min_eigenvalue / scale)


def _observe_sweep(tracer, args, kwargs, result):
    tracer.counts["positivity.grams"] += result.checks
    tracer.values["min_normalized_eig"].append(result.min_normalized_eig)


def _written_bytes(args, kwargs, path):
    return os.path.getsize(path)


def install(tracer: Tracer) -> Tracer:
    """Wrap the layer entry points of every rpentropy module on a hot path."""
    from rpentropy import cft, cli, fermion, positivity, reflected, sampling, serialize, spectral

    # reflected: the reduction kernel and the entropies of its output; the
    # positivity module holds its own references to the same functions
    for owner in (reflected, positivity):
        tracer.patch(owner, "_combine", "reflected.reduce", counter="reflected.pairs",
                     sample="reflected.pair", observe=_observe_reduce)
        tracer.patch(owner, "twist_operators", "reflected.reduce")
        tracer.patch(owner, "renyi_entropy", "reflected.entropy")
        tracer.patch(owner, "von_neumann", "reflected.entropy")

    # sampling: spectra, eigenbases and split coefficients of each instance
    for owner in (sampling, positivity):
        tracer.patch(owner, "trial_rng", "sampling.draw")
        tracer.patch(owner, "simplex_eigenvalues", "sampling.draw", counter="sampling.draws")
        tracer.patch(owner, "haar_unitary", "sampling.draw", counter="sampling.draws")
    tracer.patch(reflected.SubsystemSplit, "haar", "sampling.draw")

    # positivity: Gram assembly, verdicts, sweeps and the search loop
    tracer.patch(positivity, "gram_matrix", "positivity.verdict", counter="positivity.grams",
                 sample="positivity.eval", observe=_observe_gram)
    tracer.patch(positivity, "_evaluate_target", "positivity.verdict", sample="positivity.eval")
    tracer.patch(positivity, "divisibility_matrix", "positivity.verdict",
                 counter="positivity.grams")
    tracer.patch(positivity, "theorem_sweep", "positivity.verdict", observe=_observe_sweep)
    for name in ("check_psd", "theorem_sweep_parallel"):
        tracer.patch(positivity, name, "positivity.verdict")
    tracer.patch(cli, "counterexample_search", "positivity.verdict")

    # serialize: report, fixture and table writes, instance encoding
    for name in ("save_report", "write_fixture", "write_csv"):
        tracer.patch(cli, name, "serialize.write", counter="serialize.bytes",
                     count=_written_bytes)
    tracer.patch(cli, "read_xy_csv", "serialize.read")
    tracer.patch(serialize, "encode_complex", "serialize.write")

    # spectral path: K0 kernel, NNLS solves, fits and derivative checks
    tracer.patch(spectral, "k0", "bessel.k0", counter="bessel.k0_points",
                 count=lambda args, kwargs, result: np.size(args[0]))
    tracer.patch(spectral, "nnls", "spectral.nnls", layer="nnls")
    tracer.patch(spectral, "fit_spectral", "spectral.fit", counter="spectral.fits")
    for name in ("forward", "derivative_checks", "decay_rate"):
        tracer.patch(spectral, name, "spectral.fit")

    # fermion: closed-form identities per set, divisibility witnesses
    for name in ("entropy", "log_correlator_cauchy", "correlator_cauchy",
                 "gaussian_vertex_correlator"):
        tracer.patch(fermion, name, "fermion.identity")
    tracer.patch(fermion, "correlator_wick", "fermion.identity", counter="fermion.sets")
    tracer.patch(fermion.ChargeConfiguration, "from_intervals", "fermion.identity")
    tracer.patch(fermion, "divisibility_witness", "fermion.witness", counter="fermion.sets")

    # cft: the two cross-ratio inequalities over grid points and pairs
    tracer.patch(cft, "check_derivative_inequality", "cft.check", counter="cft.points",
                 count=lambda args, kwargs, result: np.size(args[2]))
    tracer.patch(cft, "check_midpoint_inequality", "cft.check", counter="cft.points",
                 count=lambda args, kwargs, result: np.shape(args[2])[0])
    tracer.patch(cft.CrossRatioFunction, "from_table", "cft.check")
    tracer.patch(cft.CrossRatioFunction, "validate", "cft.check")

    # cli: what main does outside every span above
    tracer.patch(cli, "main", "cli.self")
    return tracer


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-round layer numbers from a traced run of `rounds` rounds."""
    per = 1.0 / rounds
    s, c = tracer.self_s, tracer.counts
    pairs = tracer.samples["reflected.pair"]
    evals = tracer.samples["positivity.eval"]
    min_eig = tracer.values["min_normalized_eig"]
    return {
        "reflected.reduce_s": (s["reflected.reduce"] * per, "s"),
        "reflected.pairs": (c["reflected.pairs"] * per, "count"),
        "reflected.pair_ms.p50": (_percentile_ms(pairs, 50), "ms"),
        "reflected.pair_ms.p99": (_percentile_ms(pairs, 99), "ms"),
        "reflected.entropy_s": (s["reflected.entropy"] * per, "s"),
        "reflected.reduce_flops": (c["reflected.reduce_flops"] * per, "flop"),
        "reflected.reduce_bytes": (c["reflected.reduce_bytes"] * per, "B"),
        "sampling.draw_s": (s["sampling.draw"] * per, "s"),
        "sampling.draws": (c["sampling.draws"] * per, "count"),
        "positivity.verdict_s": (s["positivity.verdict"] * per, "s"),
        "positivity.grams": (c["positivity.grams"] * per, "count"),
        "positivity.evals": (len(evals) * per, "count"),
        "positivity.eval_ms.p50": (_percentile_ms(evals, 50), "ms"),
        "positivity.eval_ms.p99": (_percentile_ms(evals, 99), "ms"),
        "positivity.min_normalized_eig": (min(min_eig) if min_eig else 0.0, "ratio"),
        "bessel.k0_s": (s["bessel.k0"] * per, "s"),
        "bessel.k0_points": (c["bessel.k0_points"] * per, "count"),
        "spectral.nnls_s": (s["spectral.nnls"] * per, "s"),
        "spectral.fits": (c["spectral.fits"] * per, "count"),
        "fermion.identity_s": (s["fermion.identity"] * per, "s"),
        "fermion.witness_s": (s["fermion.witness"] * per, "s"),
        "fermion.sets": (c["fermion.sets"] * per, "count"),
        "cft.check_s": (s["cft.check"] * per, "s"),
        "cft.points": (c["cft.points"] * per, "count"),
        "serialize.write_s": (s["serialize.write"] * per, "s"),
        "serialize.bytes": (c["serialize.bytes"] * per, "B"),
        "cli.self_s": (s["cli.self"] * per, "s"),
    }

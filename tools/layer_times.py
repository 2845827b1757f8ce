"""Milliseconds per call of each layer of one replicate, at n = 300 and n = 1302.

Run from the root of a bimix checkout:

    PYTHONPATH=src python3 tools/layer_times.py [--passes P] [--points N] [--large-n N]

A replicate samples A, takes its top-K SVD, finds the row and the column
memberships by SPA and the simplex solve, and scores them; the layers timed
are ``sample_adjacency``, ``top_k_svd``, the rest of ``disp``
(``spa_solve``: the fit less its SVD, timed by a wrapper around the
``top_k_svd`` that ``disp`` looks up, so the ball radius and every other
step are disp's own) and ``error_rate`` (``score``).  The n = 300 inputs
are ``N`` fixed-seed points from a strided slice of each of sim1b, sim4c
and sim8b (K = 2; invalid points are passed over).  The large input is a
planted K = 3 Poisson network of ``--large-n`` nodes a side, 70% of them
pure, with about 19,000 expected edges, sampled three times each pass; at that size ``singular_values(A, 10)``, the call behind
``bimix estimate-k``, is timed too.  Each pass runs every input through
every layer in turn, so the layers share the host's slow and fast spells;
a layer's figure is the median over passes of its mean time per call.
The BLAS thread count is whatever the environment sets.  The last line of
output is one JSON object ``{size: {layer: ms}}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import time
from dataclasses import replace
from unittest import mock

import numpy as np

from bimix.disp import disp
from bimix.harness import scenario
from bimix.metrics import error_rate
from bimix.model import InvalidModelError, ModelSpec, build_omega, make_standard_two_block
from bimix.sampler import EdgeDistribution, RandomSource, sample_adjacency
from bimix.spectral import singular_values, top_k_svd

SCENARIOS = ("sim1b", "sim4c", "sim8b")
LARGE_EDGES = 19000
LARGE_REPLICATES = 3  # large networks sampled per pass
DISP = importlib.import_module("bimix.disp")  # the package's disp attribute is the function


def grid_inputs(points: int) -> list[tuple[ModelSpec, np.ndarray]]:
    """``points`` valid (spec, mean matrix) pairs from a strided slice of each n = 300 scenario."""
    inputs = []
    for name in SCENARIOS:
        plan = scenario(name, replicates=1)
        found = []
        for value in plan.grid[7 :: max(1, len(plan.grid) // (points + 1))]:
            try:
                P, rho = make_standard_two_block(plan.base.n_r, *value)
                spec = replace(plan.base, P=P, rho=rho)
                found.append((spec, build_omega(spec)))
            except InvalidModelError:  # the sweep skips these points
                continue
        inputs += found[:points]
    return inputs


def planted_spec(n: int, K: int = 3) -> ModelSpec:
    """Poisson model of ``n`` nodes a side: 70% pure nodes, the rest Dirichlet(1), ~19k edges."""
    rng = np.random.default_rng(1)
    n_pure = int(0.7 * n) // K
    pi = np.zeros((n, K))
    for k in range(K):
        pi[k * n_pure : (k + 1) * n_pure, k] = 1.0
    pi[K * n_pure :] = rng.dirichlet(np.ones(K), size=n - K * n_pure)
    P = np.full((K, K), 0.02)
    np.fill_diagonal(P, 1.0)
    pi_c = pi[rng.permutation(n)]
    total = float((pi @ P @ pi_c.T).sum())
    return ModelSpec(P=P, rho=LARGE_EDGES / total, Pi_r=pi, Pi_c=pi_c, dist=EdgeDistribution("poisson"))


def replicate_ms(spec: ModelSpec, omega: np.ndarray, seed: int, values: bool) -> dict:
    """Milliseconds each layer takes on one replicate of ``spec``."""
    clock = time.perf_counter
    svd = []

    def timed_svd(A, K):
        start = clock()
        tsvd = top_k_svd(A, K)
        svd.append(clock() - start)
        return tsvd

    t0 = clock()
    A = sample_adjacency(omega, spec.dist, RandomSource(seed))
    t1 = clock()
    with mock.patch.object(DISP, "top_k_svd", timed_svd):
        fit = disp(A, spec.K)
    t2 = clock()
    error_rate(fit.Pi_r_hat, spec.Pi_r, fit.Pi_c_hat, spec.Pi_c)
    t3 = clock()
    ms = {"sample": t1 - t0, "top_k_svd": svd[0], "spa_solve": t2 - t1 - svd[0], "score": t3 - t2}
    if values:
        singular_values(A, 10)
        ms["singular_values_10"] = clock() - t3
    return {layer: 1e3 * seconds for layer, seconds in ms.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--passes", type=int, default=7, help="interleaved passes (default 7)")
    parser.add_argument("--points", type=int, default=20,
                        help="n = 300 grid points per scenario (default 20)")
    parser.add_argument("--large-n", type=int, default=1302,
                        help="nodes a side of the planted network (default 1302)")
    args = parser.parse_args()
    sizes = {"300": [(spec, omega, False) for spec, omega in grid_inputs(args.points)]}
    large = planted_spec(args.large_n)
    sizes[str(args.large_n)] = [(large, build_omega(large), True)] * LARGE_REPLICATES
    for inputs in sizes.values():  # warm caches and lazy set-up before timing
        replicate_ms(*inputs[0][:2], seed=0, values=inputs[0][2])
    passes = {size: [] for size in sizes}
    for p in range(args.passes):
        for size, inputs in sizes.items():
            runs = [replicate_ms(spec, omega, p * len(inputs) + i, values)
                    for i, (spec, omega, values) in enumerate(inputs)]
            passes[size].append({layer: statistics.fmean(r[layer] for r in runs) for layer in runs[0]})
    report = {size: {layer: round(statistics.median(p[layer] for p in rows), 4) for layer in rows[0]}
              for size, rows in passes.items()}
    for size, layers in report.items():
        for layer, ms in layers.items():
            print(f"n={size} {layer} {ms:.3f} ms")
    print(json.dumps(report))


if __name__ == "__main__":
    main()

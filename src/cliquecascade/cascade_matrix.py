"""Mean matrix of the activation process by vertex type, and the verdict.

Type a non-root vertex by its child count x.  Conditional on an active vertex
of type x0, its communities' sizes follow the size-biased configuration law
restricted to total extra members x0, and each community independently runs
the clique cascade.  Entry (x0, x) of the mean matrix is the expected number
of activated children of type x.  The cascade is possible with positive
probability iff the Perron root of that matrix exceeds one, except for two
carve-outs handled in :func:`cascade_verdict`: a threshold of at least one
half kills every cascade, and the all-2s degenerate model is an infinite path
that activates surely.

Nothing here enumerates tuples.  Each clique size w contributes one column,
clique_dynamics.mean_active_column, a DP over floor levels in O(w^3).  Rows
mix those columns by the configuration law: convolution powers of the
extra-members law, i.e. pgf compositions, give each parent type's mass and
the weight of a size-w community among its others.  Sorted-tuple
enumeration survives only in the oracles.

The Perron root is found by power iteration on each strongly connected
component.  Its only randomness is the perturbation of a stalled bracket,
drawn from a generator seeded with 0 and built on the first stall, so rho is
a function of the matrix alone and the analytic path does not import
numpy.random.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

import numpy as np

from .clique_dynamics import CliqueOutcome, mean_active_column
from .dist_core import ModelParams, child_count_series, pgf_compose
from .errors import NoConvergence

# Perron solver knobs: relative bracket width, iteration budget, restart
# patience when the bracket stalls.
POWER_REL_TOL = 1e-10
POWER_MAX_ITER = 10**5
POWER_RESTART_AFTER = 500

# abs(rho - 1) within this is reported as the boundary and classified as
# subcritical (the dichotomy puts rho == 1 on the finite side).
BOUNDARY_TOL = 1e-10


def mean_active_of_type(params: ModelParams, x: int, clique_size: int) -> float:
    """Expected number of activated children of type x in one clique."""
    column = mean_active_column(params, clique_size)
    return float(column[x]) if 0 <= x < column.shape[0] else 0.0


def mean_active_by_type_oracle(law: dict[CliqueOutcome, float]) -> dict[int, float]:
    """Expected activated children of every type under one clique outcome law."""
    means: dict[int, float] = {}
    for outcome, prob in law.items():
        for x in set(outcome.types):
            means[x] = means.get(x, 0) + prob * outcome.types.count(x)
    return means


@dataclass(frozen=True, eq=False)
class MeanMatrix:
    """Mean activated-children counts indexed by (parent type, child type)."""

    entries: np.ndarray

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@lru_cache(maxsize=None)
def _mean_matrix_cached(params: ModelParams) -> "MeanMatrix":
    params.require_contagion_assumptions()
    dim = params.max_child_count + 1
    extra = params.extra_members.dense()
    # a parent holds K further communities, their extra members summing to its
    # type, so the type's mass is the child-count law.  Singling out one of
    # the K leaves K - 1 summing freely; weighted by K that is E[K] times the
    # size-biased shift of K, composed with the extra-members pgf.
    config_mass = np.array(child_count_series(params).coeffs)
    others = np.zeros(dim)
    further = params.extra_communities
    if further.support_max > 0:
        composed = pgf_compose(further.size_biased_shifted(), params.extra_members).coeffs
        others[: len(composed)] = further.mean() * np.array(composed)

    raw = np.zeros((dim, dim))
    for w in params.community_sizes.support:
        column = mean_active_column(params, w)
        parents = np.concatenate((np.zeros(w - 1), others))[:dim]
        raw[:, : column.shape[0]] += np.outer(parents, extra[w - 1] * column)

    # condition each row on its type actually occurring; types with zero
    # configuration mass keep a zero row, and type 0 has no children at all
    entries = np.zeros((dim, dim))
    rows = np.flatnonzero(config_mass[1:] > 0.0) + 1
    entries[rows] = raw[rows] / config_mass[rows, None]
    return MeanMatrix(entries=entries)


def mean_matrix(params: ModelParams) -> MeanMatrix:
    return _mean_matrix_cached(params)


def strongly_connected_components(adjacency: np.ndarray) -> list[list[int]]:
    """Tarjan's algorithm, iterative, on a boolean adjacency matrix."""
    n = adjacency.shape[0]
    succ = [np.flatnonzero(adjacency[i]).tolist() for i in range(n)]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, ptr = work[-1]
            if ptr == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            for j in range(ptr, len(succ[node])):
                nxt = succ[node][j]
                if index[nxt] == -1:
                    work[-1] = (node, j + 1)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                comp = []
                while True:
                    v = stack.pop()
                    on_stack[v] = False
                    comp.append(v)
                    if v == node:
                        break
                components.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components


def _perron_root(block: np.ndarray) -> float:
    """Perron root of an irreducible non-negative block by power iteration.

    A diagonal shift by the max row sum makes the block primitive (periodic
    blocks would otherwise cycle); the spectrum shifts by exactly that amount.
    Positive iterates give certified ratio brackets around the root at every
    step, so the stop rule is bracket width.  A bracket that stops narrowing
    for POWER_RESTART_AFTER steps restarts from a perturbed iterate.  The
    perturbation generator is np.random.default_rng(0), built on the first
    stall: the root stays a function of the block alone, and a solve that
    never stalls never imports numpy.random.
    """
    n = block.shape[0]
    if n == 1:
        return float(block[0, 0])
    shift = float(block.sum(axis=1).max())
    shifted = block + shift * np.eye(n)
    x = np.full(n, 1.0 / n)
    rng = None
    best_width = np.inf
    stalled = 0
    lo = hi = 0.0
    for _ in range(POWER_MAX_ITER):
        y = shifted @ x
        ratios = y / x
        lo = float(ratios.min())
        hi = float(ratios.max())
        if hi - lo <= POWER_REL_TOL * hi:
            return 0.5 * (lo + hi) - shift
        if hi - lo < best_width * (1.0 - 1e-6):
            best_width = hi - lo
            stalled = 0
        else:
            stalled += 1
            if stalled > POWER_RESTART_AFTER:
                if rng is None:
                    rng = np.random.default_rng(0)
                x = x * (1.0 + 0.01 * rng.random(n))
                x /= x.sum()
                stalled = 0
                continue
        x = y / y.sum()
    raise NoConvergence(
        "power iteration exhausted its budget",
        bracket=(lo - shift, hi - shift),
    )


def spectral_radius(matrix) -> float:
    """Largest eigenvalue modulus of a non-negative matrix.

    Condense into strongly connected components; the radius is the maximum of
    the component Perron roots (trivial components without a self-loop
    contribute 0).
    """
    if isinstance(matrix, MeanMatrix):
        matrix = matrix.entries
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("matrix must be square")
    if (arr < 0).any():
        raise ValueError("matrix must be entrywise non-negative")
    best = 0.0
    for comp in strongly_connected_components(arr > 0):
        if len(comp) == 1:
            i = comp[0]
            best = max(best, float(arr[i, i]))
            continue
        idx = np.array(sorted(comp))
        best = max(best, _perron_root(arr[np.ix_(idx, idx)]))
    return best


class VerdictKind(str, Enum):
    FINITE_ALMOST_SURELY = "FiniteAlmostSurely"
    CASCADE_POSSIBLE = "CascadePossible"
    CASCADE_ALMOST_SURE = "CascadeAlmostSure"


class VerdictReason(str, Enum):
    THRESHOLD_AT_LEAST_HALF = "ThresholdAtLeastHalf"
    DEGENERATE_P2_Q2 = "DegenerateP2Q2"
    SPECTRAL_RADIUS = "SpectralRadius"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    reason: VerdictReason
    rho: Optional[float] = None
    boundary: bool = False


def cascade_verdict(params: ModelParams) -> Verdict:
    """Phase-transition dichotomy for the activation process.

    Threshold >= 1/2 is decided by exact integer comparison; an all-2s model
    is the deterministic path that cascades surely; otherwise the Perron root
    of the mean matrix decides, with the boundary band classified as finite
    and flagged.
    """
    params.require_contagion_assumptions()
    if params.threshold.at_least_half:
        return Verdict(VerdictKind.FINITE_ALMOST_SURELY, VerdictReason.THRESHOLD_AT_LEAST_HALF)
    if params.memberships(2) == 1.0 and params.community_sizes(2) == 1.0:
        return Verdict(VerdictKind.CASCADE_ALMOST_SURE, VerdictReason.DEGENERATE_P2_Q2)
    rho = spectral_radius(mean_matrix(params))
    boundary = abs(rho - 1.0) <= BOUNDARY_TOL
    if rho <= 1.0 + BOUNDARY_TOL:
        kind = VerdictKind.FINITE_ALMOST_SURELY
    else:
        kind = VerdictKind.CASCADE_POSSIBLE
    return Verdict(kind, VerdictReason.SPECTRAL_RADIUS, rho=rho, boundary=boundary)

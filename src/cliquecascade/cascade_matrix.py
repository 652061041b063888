"""Mean matrix of the activation process by vertex type, and the verdict.

Type a non-root vertex by its child count x.  Conditional on an active vertex
of type x0, its communities' sizes follow the size-biased configuration law
restricted to total extra members x0, and each community independently runs
the clique cascade.  Entry (x0, x) of the mean matrix is the expected number
of activated children of type x.  The cascade is possible with positive
probability iff the Perron root of that matrix exceeds one, except for two
carve-outs handled in :func:`cascade_verdict`: a threshold of at least one
half kills every cascade, and the all-2s degenerate model is an infinite path
(ModelParams.infinite_path) that activates surely.

The types are the child counts that occur, the support of child_count_pmf.
The block is one outer product per community size w, of the parent factor's
column w and e_w = extra_members(w - 1) times w's mean column.  rho is
solved on M = (columns / masses)^T (parents e), the alternating process's
|sizes| x |sizes| matrix: M[w, w'] is the expected number of size-w'
communities the active children of one size-w community open.  It has the
block's nonzero eigenvalues (Horn and Johnson, Matrix Analysis, Thm 1.3.22),
and a column's entry over its type's mass is at most w - 1, so no quotient
overflows.  block and entries are each priced where they are built.

Nothing here enumerates tuples.  Each clique size w contributes one column,
clique_dynamics.mean_active_column, the clique pgf's gradient at s = 1, read
off the pgf's own fold over the floor-level walk.  Rows mix those columns
by the configuration law: convolution powers of the extra-members law, i.e.
pgf compositions, give each parent type's mass and the weight of a size-w
community among its others.  Sorted-tuple enumeration survives only in the
oracles.

The Perron root is found by a deterministic power iteration on each
strongly connected component, from the uniform vector: rho is a function of
the matrix alone and the analytic path does not import numpy.random.  The
verdict, the CLI and the scripts all read MeanMatrix.rho, solved once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .clique_dynamics import _walk_moves, mean_active_column
from .dist_core import ModelParams, _per_laws, _per_model, _read_only, child_count_pmf, pgf_compose, require_enumerable
from .errors import NoConvergence

# Perron solver knobs: relative bracket width and iteration budget.
POWER_REL_TOL = 1e-10
POWER_MAX_ITER = 10**5

# abs(rho - 1) within this is reported as the boundary and classified as
# subcritical (the dichotomy puts rho == 1 on the finite side).
BOUNDARY_TOL = 1e-10


def mean_active_of_type(params: ModelParams, x: int, clique_size: int) -> float:
    """Expected number of activated children of type x in one clique; 0.0 off the support."""
    types = child_count_pmf(params).values
    i = int(np.searchsorted(types, x))
    if i == types.size or types[i] != x:
        return 0.0
    return float(mean_active_column(params, clique_size)[i])


@dataclass(frozen=True, eq=False)
class MeanMatrix:
    """Mean activated-children counts by (parent type, child type), from the parent factor.

    types is the child-count support and masses its law.  Column w is
    community size w: a type-types[i] vertex opens e_w parents[i, w] /
    masses[i] further such communities on average (e_w = extra_members(w - 1)),
    each activating mean_active_column(params, w)[j] type-types[j] children.
    """

    params: ModelParams
    types: np.ndarray
    masses: np.ndarray
    parents: np.ndarray
    dim: int  # max child count + 1, the size of entries

    @cached_property
    def block(self) -> np.ndarray:
        """parents (e_w columns)^T / masses, size by size; priced before any column is folded, read-only."""
        require_enumerable(self.types.size**2, "mean matrix entries")
        block = np.zeros((self.types.size,) * 2)
        for parents, w in zip(self.parents.T, self.params.community_sizes.support):
            block += np.outer(parents, self.params.extra_members(w - 1) * mean_active_column(self.params, w))
        block /= self.masses[:, None]  # each row on its type; type 0 has no communities
        return _read_only(block)

    @cached_property
    def entries(self) -> np.ndarray:
        """block expanded to dim x dim, zero off the support; priced, built on first use, read-only."""
        require_enumerable(self.dim * self.dim, "dense mean matrix entries")
        dense = np.zeros((self.dim, self.dim))
        dense[np.ix_(self.types, self.types)] = self.block
        return _read_only(dense)

    @cached_property
    def rho(self) -> float:
        """block's Perron root, that of M = (columns / masses)^T (parents e): solved once, then kept."""
        sizes, e = self.params.community_sizes.support, self.params.extra_members
        columns = np.column_stack([mean_active_column(self.params, w) for w in sizes]) / self.masses[:, None]
        return spectral_radius(columns.T @ (self.parents * [e(w - 1) for w in sizes]))


@_per_laws
def _parents(params: ModelParams) -> np.ndarray:
    """parents[i, w]: a type-x parent's K further communities, one singled out, the rest x - (w - 1) members.

    Singling out one of the K leaves K - 1 summing freely; weighted by K that
    is E[K] times the size-biased shift of K composed with the extra-members
    pgf, 0 off its support.  No threshold enters: a model and its with_threshold points share it, read-only.
    """
    further, types = params.extra_communities, child_count_pmf(params).values
    parents = np.zeros((types.size, len(params.community_sizes.support)))
    if further.support_max > 0:
        composed = pgf_compose(further.size_biased_shifted(), params.extra_members)
        others = types[:, None] + 1 - np.array(params.community_sizes.support)
        at = np.searchsorted(composed.values, others).clip(max=composed.values.size - 1)
        parents = np.where(composed.values[at] == others, further.mean() * composed.probs[at], 0.0)
    return _read_only(parents)


@_per_model
def mean_matrix(params: ModelParams) -> MeanMatrix:
    """The model's mean matrix: types, masses and the shared parents now, block on first use."""
    params.require_contagion_assumptions()
    _walk_moves(params)  # the walk's gate, before the composition
    xp = child_count_pmf(params)
    return MeanMatrix(params, xp.values, xp.probs, _parents(params), params.max_child_count + 1)


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

    Each step reads the Collatz-Wielandt bracket lo <= rho <= hi, the extreme
    ratios (B x)_i / x_i of a positive iterate, and stops once hi - lo <=
    POWER_REL_TOL * hi, a tolerance relative to rho itself.  The step is
    x <- (B + hi I) x: shifted by the bracket's upper end, a periodic block
    cannot cycle, and the shift follows the root, not the row sums.  The
    iteration starts from the uniform vector and draws nothing.
    """
    n = block.shape[0]
    x = np.full(n, 1.0 / n)
    lo = hi = 0.0
    for _ in range(POWER_MAX_ITER):
        y = block @ x
        ratios = y / x
        lo = float(ratios.min())
        hi = float(ratios.max())
        if hi - lo <= POWER_REL_TOL * hi:
            return 0.5 * (lo + hi)
        y += hi * x
        x = y / y.sum()
    raise NoConvergence(
        f"power iteration exhausted its budget with rho in [{lo:.17g}, {hi:.17g}]",
        bracket=(lo, hi),
    )


def spectral_radius(matrix) -> float:
    """Largest eigenvalue modulus of a non-negative square array.

    Condense into strongly connected components; the radius is the maximum of
    the component Perron roots (trivial components without a self-loop
    contribute 0).  A mean matrix's root is MeanMatrix.rho.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("matrix must be square")
    if not (np.isfinite(arr) & (arr >= 0)).all():
        raise ValueError("matrix must be finite and entrywise non-negative")
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
    if params.infinite_path:
        return Verdict(VerdictKind.CASCADE_ALMOST_SURE, VerdictReason.DEGENERATE_P2_Q2)
    rho = mean_matrix(params).rho
    boundary = abs(rho - 1.0) <= BOUNDARY_TOL
    if rho <= 1.0 + BOUNDARY_TOL:
        kind = VerdictKind.FINITE_ALMOST_SURELY
    else:
        kind = VerdictKind.CASCADE_POSSIBLE
    return Verdict(kind, VerdictReason.SPECTRAL_RADIUS, rho=rho, boundary=boundary)

"""Bounded-support integer distributions and exact threshold arithmetic.

The model is parametrised by two finite pmfs: the number of communities an
individual belongs to, and the size of a community.  Everything downstream is
built from four derived objects defined here:

* the size-biased shifted laws (pick a community uniformly by membership slot;
  the count of *further* communities of the chosen member, and of *further*
  members of the chosen community), built once per model by ModelParams and
  read by both the analytic and the simulation paths,
* probability generating functions of those laws (Pmf.pgf) and their
  composition, pgf_compose, priced and run over the supports: the law of the
  number of children of a non-root vertex in the projected tree-of-cliques,
  child_count_pmf,
* an exact rational activation threshold, kept in integer arithmetic so that
  floor comparisons never suffer float rounding.

ModelParams.infinite_path names the one degenerate model both the contagion
verdict and the graph's extinction report single out.  _per_model keeps each
table another module derives from a model on that model, freed with it;
_per_laws keeps a law no threshold enters, such as the child-count law, on a
dict the model shares with its with_threshold points, freed with the last.

Every law is held over its support alone: its items, their read-only array
views (values, probs) and the package's one inverse-cdf draw.  Combinatorial
weights stay exact integers until the final multiplication by float masses.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from math import comb, gcd

import numpy as np

from .errors import (
    AssumptionViolated,
    EmptySupport,
    EnumerationTooLarge,
    MassNotOne,
    NegativeProbability,
    ZeroMean,
)

# Mass-sum tolerance for user-supplied pmfs vs. laws derived by arithmetic.
INPUT_MASS_TOL = 1e-12
DERIVED_MASS_TOL = 1e-9

ENUMERATION_BUDGET = 10**7
THRESHOLD_DIGITS = 4300  # Python's default int-to-str limit: every report echoes the threshold
_THRESHOLD_BOUND = 10**THRESHOLD_DIGITS


def require_enumerable(count: int, what: str) -> None:
    """Raise EnumerationTooLarge before an enumeration of count items starts.

    A count past the int64 range is named by a power-of-two lower bound.
    """
    if count > ENUMERATION_BUDGET:
        shown = count if count < 2**63 else f"at least 2^{count.bit_length() - 1}"
        raise EnumerationTooLarge(f"{shown} {what} exceed the {ENUMERATION_BUDGET} budget")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class Pmf:
    """Probability mass function on a bounded set of non-negative integers.

    ``items`` holds (value, mass) pairs sorted by value with only positive
    masses; instances are immutable and hashable so derived quantities can be
    memoised on them, and equality and hashing read items alone.  Build
    instances through :meth:`from_pairs` (validating) or :meth:`point`.
    """

    items: tuple[tuple[int, float], ...]

    @classmethod
    def from_pairs(cls, pairs, tol: float = INPUT_MASS_TOL) -> "Pmf":
        """Validate raw (value, probability) pairs and return a canonical Pmf.

        Raises NegativeProbability, MassNotOne or EmptySupport.  Zero-mass
        entries are dropped; the mass sum must be within ``tol`` of one.
        """
        if hasattr(pairs, "items"):
            pairs = pairs.items()
        cleaned: dict[int, float] = {}
        for value, prob in pairs:
            v = int(value)
            if v != value or v < 0:
                raise ValueError(f"support values must be non-negative integers, got {value!r}")
            prob = float(prob)
            if not prob >= 0.0:
                raise NegativeProbability(f"mass at {v} must be a non-negative number, got {prob}")
            if v in cleaned:
                raise ValueError(f"duplicate support value {v}")
            cleaned[v] = prob
        positive = tuple(sorted((v, p) for v, p in cleaned.items() if p > 0.0))
        if not positive:
            raise EmptySupport("no value carries positive mass")
        total = sum(cleaned.values())
        if abs(total - 1.0) > tol:
            raise MassNotOne(f"masses sum to {total!r}, expected 1 within {tol}")
        return cls(items=positive)

    @classmethod
    def point(cls, value: int) -> "Pmf":
        return cls.from_pairs([(value, 1.0)])

    def __call__(self, value: int) -> float:
        for v, p in self.items:
            if v == value:
                return p
        return 0.0

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.items)

    @property
    def support_max(self) -> int:
        return self.items[-1][0]

    def mean(self) -> float:
        return sum(v * p for v, p in self.items)

    def factorial_moment(self, r: int) -> float:
        """E[K (K-1) ... (K-r+1)] for K distributed by this pmf, r >= 1."""
        if r < 1:
            raise ValueError("factorial moment order must be >= 1")
        total = 0.0
        for v, p in self.items:
            term = 1
            for j in range(r):
                term *= v - j
            if term:
                total += term * p
        return total

    def size_biased_shifted(self) -> "Pmf":
        """Law of K - 1 under the size-biased reweighting k p_k / E[K].

        This is the count of remaining slots seen from a uniformly chosen
        slot.  Raises ZeroMean when all mass sits at zero.
        """
        mu = self.mean()
        if mu <= 0.0:
            raise ZeroMean("size-biased shift needs a positive mean")
        pairs = [(v - 1, v * p / mu) for v, p in self.items if v >= 1]
        return Pmf.from_pairs(pairs, tol=DERIVED_MASS_TOL)

    @cached_property
    def values(self) -> np.ndarray:
        """The support as a read-only int64 array, built on first use and kept."""
        return _read_only(np.array(self.support, dtype=np.int64))

    @cached_property
    def probs(self) -> np.ndarray:
        """The masses in support order as a read-only array, built on first use and kept."""
        return _read_only(np.array([p for _, p in self.items]))

    @cached_property
    def _cdf(self) -> np.ndarray:
        return np.cumsum(self.probs)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """size iid draws by inverse cdf, one rng.random uniform each."""
        idx = np.searchsorted(self._cdf, rng.random(size), side="right")
        return self.values[np.minimum(idx, len(self.values) - 1)]

    def pgf(self, x: float) -> float:
        """The probability generating function at x: the sum of p x^v over the support."""
        return sum(p * x**v for v, p in self.items)


@dataclass(frozen=True)
class Threshold:
    """Exact rational activation threshold in (0, 1), kept in lowest terms.

    A vertex of degree n activates when its count of active neighbours is
    strictly greater than threshold * n, i.e. at least floor_times(n) + 1.
    The floor is integer arithmetic; verdicts flip on exact boundaries, so the
    threshold is never materialised as a float on a decision path.
    """

    numerator: int
    denominator: int

    def __post_init__(self):
        num, den = self.numerator, self.denominator
        if not (isinstance(num, int) and isinstance(den, int)):
            raise ValueError("threshold terms must be integers")
        if den <= 0 or not 0 < num < den:
            raise ValueError(f"threshold must lie strictly between 0 and 1, got {num}/{den}")
        # reduces library input such as Threshold(2, 10); from_string arrives reduced
        g = gcd(num, den)
        if g > 1:
            object.__setattr__(self, "numerator", num // g)
            object.__setattr__(self, "denominator", den // g)
        if self.denominator >= _THRESHOLD_BOUND:
            raise ValueError(f"threshold terms must have at most {THRESHOLD_DIGITS} digits")

    @classmethod
    def from_string(cls, text: str) -> "Threshold":
        """Parse "0.3" or "3/10" exactly; an exponent past THRESHOLD_DIGITS is refused unbuilt."""
        _, e, exponent = str(text).strip().lower().rpartition("e")
        digits = exponent.lstrip("+-").replace("_", "")
        if e and digits.isdigit() and int(digits) > THRESHOLD_DIGITS:
            raise ValueError(f"threshold exponent must lie within +-{THRESHOLD_DIGITS}")
        try:
            frac = Fraction(str(text).strip())
        except ZeroDivisionError:
            raise ValueError(f"threshold {text!r} has a zero denominator") from None
        return cls(frac.numerator, frac.denominator)

    def floor_times(self, n: int) -> int:
        """floor(threshold * n) without ever leaving integer arithmetic."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return (self.numerator * n) // self.denominator

    @property
    def at_least_half(self) -> bool:
        return 2 * self.numerator >= self.denominator

    def __float__(self) -> float:
        return self.numerator / self.denominator

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


@dataclass(frozen=True)
class ModelParams:
    """A community-structure model: membership counts, community sizes, threshold."""

    memberships: Pmf
    community_sizes: Pmf
    threshold: Threshold

    def __post_init__(self):
        # both means must be positive for the size-biased laws to exist
        if self.memberships.mean() <= 0.0:
            raise ZeroMean("membership count needs a positive mean")
        if self.community_sizes.mean() <= 0.0:
            raise ZeroMean("community size needs a positive mean")

    @classmethod
    def create(cls, memberships, community_sizes, threshold) -> "ModelParams":
        """Convenience constructor from dicts/pair lists and a threshold string."""
        p = memberships if isinstance(memberships, Pmf) else Pmf.from_pairs(memberships)
        q = community_sizes if isinstance(community_sizes, Pmf) else Pmf.from_pairs(community_sizes)
        t = threshold if isinstance(threshold, Threshold) else Threshold.from_string(threshold)
        return cls(memberships=p, community_sizes=q, threshold=t)

    def with_threshold(self, threshold) -> "ModelParams":
        """This model at another threshold, sharing its threshold-free laws (_per_laws), built or not."""
        t = threshold if isinstance(threshold, Threshold) else Threshold.from_string(threshold)
        point = dataclasses.replace(self, threshold=t)
        vars(point)["laws"] = vars(self).setdefault("laws", {})
        return point

    @property
    def mean_memberships(self) -> float:
        return self.memberships.mean()

    @property
    def mean_community_size(self) -> float:
        return self.community_sizes.mean()

    @cached_property
    def extra_communities(self) -> Pmf:
        """Further communities of an individual reached through one community, built once."""
        return self.memberships.size_biased_shifted()

    @cached_property
    def extra_members(self) -> Pmf:
        """Further members of a community reached through one member, built once."""
        return self.community_sizes.size_biased_shifted()

    @property
    def max_child_count(self) -> int:
        """Tight upper bound on the child count of a non-root vertex."""
        return (self.memberships.support_max - 1) * (self.community_sizes.support_max - 1)

    @property
    def infinite_path(self) -> bool:
        """Every individual in two communities of two: the projection is an infinite path."""
        return self.memberships(2) == 1.0 and self.community_sizes(2) == 1.0

    def require_contagion_assumptions(self) -> None:
        """Contagion analysis assumes no isolated individuals and no trivial communities."""
        if self.memberships(0) > 0.0:
            raise AssumptionViolated("membership count must not put mass at 0")
        if self.community_sizes(0) > 0.0 or self.community_sizes(1) > 0.0:
            raise AssumptionViolated("community sizes must not put mass at 0 or 1")


def _per_model(build, home=vars):
    """build(params, *args), memoised in home(params), by default params.__dict__: freed with it."""
    @wraps(build)
    def kept(params: ModelParams, *args):
        memo = home(params).setdefault(build.__name__, {})
        if args not in memo:
            memo[args] = build(params, *args)
        return memo[args]
    return kept


def _per_laws(build):
    """_per_model for a law no threshold enters: kept on the dict with_threshold hands on to each point."""
    return _per_model(build, lambda params: vars(params).setdefault("laws", {}))


def _merge(powers: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A series given as (power, coefficient) terms, equal powers summed in term order."""
    ordered = np.sort(powers)
    merged = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    return merged, np.bincount(np.searchsorted(merged, powers), weights=coeffs)


def _times(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]):
    """The product of two series: every pair of terms, then equal powers merged."""
    return _merge(np.add.outer(a[0], b[0]).ravel(), np.multiply.outer(a[1], b[1]).ravel())


def pgf_compose(outer: Pmf, inner: Pmf) -> Pmf:
    """The compound law whose pgf is outer-pgf applied to inner-pgf, validated.

    Horner over the outer support, descending, on (powers, coefficients)
    arrays: each outer mass joins at power 0, and the gap g to the next outer
    value multiplies by inner^g, one product per binary digit of g with the
    squares inner^(2^b).  A bound on all products' pairs is priced before the
    first, not counted as they run, so that a refusal costs no product (the
    walk's price, clique_dynamics._walk_moves, keeps the same rule); being a
    bound, it may refuse a composition that would fit.  inner^e has at most
    min(e * span + 1, C(e + s - 1, s - 1)) powers (s, span: the inner
    support's size, max - min), the series after t outer values t times that
    at e = outer.support_max, or its degree + 1 powers and one mass not yet
    merged.
    Raises EnumerationTooLarge past ENUMERATION_BUDGET pairs or a degree past
    int64.  Zero coefficients leave the support; the masses must sum to one
    within DERIVED_MASS_TOL.
    """
    degree = outer.support_max * inner.support_max
    if degree >= 2**63:  # the powers are int64
        raise EnumerationTooLarge(f"composition degree at least 2^{degree.bit_length() - 1} exceeds int64")
    s, span = len(inner.items), inner.support_max - inner.support[0]

    def powers_of(e: int) -> int:  # a bound on the support size of inner^e
        return min(e * span + 1, comb(e + s - 1, s - 1))

    values = outer.support[::-1]
    gaps = [v - after for v, after in zip(values, values[1:] + (0,))]
    plan = [[b for b in range(g.bit_length()) if g >> b & 1] for g in gaps]
    bounds = [powers_of(1 << b) for b in range(max(gaps).bit_length())]
    work, top, e = sum(n * n for n in bounds[:-1]), powers_of(outer.support_max), 0
    for t, bits in enumerate(plan, 1):
        for b in bits:
            work += min(t * top, e * inner.support_max + 2) * bounds[b]
            e += 1 << b
    require_enumerable(work, "composition products")
    squares = [(inner.values, inner.probs)]
    for _ in bounds[1:]:
        squares.append(_times(squares[-1], squares[-1]))
    powers, coeffs = np.zeros(0, dtype=np.int64), np.zeros(0)
    for (_, mass), bits in zip(reversed(outer.items), plan):
        powers, coeffs = np.concatenate(([0], powers)), np.concatenate(([mass], coeffs))
        for b in bits:
            powers, coeffs = _times((powers, coeffs), squares[b])
    powers, coeffs = _merge(powers, coeffs)
    return Pmf.from_pairs(zip(powers.tolist(), coeffs.tolist()), tol=DERIVED_MASS_TOL)


@_per_laws
def child_count_pmf(params: ModelParams) -> Pmf:
    """Law of the number of children of a non-root vertex, as a Pmf.

    The vertex sits in one community already; it joins extra communities per
    the size-biased membership law, and each contributes an independent
    size-biased count of further members.
    """
    return pgf_compose(params.extra_communities, params.extra_members)

"""Numeric checks for the tail bounds and domination claims the analysis rests on.

Right-hand sides are evaluated exactly as stated.  Left-hand sides are either
exact (pmf summation, small enumerations) or empirical frequencies with a
4-standard-error confidence radius.  An exact comparison may FAIL outright; a
statistical one may FAIL only when the lower confidence bound clears the RHS,
and is INCONCLUSIVE whenever the RHS is vacuous (>= 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .combinatorics import binomial_pmf
from .core import DeckSpec
from .exact import enumerable_specs, first_third_distribution
from .montecarlo import _blocks, deck_chunks, rng_stream
from .strategies import StrategyId, StrategySpec

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

CONFIDENCE_MULTIPLIER = 4.0
_BOUNDS_TAG = 2
_SIM_BLOCK = 2048


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality: parameters, both sides, and a verdict."""

    bound: str
    params: tuple[tuple[str, float | int | str], ...]
    rhs: float | None
    lhs: float
    lhs_radius: float
    verdict: str
    notes: str = ""


def _exact_verdict(lhs: float, rhs: float, hypothesis_ok: bool, slack: float = 0.0) -> str:
    if not hypothesis_ok:
        return INCONCLUSIVE
    return PASS if lhs <= rhs + slack else FAIL


def _statistical_verdict(lhs: float, radius: float, rhs: float) -> str:
    if rhs >= 1.0:
        return INCONCLUSIVE
    return FAIL if lhs - radius > rhs else PASS


def _proportion_radius(freq: float, trials: int) -> float:
    return CONFIDENCE_MULTIPLIER * math.sqrt(freq * (1.0 - freq) / trials)


# ===== maximal inequality for adaptive walks =====


def union_bound_rhs(
    c: float, c_prime: float, lam: float, p: float, k0: int, k1: int
) -> float:
    """(8 c' k1)/(lam k0) * exp(-c lam^3 p k0 / 256)."""
    if c <= 0 or c_prime <= 0:
        raise ValueError("c and c_prime must be positive")
    if lam <= 0:
        raise ValueError("lam must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if not k0 <= k1:
        raise ValueError("k0 must not exceed k1")
    if k0 < 2.0 / lam:
        raise ValueError("k0 must be at least 2/lam")
    return (8.0 * c_prime * k1) / (lam * k0) * math.exp(-c * lam**3 * p * k0 / 256.0)


def empirical_maximal(
    p: float, lam: float, k0: int, k1: int, trials: int, seed: int
) -> BoundReport:
    """Simulated P[exists k in [k0, k1]: Z_k > lam*p*k] for the centered
    walk Z_k = (successes among the first k Bernoulli(p) trials) - p*k,
    against the union bound with c = 1/2, c' = 1."""
    if trials < 1:
        raise ValueError("trials must be positive")
    rhs = union_bound_rhs(0.5, 1.0, lam, p, k0, k1)
    ks = np.arange(k0, k1 + 1, dtype=np.float64)
    cutoff = (1.0 + lam) * p * ks
    hits = 0
    for block, rows in _blocks(trials, _SIM_BLOCK):
        draws = rng_stream(seed, _BOUNDS_TAG, block).random((rows, k1)) < p
        sums = draws.cumsum(axis=1)[:, k0 - 1 :]
        hits += int((sums > cutoff).any(axis=1).sum())
    lhs = hits / trials
    radius = _proportion_radius(lhs, trials)
    return BoundReport(
        bound="maximal-walk",
        params=(
            ("p", p),
            ("lam", lam),
            ("k0", k0),
            ("k1", k1),
            ("trials", trials),
            ("seed", seed),
            ("confidence_multiplier", CONFIDENCE_MULTIPLIER),
        ),
        rhs=rhs,
        lhs=lhs,
        lhs_radius=radius,
        verdict=_statistical_verdict(lhs, radius, rhs),
        notes="binomial walk; c=1/2, c_prime=1",
    )


# ===== hypergeometric tails =====


def hyp_single_tail_exact(population: int, good: int, draws: int, lam: float) -> Fraction:
    """Exact P[S_draws > (1+lam) * draws * good / population].

    With lam = p/q exactly, the smallest count past the threshold is
    floor((q + p) * draws * good / (q * population)) + 1, and the tail sums
    the integers C(draws, k) * C(population - draws, good - k) before one
    division by C(population, good).
    """
    p, q = Fraction(lam).as_integer_ratio()
    k_min = max((q + p) * draws * good // (q * population) + 1, 0)
    tail = sum(
        math.comb(draws, k) * math.comb(population - draws, good - k)
        for k in range(k_min, min(draws, good) + 1)
    )
    return Fraction(tail, math.comb(population, good))


def hyp_tail_report(
    population: int,
    good: int,
    draws: int,
    lam: float,
    mode: str = "single",
    window: tuple[int, int] | None = None,
    trials: int = 10_000,
    seed: int = 0,
) -> BoundReport:
    """Tail of the good-card count among ordered draws without replacement.

    single: exact LHS vs 3*exp(-lam^2*b*m/2N) at b = draws.
    maximal: simulated P[exists b in window: S_b > (1+lam)*b*m/N] vs
    (24*b1)/(lam*b0) * exp(-lam^3*b0*m/512N).

    The population >= good^2 + good hypothesis is reported; reports that
    violate it never PASS or FAIL, only INCONCLUSIVE.
    """
    if population < 1 or not 0 <= good <= population:
        raise ValueError("need 0 <= good <= population with population >= 1")
    if lam <= 0:
        raise ValueError("lam must be positive")
    hypothesis_ok = population >= good * good + good
    notes = "" if hypothesis_ok else "hypothesis population >= good^2+good violated; "
    if mode == "single":
        if not 0 <= draws <= population:
            raise ValueError("draws must lie in 0..population")
        lhs_exact = hyp_single_tail_exact(population, good, draws, lam)
        rhs = 3.0 * math.exp(-(lam**2) * draws * good / (2.0 * population))
        return BoundReport(
            bound="hyp-tail-single",
            params=(
                ("population", population),
                ("good", good),
                ("draws", draws),
                ("lam", lam),
            ),
            rhs=rhs,
            lhs=float(lhs_exact),
            lhs_radius=0.0,
            verdict=_exact_verdict(float(lhs_exact), rhs, hypothesis_ok, slack=1e-12),
            notes=notes + f"exact lhs {lhs_exact.numerator}/{lhs_exact.denominator}",
        )
    if mode != "maximal":
        raise ValueError("mode must be 'single' or 'maximal'")
    if window is None:
        raise ValueError("maximal mode needs a (b0, b1) window")
    b0, b1 = window
    if not b0 <= b1 <= population:
        raise ValueError("need b0 <= b1 <= population")
    if trials < 1:
        raise ValueError("trials must be positive")
    # same union bound with c=1/2 (sign taken positive) and c_prime=3
    rhs = union_bound_rhs(0.5, 3.0, lam, good / population, b0, b1)
    deck = np.zeros(population, dtype=np.int8)
    deck[:good] = 1
    bs = np.arange(b0, b1 + 1, dtype=np.float64)
    cutoff = (1.0 + lam) * bs * good / population
    hits = 0
    for decks in deck_chunks(deck, _blocks(trials, _SIM_BLOCK), seed, _BOUNDS_TAG):
        sums = decks.cumsum(axis=1)[:, b0 - 1 : b1]
        hits += int((sums > cutoff).any(axis=1).sum())
    lhs = hits / trials
    radius = _proportion_radius(lhs, trials)
    verdict = _statistical_verdict(lhs, radius, rhs) if hypothesis_ok else INCONCLUSIVE
    return BoundReport(
        bound="hyp-tail-maximal",
        params=(
            ("population", population),
            ("good", good),
            ("b0", b0),
            ("b1", b1),
            ("lam", lam),
            ("trials", trials),
            ("seed", seed),
            ("confidence_multiplier", CONFIDENCE_MULTIPLIER),
        ),
        rhs=rhs,
        lhs=lhs,
        lhs_radius=radius,
        verdict=verdict,
        notes=notes + "c=1/2 (sign taken positive), c_prime=3",
    )


def single_tail_grid(max_population: int = 60) -> list[BoundReport]:
    """Every single-draw tail report with population <= max_population that
    meets the population >= good^2+good hypothesis, at lam 0.25, 0.5, 1 and 2."""
    reports = []
    for population in range(1, max_population + 1):
        good = 1
        while good * good + good <= population:
            for draws in range(population + 1):
                for lam in (0.25, 0.5, 1.0, 2.0):
                    reports.append(hyp_tail_report(population, good, draws, lam))
            good += 1
    return reports


# ===== exact stochastic dominance =====


@dataclass(frozen=True)
class DominanceResult:
    dominates: bool
    witness: int | None
    upper_survival: Fraction | None
    lower_survival: Fraction | None


def _validate_pmf(pmf: Mapping[int, Fraction], name: str) -> None:
    if any(v < 0 for v in pmf.values()):
        raise ValueError(f"{name} has a negative mass")
    if sum(pmf.values(), Fraction(0)) != 1:
        raise ValueError(f"{name} does not sum to 1")


def check_dominance(
    upper: Mapping[int, Fraction], lower: Mapping[int, Fraction]
) -> DominanceResult:
    """Exact test that upper >= lower in the survival order:
    P[upper >= x] >= P[lower >= x] for every x."""
    _validate_pmf(upper, "upper pmf")
    _validate_pmf(lower, "lower pmf")
    support = sorted(set(upper) | set(lower), reverse=True)
    up_surv = Fraction(0)
    low_surv = Fraction(0)
    for x in support:
        up_surv += upper.get(x, Fraction(0))
        low_surv += lower.get(x, Fraction(0))
        if up_surv < low_surv:
            return DominanceResult(False, x, up_surv, low_surv)
    return DominanceResult(True, None, None, None)


def binomial_pmf_map(trials: int, p: Fraction) -> dict[int, Fraction]:
    return {k: binomial_pmf(trials, p, k) for k in range(trials + 1)}


# ===== first-third score domination =====


@dataclass(frozen=True)
class DominanceReport:
    spec: DeckSpec
    strategy: str
    prefix_length: int
    result: DominanceResult


def first_third_pmf(spec: DeckSpec, strategy: StrategySpec) -> dict[int, Fraction]:
    """Exact pmf of correct guesses over the first floor(mn/3) draws.

    Deterministic strategies are enumerated against every deck.  The uniform
    random guesser never looks at feedback, so its hits are iid with chance
    1/n per draw regardless of the deck: Binomial(floor(mn/3), 1/n), exactly.
    """
    prefix = spec.total // 3
    if strategy.id is StrategyId.PARTIAL_UNIFORM:
        return binomial_pmf_map(prefix, Fraction(1, spec.num_types))
    return first_third_distribution(spec, strategy)


def first_third_dominance_reports(size_limit: int = 10**4) -> list[DominanceReport]:
    """Check Binomial(floor(mn/3), 3/n) >= first-third score for the whole
    strategy zoo on every enumerable spec with at least three types."""
    out = []
    for spec in enumerable_specs(size_limit):
        if spec.num_types < 3:
            continue
        prefix = spec.total // 3
        envelope = binomial_pmf_map(prefix, Fraction(3, spec.num_types))
        for sid in StrategyId:
            sspec = StrategySpec(sid)
            result = check_dominance(envelope, first_third_pmf(spec, sspec))
            out.append(DominanceReport(spec, sspec.label(), prefix, result))
    return out

"""Numeric checks for the tail bounds and domination claims the analysis rests on.

Right-hand sides are evaluated exactly as stated.  Left-hand sides are either
exact (pmf summation, small enumerations) or empirical frequencies with a
4-standard-error confidence radius.  An exact comparison may FAIL outright; a
statistical one may FAIL only when the lower confidence bound clears the RHS,
and is INCONCLUSIVE whenever the RHS is vacuous (>= 1).  Dominance checks
compare whole distributions exactly, so their reports carry no sides.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple

from .core import DeckSpec
from .exact import DEFAULT_STATE_LIMIT, enumerable_specs, first_third_distribution
from .montecarlo import _blocks, deck_chunks, rng_stream
from .strategies import StrategyId, StrategySpec

if TYPE_CHECKING:  # annotations only; see the package docstring
    import numpy as np

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

CONFIDENCE_MULTIPLIER = 4.0
_BOUNDS_TAG = 2
_SIM_BLOCK = 2048
# Rows per slice of walk draws: each draw is a float64 per step.
_WALK_SLICE = 128


class BoundReport(NamedTuple):
    """One evaluated inequality: parameters, both sides, and a verdict.
    A comparison of whole distributions has no single pair of sides, so
    its lhs, lhs_radius and rhs are None.  A tuple, since the tail grid
    builds tens of thousands of them."""

    bound: str
    params: tuple[tuple[str, float | int | str], ...]
    rhs: float | None
    lhs: float | None
    lhs_radius: float | None
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


def _window_frequency(blocks, first: int, cutoff) -> tuple[float, float]:
    """Over ``blocks`` of 0/1 rows, the share of rows whose running sum
    exceeds the cutoff somewhere in the window: the sum of a row's first
    ``first + j`` elements is compared with ``cutoff[j]``.  Returns the
    share and its 4-standard-error radius."""
    import numpy as np

    def window_hits(rows: np.ndarray) -> tuple[int, int]:
        # int32 sums: a row holds far fewer than 2^31 elements
        sums = rows.cumsum(axis=1, dtype=np.int32)[:, first - 1 : first - 1 + len(cutoff)]
        return int((sums > cutoff).any(axis=1).sum()), len(rows)

    hits, trials = map(sum, zip(*map(window_hits, blocks)))
    freq = hits / trials
    return freq, CONFIDENCE_MULTIPLIER * math.sqrt(freq * (1.0 - freq) / trials)


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


def _walks(p: float, steps: int, trials: int, seed: int) -> Iterator[np.ndarray]:
    """``trials`` rows of ``steps`` Bernoulli(p) draws as bool arrays.
    Block b of ``_SIM_BLOCK`` rows draws its rows in order from
    ``rng_stream(seed, _BOUNDS_TAG, b)``, in slices of at most
    ``_WALK_SLICE`` rows; ``random`` fills rows in order, so the slices join
    into the rows of one whole-block draw, and no block's floats are held
    at once."""
    for block, rows in _blocks(trials, _SIM_BLOCK):
        rng = rng_stream(seed, _BOUNDS_TAG, block)
        for _, size in _blocks(rows, _WALK_SLICE):
            yield rng.random((size, steps)) < p


def empirical_maximal(
    p: float, lam: float, k0: int, k1: int, trials: int, seed: int
) -> BoundReport:
    """Simulated P[exists k in [k0, k1]: Z_k > lam*p*k] for the centered
    walk Z_k = (successes among the first k Bernoulli(p) trials) - p*k,
    against the union bound with c = 1/2, c' = 1."""
    import numpy as np

    rhs = union_bound_rhs(0.5, 1.0, lam, p, k0, k1)
    ks = np.arange(k0, k1 + 1, dtype=np.float64)
    cutoff = (1.0 + lam) * p * ks
    lhs, radius = _window_frequency(_walks(p, k1, trials, seed), k0, cutoff)
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


def _single_tails(population: int, good: int, draws: int, ratios) -> Iterator[tuple[int, int]]:
    """Exact P[S_draws > (1+lam) * draws * good / population] as a reduced
    (numerator, denominator) pair for each lam = p/q in ``ratios``.

    The smallest count past the threshold is
    floor((q + p) * draws * good / (q * population)) + 1, and each tail is a
    suffix sum of the integers C(draws, k) * C(population - draws, good - k),
    computed once for every lam, over C(population, good).
    """
    terms = [
        math.comb(draws, k) * math.comb(population - draws, good - k)
        for k in range(min(draws, good) + 1)
    ]
    total = math.comb(population, good)
    for p, q in ratios:
        tail = sum(terms[max((q + p) * draws * good // (q * population) + 1, 0) :])
        common = math.gcd(tail, total)
        yield tail // common, total // common


def _hypothesis(population: int, good: int) -> tuple[bool, str]:
    """Whether population >= good^2+good holds, and the note that starts a
    report's notes when it does not."""
    if population >= good * good + good:
        return True, ""
    return False, "hypothesis population >= good^2+good violated; "


def _ratio(lam: float) -> tuple[int, int]:
    return Fraction(lam).as_integer_ratio()


def _single_tail_reports(
    population: int, good: int, draws: int, lams, ratios
) -> Iterator[BoundReport]:
    """The single-draw tail report at each lam, whose p/q is in ``ratios``:
    exact LHS vs 3*exp(-lam^2*b*m/2N) at b = draws."""
    hypothesis_ok, notes = _hypothesis(population, good)
    tails = _single_tails(population, good, draws, ratios)
    params = (("population", population), ("good", good), ("draws", draws))
    notes += "exact lhs "
    for lam, (num, den) in zip(lams, tails):
        lhs = num / den
        rhs = 3.0 * math.exp(-(lam**2) * draws * good / (2.0 * population))
        yield BoundReport(
            "hyp-tail-single",
            params + (("lam", lam),),
            rhs,
            lhs,
            0.0,
            _exact_verdict(lhs, rhs, hypothesis_ok, slack=1e-12),
            f"{notes}{num}/{den}",
        )


def hyp_tail_report(
    population: int, good: int, lam: float, window: tuple[int, int], trials: int, seed: int
) -> BoundReport:
    """Maximal tail of the good-card count S_b among ordered draws without
    replacement: simulated P[exists b in window: S_b > (1+lam)*b*m/N] vs
    (24*b1)/(lam*b0) * exp(-lam^3*b0*m/512N), at m = good, N = population.

    The population >= good^2 + good hypothesis is reported; reports that
    violate it never PASS or FAIL, only INCONCLUSIVE.
    """
    if population < 1 or not 0 <= good <= population:
        raise ValueError("need 0 <= good <= population with population >= 1")
    if lam <= 0:
        raise ValueError("lam must be positive")
    b0, b1 = window
    if not b0 <= b1 <= population:
        raise ValueError("need b0 <= b1 <= population")
    import numpy as np

    hypothesis_ok, notes = _hypothesis(population, good)
    # same union bound with c=1/2 (sign taken positive) and c_prime=3
    rhs = union_bound_rhs(0.5, 3.0, lam, good / population, b0, b1)
    deck = np.zeros(population, dtype=np.int8)
    deck[:good] = 1
    bs = np.arange(b0, b1 + 1, dtype=np.float64)
    cutoff = (1.0 + lam) * bs * good / population
    decks = deck_chunks(deck, _blocks(trials, _SIM_BLOCK), seed, _BOUNDS_TAG)
    lhs, radius = _window_frequency(decks, b0, cutoff)
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


_GRID_LAMS = (0.25, 0.5, 1.0, 2.0)


def _grid_goods(population: int) -> int:
    """How many good >= 1 meet population >= good^2+good."""
    return (math.isqrt(4 * population + 1) - 1) // 2


class _TailGrid:
    """single_tail_grid's reports, built one (population, good, draws) at a
    time as they are iterated.  len() counts them without building any, as
    perfbench's tracer counts a grid's reports by len()."""

    def __init__(self, max_population: int):
        self.max_population = max_population
        self.size = 0
        for population in range(1, max_population + 1):
            self.size += len(_GRID_LAMS) * (population + 1) * _grid_goods(population)
            if self.size > DEFAULT_STATE_LIMIT:
                raise RuntimeError(
                    f"--max-total {max_population} needs more than {DEFAULT_STATE_LIMIT} tail"
                    f" reports: {self.size} with populations up to {population}"
                )

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[BoundReport]:
        ratios = [_ratio(lam) for lam in _GRID_LAMS]
        for population in range(1, self.max_population + 1):
            for good in range(1, _grid_goods(population) + 1):
                for draws in range(population + 1):
                    yield from _single_tail_reports(population, good, draws, _GRID_LAMS, ratios)


def single_tail_grid(max_population: int = 60) -> _TailGrid:
    """Every single-draw tail report with population <= max_population that
    meets the population >= good^2+good hypothesis, at lam 0.25, 0.5, 1 and 2,
    in order of population, good, draws and lam.  The reports are built as
    the grid is iterated, so a pass over it holds one (population, good,
    draws) at a time.  Raises RuntimeError, before any report is built, when
    the grid holds more than ``DEFAULT_STATE_LIMIT`` reports."""
    return _TailGrid(max_population)


# ===== exact stochastic dominance =====


def _validate_pmf(pmf: Mapping[int, Fraction], name: str) -> None:
    if any(v < 0 for v in pmf.values()):
        raise ValueError(f"{name} has a negative mass")
    if sum(pmf.values(), Fraction(0)) != 1:
        raise ValueError(f"{name} does not sum to 1")


def check_dominance(
    upper: Mapping[int, Fraction], lower: Mapping[int, Fraction]
) -> int | None:
    """Exact test that upper >= lower in the survival order:
    P[upper >= x] >= P[lower >= x] for every x.  Returns None when it
    holds, else the largest x where it fails."""
    _validate_pmf(upper, "upper pmf")
    _validate_pmf(lower, "lower pmf")
    support = sorted(set(upper) | set(lower), reverse=True)
    up_surv = Fraction(0)
    low_surv = Fraction(0)
    for x in support:
        up_surv += upper.get(x, Fraction(0))
        low_surv += lower.get(x, Fraction(0))
        if up_surv < low_surv:
            return x
    return None


def binomial_pmf_map(trials: int, p: Fraction) -> dict[int, Fraction]:
    """Exact Binomial(trials, p) pmf for rational p, as {k: mass} over k = 0..trials."""
    p = Fraction(p)
    if trials < 0 or not 0 <= p <= 1:
        raise ValueError("need trials >= 0 and p in [0, 1]")
    return {k: math.comb(trials, k) * p**k * (1 - p) ** (trials - k) for k in range(trials + 1)}


# ===== first-third score domination =====


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


def first_third_dominance_reports(size_limit: int = 10**4) -> list[BoundReport]:
    """Check Binomial(floor(mn/3), 3/n) >= first-third score for the whole
    strategy zoo on every enumerable spec with at least three types.  A
    report that FAILs notes the largest x where the envelope's survival
    P[>= x] falls below the score's."""
    out = []
    for spec in enumerable_specs(size_limit):
        if spec.num_types < 3:
            continue
        prefix = spec.total // 3
        envelope = binomial_pmf_map(prefix, Fraction(3, spec.num_types))
        for sid in StrategyId:
            sspec = StrategySpec(sid)
            witness = check_dominance(envelope, first_third_pmf(spec, sspec))
            out.append(
                BoundReport(
                    bound="first-third-dominance",
                    params=(
                        ("m", spec.multiplicity),
                        ("n", spec.num_types),
                        ("strategy", sspec.label()),
                        ("prefix", prefix),
                    ),
                    rhs=None,
                    lhs=None,
                    lhs_radius=None,
                    verdict=PASS if witness is None else FAIL,
                    notes="" if witness is None else f"witness {witness}",
                )
            )
    return out

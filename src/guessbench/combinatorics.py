"""Exact counting for constrained multiset arrangements.

The central object is a constraint state (remaining, forbidden): words use
``remaining[i]`` copies of type ``i+1``, and the first ``forbidden[0]``
positions must avoid type 1, the next ``forbidden[1]`` positions type 2, and
so on.  Which positions carry which single-type ban never matters for counts,
only the two vectors do, so leading blocks are the canonical layout.

Counting is by inclusion-exclusion over violated banned positions.  Choosing
k_i banned positions of type i to violate contributes
(-1)^{|k|} * prod C(a_i, k_i) * (T - |k|)! / prod (m_i - k_i)!  with
T = sum(m).  Grouping terms by |k| turns each type into an integer polynomial
sum_k (-1)^k C(a_i, k) m_i!/(m_i-k)! z^k; the count is then
sum_K [z^K](prod poly_i) * (T - K)! / prod m_i!, all in exact integers.
``next_card_counts`` builds that product once per state and swaps one factor
per type to count every state with one card set aside.

Everything here returns ints or fractions.Fraction, never floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import DeckSpec


@dataclass(frozen=True)
class ConstraintState:
    """Remaining copies per type plus per-type counts of banned positions.

    Requires sum(forbidden) < sum(remaining), so at least one unconstrained
    slot remains, and forbidden[i] <= total - remaining[i] per type.  The
    per-type cap is exactly Hall's condition here (a banned slot for type i
    must hold one of the total - remaining[i] other cards; slots banning
    different types can always share), so valid states have at least one
    arrangement.  Callers that need the fully covered boundary case (for the
    numerators of last-card fractions) go through the module internals.
    """

    remaining: tuple[int, ...]
    forbidden: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.remaining) != len(self.forbidden) or not self.remaining:
            raise ValueError("remaining and forbidden must be equal-length, nonempty")
        if any(x < 0 for x in self.remaining) or any(x < 0 for x in self.forbidden):
            raise ValueError("counts must be nonnegative")
        total = sum(self.remaining)
        if sum(self.forbidden) >= total:
            raise ValueError("need sum(forbidden) < sum(remaining)")
        for m_i, a_i in zip(self.remaining, self.forbidden):
            if a_i > total - m_i:
                raise ValueError("a type has more banned slots than non-matching cards")

    @property
    def num_types(self) -> int:
        return len(self.remaining)

    @property
    def total(self) -> int:
        return sum(self.remaining)


def _convolve(p: list[int], q: tuple[int, ...]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


@lru_cache(maxsize=None)
def _factor(m_i: int, a_i: int) -> tuple[int, ...]:
    """One type's inclusion-exclusion polynomial F(m, a):
    [z^k] = (-1)^k C(a, k) m!/(m-k)! for k = 0..min(a, m).  Its constant
    term is 1."""
    return tuple(
        (-1) ** k * math.comb(a_i, k) * math.perm(m_i, k) for k in range(min(a_i, m_i) + 1)
    )


def _product(remaining: tuple[int, ...], forbidden: tuple[int, ...]) -> list[int]:
    """prod_i F(m_i, a_i), skipping the factors that are 1."""
    poly = [1]
    for m_i, a_i in zip(remaining, forbidden):
        if m_i and a_i:
            poly = _convolve(poly, _factor(m_i, a_i))
    return poly


def _divide(p: list[int], f: tuple[int, ...]) -> list[int]:
    """p / f for an f with constant term 1 that divides p exactly."""
    rest = list(p)
    size = len(p) - len(f) + 1
    for k in range(size):
        coeff = rest[k]
        if coeff:
            for j in range(1, len(f)):
                rest[k + j] -= coeff * f[j]
    return rest[:size]


def _arrangements(poly: list[int], total: int, den: int) -> int:
    """sum_K [z^K]poly * (total - K)! / den, checked to be a count.

    Horner form: with d = deg poly, the sum is (total - d)! times the
    nested ((c_0 * total + c_1) * (total - 1) + c_2) ... + c_d.
    """
    num = 0
    for k, coeff in enumerate(poly):
        num = num * (total - k + 1) + coeff
    num *= math.factorial(total - len(poly) + 1)
    count, rem = divmod(num, den)
    if rem or count < 0:
        raise AssertionError(f"inclusion-exclusion produced a non-count: {num}/{den}")
    return count


@lru_cache(maxsize=None)
def _count(remaining: tuple[int, ...], forbidden: tuple[int, ...]) -> int:
    """Inclusion-exclusion count; allows sum(forbidden) == sum(remaining)."""
    den = math.prod(math.factorial(m_i) for m_i in remaining)
    return _arrangements(_product(remaining, forbidden), sum(remaining), den)


# A state as one (remaining, forbidden) pair per type; sorted, the
# canonical pair multiset.
PairState = tuple[tuple[int, int], ...]


def next_card_counts(pairs: PairState) -> dict[tuple[int, int], int]:
    """N(s - e_i) for the state s with pair (m_i, a_i) for type i, by pair:
    the count of the state with one copy of a type with that pair set aside,
    i.e. ``_count`` of the reduced state (0 where no copy is left).  Types
    with equal pairs share an entry, keyed by the caller's pair tuple.
    Needs sum(a) < sum(m).

    The product of the per-type factors is built once; each distinct pair
    swaps its own factor F(m_i, a_i) for F(m_i - 1, a_i), so a state with d
    distinct pairs costs one product and d exact divisions.  The banned
    slots lead, so every word of the state ends in an unbanned slot, and
    dropping that last card leaves a word of exactly one reduced state: the
    counts, taken once per type, sum to ``_count(remaining, forbidden)``.
    """
    remaining, forbidden = zip(*pairs)
    total = sum(remaining)
    if sum(forbidden) >= total:
        raise ValueError("need sum(forbidden) < sum(remaining)")
    product = _product(remaining, forbidden)
    den = math.prod(math.factorial(m_i) for m_i in remaining)
    by_pair: dict[tuple[int, int], int] = {}
    for pair in pairs:
        if pair in by_pair:
            continue
        m_i, a_i = pair
        if m_i == 0:
            by_pair[pair] = 0
            continue
        poly = product
        if a_i:
            poly = _convolve(_divide(product, _factor(m_i, a_i)), _factor(m_i - 1, a_i))
        # the reduced state's denominator is den / m_i
        by_pair[pair] = _arrangements(poly, total - 1, den // m_i)
    return by_pair


def last_card_fraction(state: ConstraintState, card: int) -> Fraction:
    """Fraction of satisfying words whose final letter is ``card``.

    Dropping a final letter ``card`` leaves the banned blocks untouched, so
    the numerator is the count with one fewer copy of ``card``; zero when no
    copies remain.
    """
    if not 1 <= card <= state.num_types:
        raise ValueError(f"card {card} outside 1..{state.num_types}")
    i = card - 1
    if state.remaining[i] == 0:
        return Fraction(0)
    reduced = state.remaining[:i] + (state.remaining[i] - 1,) + state.remaining[i + 1 :]
    return Fraction(_count(reduced, state.forbidden), _count(state.remaining, state.forbidden))


def shuffle_count(spec: DeckSpec) -> int:
    """Number of distinct shuffles: (mn)! / (m!)^n."""
    return math.factorial(spec.total) // math.factorial(spec.multiplicity) ** spec.num_types


def binomial_pmf(trials: int, p: Fraction, k: int) -> Fraction:
    """Exact Binomial(trials, p) mass at k for rational p."""
    p = Fraction(p)
    if trials < 0 or not 0 <= p <= 1:
        raise ValueError("need trials >= 0 and p in [0, 1]")
    if k < 0 or k > trials:
        return Fraction(0)
    return math.comb(trials, k) * p**k * (1 - p) ** (trials - k)

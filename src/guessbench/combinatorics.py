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
F(m_i, a_i) = sum_k (-1)^k C(a_i, k) m_i!/(m_i-k)! z^k; the count is then
sum_K [z^K](prod F_i) * (T - K)! / prod m_i!, all in exact integers.

Each polynomial is held as one Python int (Kronecker substitution): the
coefficient sizes |[z^k]| are its base-2^B digits, i.e. F(-z) evaluated at
z = 2^B.  Every F(-z) has nonnegative coefficients, so a product of
factors does too, as does that product with one factor divided out.  With
B chosen per state to exceed every such coefficient no digit carries: a
product costs one multiplication per factor, and dividing a factor out one
exact ``//``.
``next_card_counts`` builds the product once per state and swaps one factor
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


@lru_cache(maxsize=None)
def _factor(m_i: int, a_i: int) -> tuple[int, ...]:
    """The sizes of one type's inclusion-exclusion coefficients:
    |[z^k] F(m, a)| = C(a, k) m!/(m-k)! for k = 0..min(a, m); the sign of
    [z^k] F is (-1)^k, and the constant term is 1."""
    return tuple(math.comb(a_i, k) * math.perm(m_i, k) for k in range(min(a_i, m_i) + 1))


def _pack(coeffs: tuple[int, ...], shift: int) -> int:
    """sum_k coeffs[k] * 2^(shift * k)."""
    packed = 0
    for coeff in reversed(coeffs):
        packed = (packed << shift) | coeff
    return packed


def _packing(
    remaining: tuple[int, ...], forbidden: tuple[int, ...]
) -> tuple[int, dict[tuple[int, int], int], int]:
    """The state's digit width B, each nontrivial pair's packed factor, and
    the packed product over the types.

    The coefficients of the product, of the product with F(m_i, a_i)
    divided out and of that times F(m_i - 1, a_i) are all at most
    prod_i sum_k |[z^k] F(m_i, a_i)|, since F(m_i - 1, a_i) has no larger
    coefficients than F(m_i, a_i).  B is the bit length of that bound plus
    one, so every digit stays below 2^(B - 1).
    """
    factors = [pair for pair in zip(remaining, forbidden) if pair[0] and pair[1]]
    shift = math.prod(sum(_factor(*pair)) for pair in factors).bit_length() + 1
    packs = {pair: _pack(_factor(*pair), shift) for pair in set(factors)}
    return shift, packs, math.prod(packs[pair] for pair in factors)


def _arrangements(packed: int, shift: int, total: int, den: int) -> int:
    """sum_K (-1)^K d_K * (total - K)! / den for the base-2^shift digits
    d_K of ``packed``, checked to be a count.

    Horner form, digits low first: with D the degree, the sum is
    (total - D)! times ((d_0 * total - d_1) * (total - 1) + d_2) ... ± d_D;
    the loop flips the sign at every step and restores it once at the end.
    """
    mask = (1 << shift) - 1
    num = 0
    low = total + 1
    while packed:
        num = (packed & mask) - num * low
        packed >>= shift
        low -= 1
    if (total - low) & 1:
        num = -num
    num *= math.factorial(low)
    count, rem = divmod(num, den)
    if rem or count < 0:
        raise AssertionError(f"inclusion-exclusion produced a non-count: {num}/{den}")
    return count


@lru_cache(maxsize=None)
def _count(remaining: tuple[int, ...], forbidden: tuple[int, ...]) -> int:
    """Inclusion-exclusion count; allows sum(forbidden) == sum(remaining)."""
    shift, _, product = _packing(remaining, forbidden)
    den = math.prod(map(math.factorial, remaining))
    return _arrangements(product, shift, sum(remaining), den)


# A state as one (remaining, forbidden) pair per type; sorted, the
# canonical pair multiset.
PairState = tuple[tuple[int, int], ...]


def _state_layout(spec: DeckSpec) -> tuple[int, int, list[int], list[int], int]:
    """(width, base, places, drops, root): the integers that write a
    partial-feedback state on ``spec`` as one key, for the exact DP and
    partial-mle alike.

    Type i's pair (m_i, a_i) is its code m_i * width + a_i, with
    width = mn + 1, so codes sort as their pairs do.  A state's key has
    type i's code as its digit in base (m + 1)(mn + 1) at place i, worth
    places[i]: partial-mle keys labelled states, the exact DP keys the
    sorted codes.  A hit on type i lowers the key by
    drops[i] = width * places[i] and a miss raises it by places[i].
    ``root`` is the key of the full deck, (m, 0) for every type.
    """
    m, n = spec.multiplicity, spec.num_types
    width = spec.total + 1
    base = (m + 1) * width
    places = [base**i for i in range(n)]
    drops = [width * place for place in places]
    return width, base, places, drops, m * width * sum(places)


def _state_codes(key: int, n: int, base: int) -> list[int]:
    """The ``n`` digits of ``key`` in ``base``, lowest place first: each
    type's code (see ``_state_layout``)."""
    codes = []
    for _ in range(n):
        key, code = divmod(key, base)
        codes.append(code)
    return codes


def next_card_counts(pairs: PairState) -> dict[tuple[int, int], int]:
    """N(s - e_i) for the state s with pair (m_i, a_i) for type i, by pair:
    the count of the state with one copy of a type with that pair set aside,
    i.e. ``_count`` of the reduced state (0 where no copy is left).  Types
    with equal pairs share an entry, keyed by the caller's pair tuple.
    Needs sum(a) < sum(m).

    The packed product of the per-type factors is built once; each
    distinct pair swaps its own factor F(m_i, a_i) for F(m_i - 1, a_i) by
    one exact integer division and one multiplication, so a state with d
    distinct pairs costs one product and d quotients.  The banned slots
    lead, so every word of the state ends in an unbanned slot, and dropping
    that last card leaves a word of exactly one reduced state: the counts,
    taken once per type, sum to ``_count(remaining, forbidden)``.
    """
    remaining, forbidden = zip(*pairs)
    total = sum(remaining)
    if sum(forbidden) >= total:
        raise ValueError("need sum(forbidden) < sum(remaining)")
    shift, packs, product = _packing(remaining, forbidden)
    den = math.prod(map(math.factorial, remaining))
    by_pair: dict[tuple[int, int], int] = {}
    for pair in pairs:
        if pair in by_pair:
            continue
        m_i, a_i = pair
        if m_i == 0:
            by_pair[pair] = 0
            continue
        packed = product
        if a_i:
            packed = product // packs[pair] * _pack(_factor(m_i - 1, a_i), shift)
        # the reduced state's denominator is den / m_i
        by_pair[pair] = _arrangements(packed, shift, total - 1, den // m_i)
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


def shuffle_count(spec: DeckSpec, limit: int | None = None) -> int | None:
    """Number of distinct shuffles, (mn)! / (m!)^n, or None once it passes
    ``limit``.

    The count is the product over t = 1..n-1 of C((t + 1)m, m), built one
    factor (tm + i) / i at a time for i = 1..m.  Each step is an exact
    division and at least doubles the count, so a refusal stops within
    log2(limit) + 2 steps however large the deck.
    """
    m = spec.multiplicity
    count = 1
    for t in range(1, spec.num_types):
        for i in range(1, m + 1):
            if limit is not None and count > limit:
                return None
            count = count * (t * m + i) // i
    return count if limit is None or count <= limit else None


def binomial_pmf(trials: int, p: Fraction, k: int) -> Fraction:
    """Exact Binomial(trials, p) mass at k for rational p."""
    p = Fraction(p)
    if trials < 0 or not 0 <= p <= 1:
        raise ValueError("need trials >= 0 and p in [0, 1]")
    if k < 0 or k > trials:
        return Fraction(0)
    return math.comb(trials, k) * p**k * (1 - p) ** (trials - k)

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from guessbench.bounds import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    binomial_pmf_map,
    check_dominance,
    empirical_maximal,
    first_third_dominance_reports,
    first_third_pmf,
    hyp_tail_report,
    single_tail_grid,
    union_bound_rhs,
    _ratio,
    _single_tail_reports,
    _single_tails,
    _walks,
)
from guessbench.core import DeckSpec
from guessbench.exact import first_third_distribution
from guessbench.montecarlo import rng_stream
from guessbench.strategies import StrategyId, StrategySpec
from oracles import (
    brute_binomial,
    brute_hypergeom,
    brute_uniform_prefix_hits,
    reference_hyp_single_tail_exact,
    replayed_decks,
)


def test_union_bound_rhs_golden():
    assert union_bound_rhs(1.0, 1.0, 1.0, 1.0, 16, 16) == pytest.approx(
        8 * math.exp(-1 / 16)
    )
    base = union_bound_rhs(0.5, 1.0, 1.0, 0.5, 16, 32)
    assert union_bound_rhs(0.5, 2.0, 1.0, 0.5, 16, 32) == pytest.approx(2 * base)
    assert union_bound_rhs(0.5, 1.0, 1.0, 0.5, 16, 64) == pytest.approx(2 * base)


def test_union_bound_rhs_preconditions():
    with pytest.raises(ValueError):
        union_bound_rhs(0.0, 1.0, 1.0, 0.5, 16, 32)
    with pytest.raises(ValueError):
        union_bound_rhs(0.5, -1.0, 1.0, 0.5, 16, 32)
    with pytest.raises(ValueError):
        union_bound_rhs(0.5, 1.0, 0.0, 0.5, 16, 32)
    with pytest.raises(ValueError):
        union_bound_rhs(0.5, 1.0, 1.0, 1.5, 16, 32)
    with pytest.raises(ValueError):
        union_bound_rhs(0.5, 1.0, 1.0, 0.5, 32, 16)
    # k0 below 2/lam
    with pytest.raises(ValueError):
        union_bound_rhs(0.5, 1.0, 0.1, 0.5, 16, 32)


def test_walk_spec_validation():
    # the walk's success probability and horizon are checked where they are read
    with pytest.raises(ValueError, match="p must lie in"):
        empirical_maximal(-0.1, 1.0, 16, 32, 100, 0)
    with pytest.raises(ValueError, match="p must lie in"):
        empirical_maximal(1.1, 1.0, 16, 32, 100, 0)
    with pytest.raises(ValueError, match="k0 must not exceed k1"):
        empirical_maximal(0.5, 1.0, 16, 8, 100, 0)


def test_empirical_maximal_degenerate_walks():
    # a zero-success walk never exceeds a positive cutoff
    report = empirical_maximal(0.0, 1.0, 16, 32, 500, 0)
    assert report.lhs == 0.0
    assert report.verdict == INCONCLUSIVE  # rhs blows past one at p = 0
    # huge lam: S_k > 4.5k is impossible and the rhs is tiny
    report = empirical_maximal(0.5, 8.0, 16, 64, 500, 0)
    assert report.lhs == 0.0
    assert report.rhs < 1
    assert report.verdict == PASS


def test_empirical_maximal_deterministic_and_bounded():
    a = empirical_maximal(0.5, 0.2, 16, 256, 3000, 9)
    b = empirical_maximal(0.5, 0.2, 16, 256, 3000, 9)
    assert a == b
    assert 0.0 < a.lhs <= 1.0
    assert a.lhs_radius > 0
    with pytest.raises(ValueError):
        empirical_maximal(0.5, 1.0, 16, 32, 0, 0)


def test_walks_join_into_whole_block_draws():
    # a full 2048-row block, then 1300 rows: 128-row slices and a 20
    p, steps, seed = 0.3, 40, 5
    sliced = list(_walks(p, steps, 2048 + 1300, seed))
    assert [len(rows) for rows in sliced] == [128] * 26 + [20]
    whole = [rng_stream(seed, 2, b).random((rows, steps)) < p for b, rows in ((0, 2048), (1, 1300))]
    assert np.array_equal(np.concatenate(sliced), np.concatenate(whole))


def single_tail(population, good, draws, lam):
    (tail,) = _single_tails(population, good, draws, [_ratio(lam)])
    return Fraction(*tail)


def single_tail_report(population, good, draws, lam):
    (report,) = _single_tail_reports(population, good, draws, [lam], [_ratio(lam)])
    return report


def test_hyp_single_tail_exact_golden():
    assert single_tail(20, 4, 5, 1.0) == Fraction(31, 969)
    assert single_tail(20, 4, 0, 1.0) == 0
    # drawing everything finds every good card, never more
    assert single_tail(20, 4, 20, 0.25) == 0


def test_hyp_single_tail_exact_matches_reference():
    # lam is the float's exact binary value.  That of 0.3 lies just below 3/10,
    # so at (13, 2, 5) the exact threshold lies just below 1 while the float
    # product (1 + 0.3) * 5 * 2 / 13 rounds to 1: only an exact floor gets k_min.
    for population in range(1, 41):
        for good in range(population + 1):
            for draws in range(population + 1):
                for lam in (0.1, 0.25, 0.3, 0.5, 1.0, 2.0, 3.7):
                    assert single_tail(
                        population, good, draws, lam
                    ) == reference_hyp_single_tail_exact(population, good, draws, lam)


def test_hyp_tail_report_single():
    report = single_tail_report(20, 4, 5, 1.0)
    assert report.bound == "hyp-tail-single"
    assert report.verdict == PASS
    assert report.lhs == pytest.approx(31 / 969)
    assert report.rhs == pytest.approx(3 * math.exp(-5 * 4 / 40))
    assert "31/969" in report.notes

    assert single_tail_report(20, 4, 0, 1.0).verdict == PASS
    assert single_tail_report(20, 4, 20, 0.25).verdict == PASS


def test_hyp_tail_report_hypothesis_violation():
    report = single_tail_report(5, 3, 2, 1.0)
    assert report.verdict == INCONCLUSIVE
    assert "violated" in report.notes
    report = hyp_tail_report(10, 3, 1.0, (4, 10), 200, 0)
    assert report.verdict == INCONCLUSIVE
    assert "violated" in report.notes


def test_hyp_tail_report_validation():
    with pytest.raises(ValueError, match="good <= population"):
        hyp_tail_report(10, 11, 1.0, (4, 10), 100, 0)
    with pytest.raises(ValueError, match="lam must be positive"):
        hyp_tail_report(10, 2, 0.0, (4, 10), 100, 0)
    with pytest.raises(ValueError, match="b1 <= population"):
        hyp_tail_report(10, 2, 1.0, (4, 12), 100, 0)
    with pytest.raises(ValueError, match="b0 <= b1"):
        hyp_tail_report(10, 2, 1.0, (8, 4), 100, 0)
    with pytest.raises(ValueError, match="trials must be positive"):
        hyp_tail_report(10, 2, 1.0, (4, 10), 0, 0)


def test_hyp_tail_report_maximal():
    a = hyp_tail_report(30, 4, 1.0, (8, 30), 2000, 1)
    b = hyp_tail_report(30, 4, 1.0, (8, 30), 2000, 1)
    assert a == b
    assert a.bound == "hyp-tail-maximal"
    assert 0.0 <= a.lhs <= 1.0
    # the provable constants leave the rhs above one at this scale
    assert a.rhs >= 1
    assert a.verdict == INCONCLUSIVE
    assert "c_prime=3" in a.notes
    assert dict(a.params)["b0"] == 8


def test_hyp_tail_report_maximal_matches_replayed_decks():
    # three 2048-row blocks on tag 2, the last cut short
    population, good, lam, (b0, b1) = 30, 4, 1.0, (8, 30)
    trials, seed = 5000, 3
    report = hyp_tail_report(population, good, lam, (b0, b1), trials, seed)
    deck = np.zeros(population, dtype=np.int8)
    deck[:good] = 1
    hits = 0
    for order in replayed_decks(deck, trials, seed, 2, 2048):
        drawn = np.cumsum(order)
        hits += any(drawn[b - 1] > (1 + lam) * b * good / population for b in range(b0, b1 + 1))
    assert report.lhs == hits / trials


def test_single_tail_grid_all_pass():
    grid = single_tail_grid(20)
    reports = list(grid)
    assert len(grid) == len(reports) > 400
    assert all(r.bound == "hyp-tail-single" for r in reports)
    assert all(r.verdict == PASS for r in reports)


def test_dominance_reflexive_and_monotone():
    pmf = binomial_pmf_map(6, Fraction(1, 3))
    assert check_dominance(pmf, pmf) is None

    low = binomial_pmf_map(10, Fraction(1, 4))
    high = binomial_pmf_map(10, Fraction(1, 2))
    assert check_dominance(high, low) is None
    witness = check_dominance(low, high)
    assert witness is not None

    def survival(pmf, x):
        return sum(mass for k, mass in pmf.items() if k >= x)

    # the largest x where the order fails
    assert survival(low, witness) < survival(high, witness)
    assert all(survival(low, x) >= survival(high, x) for x in range(witness + 1, 11))


def test_dominance_antisymmetry():
    pmfs = [
        binomial_pmf_map(5, Fraction(1, 3)),
        {k: brute_hypergeom(10, 4, 5, k) for k in range(5)},
        {0: Fraction(1, 2), 3: Fraction(1, 2)},
    ]
    for a, b in itertools.product(pmfs, repeat=2):
        if check_dominance(a, b) is None and check_dominance(b, a) is None:
            support = set(a) | set(b)
            assert all(
                a.get(k, Fraction(0)) == b.get(k, Fraction(0)) for k in support
            )


def test_dominance_transitive_chain():
    chain = [binomial_pmf_map(8, Fraction(i, 10)) for i in (2, 4, 7)]
    assert check_dominance(chain[1], chain[0]) is None
    assert check_dominance(chain[2], chain[1]) is None
    assert check_dominance(chain[2], chain[0]) is None


def test_dominance_validates_pmfs():
    good = binomial_pmf_map(3, Fraction(1, 2))
    with pytest.raises(ValueError):
        check_dominance(good, {0: Fraction(1, 2)})
    with pytest.raises(ValueError):
        check_dominance({0: Fraction(3, 2), 1: Fraction(-1, 2)}, good)


def test_pmf_maps_match_scalar_functions():
    for trials, p in [(7, Fraction(2, 5)), (0, Fraction(1, 2))]:
        bmap = binomial_pmf_map(trials, p)
        assert sum(bmap.values()) == 1
        assert bmap == {k: brute_binomial(trials, p, k) for k in range(trials + 1)}
    for trials, p in [(4, Fraction(-1, 3)), (4, Fraction(4, 3)), (-1, Fraction(1, 2))]:
        with pytest.raises(ValueError):
            binomial_pmf_map(trials, p)


def test_first_third_pmf_uniform_closed_form():
    spec = DeckSpec(2, 3)
    pmf = first_third_pmf(spec, StrategySpec(StrategyId.PARTIAL_UNIFORM))
    assert pmf == binomial_pmf_map(2, Fraction(1, 3))
    assert pmf == brute_uniform_prefix_hits(2, 3)


def test_first_third_pmf_deterministic_delegates():
    spec = DeckSpec(2, 3)
    sspec = StrategySpec(StrategyId.PARTIAL_MLE)
    assert first_third_pmf(spec, sspec) == dict(first_third_distribution(spec, sspec))


def test_first_third_dominance_reports_small():
    reports = first_third_dominance_reports(size_limit=720)
    assert reports
    assert all(r.bound == "first-third-dominance" for r in reports)
    assert all(dict(r.params)["n"] >= 3 for r in reports)
    assert all(r.verdict == PASS and r.notes == "" for r in reports)
    assert all(r.lhs is r.lhs_radius is r.rhs is None for r in reports)


def test_verdict_constants():
    assert {PASS, FAIL, INCONCLUSIVE} == {"PASS", "FAIL", "INCONCLUSIVE"}

"""End-to-end acceptance checks, one test per shipped claim.

Each test prints a single criterion-NN PASS line on success; tolerances and
runtime budgets are asserted where the claim states them.
"""

import csv
import time
from fractions import Fraction

import numpy as np

from guessbench.bounds import (
    PASS,
    first_third_dominance_reports,
    single_tail_grid,
)
from guessbench.combinatorics import _count
from guessbench.core import DeckSpec
from guessbench.exact import (
    enumerable_specs,
    exact_chain_mean,
    exact_value,
    optimal_complete,
    optimal_partial,
    verify_pointwise,
)
from guessbench.montecarlo import (
    estimate_repeat_time,
    estimate_value,
    exact_distinct_prefix_probability,
)
from guessbench.cli import main
from guessbench.strategies import StrategyId, StrategySpec, _card_positions, make_strategy
from oracles import (
    brute_chain,
    expectimax_value,
    iter_arrangements,
    iter_constraint_grid,
    iter_shuffles,
)

GREEDY_MAX = StrategySpec(StrategyId.COMPLETE_GREEDY_MAX)
GREEDY_MIN = StrategySpec(StrategyId.COMPLETE_GREEDY_MIN)
LADDER = StrategySpec(StrategyId.PARTIAL_LADDER)
TWO_PHASE = StrategySpec(StrategyId.PARTIAL_TWO_PHASE)


def _report(number, message, started=None, budget=None):
    line = f"criterion-{number:02d} PASS {message}"
    if started is not None:
        elapsed = time.perf_counter() - started
        line += f" ({elapsed:.2f}s)"
        if budget is not None:
            assert elapsed < budget, f"criterion {number} over budget: {elapsed:.2f}s"
    print(line)


def test_criterion_01_harmonic_complete_max():
    started = time.perf_counter()
    partial_sum = Fraction(0)
    for n in range(1, 51):
        partial_sum += Fraction(1, n)
        assert optimal_complete(DeckSpec(1, n), "max") == partial_sum
    _report(1, "single-copy complete max equals the harmonic sum, n <= 50", started, 1.0)


def test_criterion_02_single_copy_complete_min():
    started = time.perf_counter()
    for n in range(1, 51):
        assert optimal_complete(DeckSpec(1, n), "min") == Fraction(1, n)
    _report(2, "single-copy complete min equals 1/n, n <= 50", started, 1.0)


def test_criterion_03_complete_dp_equals_greedy_enumeration():
    started = time.perf_counter()
    specs = enumerable_specs(10**4)
    for spec in specs:
        assert optimal_complete(spec, "max") == exact_value(spec, GREEDY_MAX)
        assert optimal_complete(spec, "min") == exact_value(spec, GREEDY_MIN)

    deck = DeckSpec(2, 2)
    words = np.array(list(iter_shuffles(deck)), dtype=np.int16)
    scores = make_strategy(GREEDY_MAX, deck)(_card_positions(words, deck.total))
    assert scores.tolist() == [3, 4, 3, 3, 2, 2]
    assert optimal_complete(deck, "max") == Fraction(17, 6)
    _report(
        3,
        f"complete DP matches greedy enumeration on {len(specs)} specs, both senses",
        started,
        60.0,
    )


def test_criterion_04_partial_dp_matches_search_and_sandwich():
    started = time.perf_counter()
    specs = enumerable_specs(10**4)
    for spec in specs:
        assert optimal_partial(spec, "max") == expectimax_value(spec, "max")

    assert optimal_partial(DeckSpec(1, 2)) == Fraction(3, 2)
    assert optimal_partial(DeckSpec(1, 3)) == Fraction(5, 3)
    assert optimal_partial(DeckSpec(2, 2)) == Fraction(17, 6)

    for spec in specs:
        m = Fraction(spec.multiplicity)
        assert (
            optimal_complete(spec, "min")
            <= optimal_partial(spec, "min")
            <= m
            <= optimal_partial(spec, "max")
            <= optimal_complete(spec, "max")
        )
    _report(
        4,
        f"partial DP matches exhaustive search on {len(specs)} specs; sandwich holds",
        started,
        300.0,
    )


def test_criterion_05_pointwise_bound_and_counts_exhaustive():
    started = time.perf_counter()
    report = verify_pointwise(8, max_types=4)
    assert report.passed, f"ratio {report.max_ratio} at {report.witnesses[:1]}"

    states = 0
    for state in iter_constraint_grid(8, 4):
        assert _count(state.remaining, state.forbidden) == sum(
            1 for _ in iter_arrangements(state, max_total=8)
        )
        states += 1
    assert states == report.states_checked
    _report(
        5,
        f"next-card bound and arrangement counts verified on {states} states",
        started,
        300.0,
    )


def test_criterion_06_first_third_binomial_domination():
    started = time.perf_counter()
    reports = first_third_dominance_reports(size_limit=10**4)
    zoo_size = len(list(StrategyId))
    specs = {s for s in enumerable_specs(10**4) if s.num_types >= 3}
    assert len(reports) == zoo_size * len(specs)
    failures = [r for r in reports if r.verdict != PASS]
    assert not failures, failures[:3]
    _report(
        6,
        f"first-third scores dominated by the binomial envelope in {len(reports)} cases",
        started,
    )


def test_criterion_07_hypergeometric_single_tail_grid():
    started = time.perf_counter()
    reports = list(single_tail_grid(60))
    expected = 0
    for population in range(1, 61):
        good = 1
        while good * good + good <= population:
            expected += (population + 1) * 4
            good += 1
    assert len(reports) == expected
    assert all(r.verdict == PASS for r in reports)
    _report(7, f"single hypergeometric tail bound holds at all {len(reports)} points", started, 60.0)


def test_criterion_08_monte_carlo_matches_dp():
    started = time.perf_counter()
    for m, n in [(4, 13), (2, 2)]:
        spec = DeckSpec(m, n)
        exact = float(optimal_complete(spec, "max"))
        summary = estimate_value(spec, GREEDY_MAX, 10**5, seed=20_240)
        gap = abs(summary.mean - exact)
        assert gap <= 4 * summary.se, f"({m},{n}): gap {gap} vs se {summary.se}"
    assert float(optimal_complete(DeckSpec(2, 2), "max")) == float(Fraction(17, 6))
    _report(8, "greedy simulation within 4 SE of the DP value at (4,13) and (2,2)", started, 60.0)


def test_criterion_09_repeat_time_survival():
    started = time.perf_counter()
    spec = DeckSpec(2, 100)
    estimate = estimate_repeat_time(spec, 2, 10**5, seed=71)
    for t in (5, 10, 20):
        exact = float(exact_distinct_prefix_probability(spec, t))
        se = max(estimate.survival_se(t), 1e-12)
        gap = abs(estimate.survival(t) - exact)
        assert gap <= 4 * se, f"t={t}: gap {gap} vs se {se}"

    # gamma * sqrt(n) thresholds: survival falls strictly as gamma grows
    thresholds = [5, 10, 15, 20]
    exact_values = [exact_distinct_prefix_probability(spec, t) for t in thresholds]
    assert all(a > b for a, b in zip(exact_values, exact_values[1:]))
    empirical = [estimate.survival(t) for t in thresholds]
    assert all(a >= b for a, b in zip(empirical, empirical[1:]))
    _report(9, "repeat-time survival matches the exact product at (2,100)", started)


def test_criterion_10_two_phase_gain_and_chain_bounds():
    started = time.perf_counter()
    gains = []
    for m in (25, 100, 400):
        spec = DeckSpec(m, 50)
        summary = estimate_value(spec, TWO_PHASE, 10**5, seed=9)
        gain = summary.mean - m
        assert gain > 4 * summary.se, f"m={m}: gain {gain} vs se {summary.se}"
        gains.append(gain)
    assert gains[0] < gains[1] < gains[2]

    for spec in enumerable_specs(10**4):
        chain_mean = exact_chain_mean(spec)
        assert chain_mean <= exact_value(spec, LADDER) <= optimal_partial(spec, "max")
        words = list(iter_shuffles(spec))
        chains = [brute_chain(word) for word in words]
        hits = make_strategy(LADDER, spec)(np.array(words, dtype=np.int16))
        assert [min(h, spec.num_types) for h in hits.tolist()] == chains, spec
        assert chain_mean == Fraction(sum(chains), len(words)), spec
    _report(
        10,
        "two-phase gain grows with m; the chain statistic is the ladder's score capped at n",
        started,
        60.0,
    )


def test_criterion_11_csv_reruns_byte_identical(tmp_path):
    started = time.perf_counter()
    configs = [
        ["simulate", "-m", "2", "-n", "3", "--strategy", "partial-mle",
         "--trials", "500", "--seed", "4"],
        ["simulate", "-m", "4", "-n", "13", "--strategy", "complete-greedy-max",
         "--trials", "2000", "--seed", "8", "--workers", "2"],
        ["simulate", "-m", "3", "-n", "4", "--strategy", "nofb-cyclic",
         "--trials", "1000", "--seed", "0"],
    ]
    for idx, args in enumerate(configs):
        paths = [tmp_path / f"run{idx}_{attempt}.csv" for attempt in (0, 1)]
        for path in paths:
            assert main(args + ["--out", str(path)]) == 0
        texts = [p.read_text() for p in paths]
        tables = [list(csv.reader(t.splitlines())) for t in texts]
        assert tables[0][0] == tables[1][0]
        assert tables[0][0][-1] == "timestamp"
        stripped = [[row[:-1] for row in table] for table in tables]
        assert stripped[0] == stripped[1]
    _report(11, "simulate reruns are byte-identical apart from the timestamp", started)

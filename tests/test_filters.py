import math
import random

import pytest

from fixpair.dataset import DatasetEntry
from fixpair.filters import (
    STRATEGIES,
    apply_filter,
    filter_entries,
    group_entries,
)
from fixpair.metrics import MetricsVector


def make_entries(n_buggy, n_clean, loc=7.0, start=0):
    entries = []
    for i in range(n_buggy + n_clean):
        entries.append(
            DatasetEntry(
                commit_hash=f"{start + i:040x}",
                fqn=f"p.C.m{start + i}()void",
                level="method",
                metrics=MetricsVector("method", {"LOC": loc, "McCC": 1.0}),
                bug_count=1 if i < n_buggy else 0,
            )
        )
    return entries


def counts(entries):
    b = sum(1 for e in entries if e.bug_count > 0)
    return b, len(entries) - b


@pytest.mark.parametrize(
    "strategy,expected",
    [
        ("removal", (0, 20)),
        ("subtract", (0, 10)),
        ("single", (0, 1)),
        ("gcf", (1, 2)),
        ("none", (10, 20)),
    ],
)
def test_worked_examples_10_20(strategy, expected):
    out = filter_entries(make_entries(10, 20), strategy, rng_seed=1)
    assert counts(out) == expected


def expected_counts(strategy, b, c):
    if b == 0 or c == 0 or strategy == "none":
        return b, c
    if strategy == "removal":
        return (b, 0) if b > c else (0, c) if c > b else (0, 0)
    if strategy == "subtract":
        return (b - c, 0) if b > c else (0, c - b) if c > b else (0, 0)
    if strategy == "single":
        if b > c:
            return (1, 0)
        if c > b:
            return (0, 1)
        return None  # seeded coin; either (1,0) or (0,1)
    if strategy == "gcf":
        g = math.gcd(b, c)
        return (b // g, c // g)
    raise AssertionError(strategy)


def test_closed_form_property_over_random_pairs():
    rng = random.Random(20240202)
    for trial in range(250):
        b, c = rng.randrange(0, 25), rng.randrange(0, 25)
        entries = make_entries(b, c)
        for strategy in STRATEGIES:
            got = counts(filter_entries(entries, strategy, rng_seed=trial))
            want = expected_counts(strategy, b, c)
            if want is None:
                assert got in ((1, 0), (0, 1)), (strategy, b, c, got)
            else:
                assert got == want, (strategy, b, c, got)


def test_single_label_groups_untouched():
    entries = make_entries(5, 0)
    for strategy in STRATEGIES:
        assert filter_entries(entries, strategy, rng_seed=0) == entries
    entries = make_entries(0, 4)
    for strategy in STRATEGIES:
        assert filter_entries(entries, strategy, rng_seed=0) == entries


def test_conflict_resolved_to_one_label():
    for strategy in ("removal", "subtract", "single"):
        out = filter_entries(make_entries(9, 4), strategy, rng_seed=3)
        b, c = counts(out)
        assert b == 0 or c == 0


def test_gcf_preserves_ratio():
    out = filter_entries(make_entries(12, 18), "gcf", rng_seed=0)
    assert counts(out) == (2, 3)
    out = filter_entries(make_entries(7, 7), "gcf", rng_seed=0)
    assert counts(out) == (1, 1)


def test_tie_rules():
    tie = make_entries(6, 6)
    assert filter_entries(tie, "removal", rng_seed=0) == []
    assert filter_entries(tie, "subtract", rng_seed=0) == []
    survivors = filter_entries(tie, "single", rng_seed=0)
    assert len(survivors) == 1
    # the coin is seeded: same seed, same outcome
    again = filter_entries(tie, "single", rng_seed=0)
    assert survivors == again


def test_idempotence():
    entries = make_entries(10, 4) + make_entries(3, 3, loc=9.0, start=100)
    for strategy in ("removal", "subtract", "single", "gcf"):
        once = filter_entries(entries, strategy, rng_seed=5)
        twice = filter_entries(once, strategy, rng_seed=5)
        assert twice == once, strategy


def test_deterministic_under_seed():
    entries = make_entries(15, 8)
    a = filter_entries(entries, "subtract", rng_seed=11)
    b = filter_entries(entries, "subtract", rng_seed=11)
    assert a == b
    # and survivors are a subset of the input in original order
    positions = [entries.index(e) for e in a]
    assert positions == sorted(positions)


def test_feature_key_ignores_identity_fields():
    e1, e2 = make_entries(1, 1)
    assert e1.commit_hash != e2.commit_hash and e1.bug_count != e2.bug_count
    different = make_entries(1, 0, loc=9.0)[0]
    groups = group_entries([e1, e2, different])
    assert [[idx for idx, _, _ in g.members] for g in groups] == [[0, 1], [2]]
    assert groups[0].feature_key != groups[1].feature_key


def test_groups_partition_dataset():
    entries = make_entries(2, 3) + make_entries(1, 1, loc=42.0, start=50)
    groups = group_entries(entries)
    assert len(groups) == 2
    assert sum(len(g.members) for g in groups) == len(entries)
    for g in groups:
        labels = [buggy for _, _, buggy in g.members]
        assert labels.count(True) + labels.count(False) == len(g.members)


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        apply_filter(group_entries(make_entries(1, 1)), "bogus")


def test_removal_never_builds_a_generator(monkeypatch):
    import fixpair.filters as filters

    def no_rng(key, seed):
        raise AssertionError("removal draws nothing, so it needs no generator")

    monkeypatch.setattr(filters, "_group_rng", no_rng)
    entries = make_entries(10, 20) + make_entries(5, 5, loc=9.0, start=30)
    assert counts(filter_entries(entries, "removal", rng_seed=1)) == (0, 20)

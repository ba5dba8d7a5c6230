"""Redundancy filtering over entries with identical feature vectors.

Entries that share one metric vector but disagree on the binary label form a
conflict group; each strategy resolves the conflict differently.  For a
group holding ``b`` buggy and ``c`` clean entries:

* ``removal``:  keep the larger side only (10:20 -> 0:20)
* ``subtract``: larger side shrinks by the smaller one (10:20 -> 0:10)
* ``single``:   one survivor on the larger side (10:20 -> 0:1)
* ``gcf``:      divide both by gcd(b, c) (10:20 -> 1:2)
* ``none``:     unchanged

Groups with a single label always pass through unchanged.  Exactly tied
groups (b == c > 0): removal and subtract empty the group; single keeps one
entry whose label comes from a seeded coin; gcf keeps 1:1.  All survivor
picks are deterministic under the seed.
"""

import functools
import hashlib
import math

from .dataset import format_metric
from .learn.models import _rng
from .metrics import COLUMNS_BY_LEVEL

STRATEGIES = ("none", "removal", "subtract", "single", "gcf")


def _raw_features(entry) -> tuple:
    return (entry.level, *map(entry.metrics.get, COLUMNS_BY_LEVEL[entry.level]))


def _serialize(raw) -> tuple:
    return (raw[0],) + tuple(map(format_metric, raw[1:]))


def group_entries(entries) -> dict:
    """{feature key -> members} in first-seen order, each member an
    ``(index, entry, is_buggy)`` triple.  The feature key is the level plus
    the serialized metric vector; hash, fqn and bug count are left out, so
    conflicts are defined purely on the features."""
    groups = {}
    keys = {}  # raw features -> feature key; equal numbers serialize alike
    for idx, e in enumerate(entries):
        raw = _raw_features(e)
        if raw not in keys:
            keys[raw] = _serialize(raw)
        groups.setdefault(keys[raw], []).append((idx, e, e.bug_count > 0))
    return groups


def _group_rng(key, seed):
    digest = hashlib.md5(repr(key).encode("utf-8")).digest()
    return _rng(int.from_bytes(digest[:8], "big") ^ int(seed))


def _pick(members, count, rng):
    """Deterministically keep ``count`` of the members (stable order);
    ``rng()`` gives the group's generator, asked for only when drawing."""
    if count >= len(members):
        return list(members)
    order = rng().permutation(len(members))[:count]
    keep = sorted(order.tolist())
    return [members[i] for i in keep]


def apply_filter(groups, strategy, rng_seed=0) -> list:
    """Resolve every conflict group of :func:`group_entries` with one
    strategy; returns surviving entries in their original dataset order."""
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown filter strategy {strategy!r}; choose from {STRATEGIES}"
        )
    survivors = []
    for key, members in groups.items():
        survivors.extend(_filter_group(key, members, strategy, rng_seed))
    survivors.sort(key=lambda m: m[0])
    return [entry for _, entry, _ in survivors]


def _filter_group(key, members, strategy, rng_seed):
    members = sorted(members, key=lambda m: (m[1].commit_hash, m[1].fqn, m[0]))
    buggy = [m for m in members if m[2]]
    clean = [m for m in members if not m[2]]
    b, c = len(buggy), len(clean)
    if strategy == "none" or b == 0 or c == 0:
        return members
    # most groups never draw, so their generator is built on first use
    rng = functools.cache(functools.partial(_group_rng, key, rng_seed))
    major, minor = (buggy, clean) if b > c else (clean, buggy)
    if strategy == "removal":
        return [] if b == c else major
    if strategy == "subtract":
        if b == c:
            return []
        return _pick(major, abs(b - c), rng)
    if strategy == "single":
        if b == c:
            side = buggy if rng().integers(0, 2) == 1 else clean
            return _pick(side, 1, rng)
        return _pick(major, 1, rng)
    if strategy == "gcf":
        g = math.gcd(b, c)
        return _pick(buggy, b // g, rng) + _pick(clean, c // g, rng)
    raise AssertionError(strategy)


def filter_entries(entries, strategy, rng_seed=0) -> list:
    """Group, filter, and return the surviving entries."""
    return apply_filter(group_entries(entries), strategy, rng_seed)

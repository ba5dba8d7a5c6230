"""The pure-Python PCG64 draws the filters use are numpy's stream: numpy is
the oracle, through the generator the learners build from a seed."""

import random

import numpy as np

from fixpair.learn.models import _rng
from fixpair.pcg64 import Generator, seed_state

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -(2**40) - 7)


def _draw(gen, calls):
    """Replay ``calls`` (``None`` for a coin, else a permutation size) on
    one generator; numpy's results become plain ints and lists."""
    out = []
    for n in calls:
        if n is None:
            out.append(int(gen.integers(0, 2)))
        else:
            out.append(list(map(int, gen.permutation(n))))
    return out


def test_seed_state_is_seed_sequence():
    for seed in SEEDS:
        masked = seed & (2**64 - 1)
        want = np.random.SeedSequence(masked).generate_state(4, np.uint64).tolist()
        assert seed_state(masked) == want, seed


def test_fixed_seeds_and_sizes():
    sequences = (
        [0], [1], [2], [3], [None], [None, None, None],
        [None, 3, None], [2, None, 5], [3, 3], [None, 0, 1, None],
    )
    for seed in SEEDS:
        for calls in sequences:
            assert _draw(Generator(seed), calls) == _draw(_rng(seed), calls), (
                seed, calls,
            )


def test_random_seeds_and_call_sequences():
    """Mixed coins and permutations on one generator, so a coin that takes
    the kept upper half of a draw is followed by a shuffle and back."""
    r = random.Random(30)
    for _ in range(2000):
        seed = r.getrandbits(r.choice((1, 8, 32, 33, 63, 64, 64)))
        if r.random() < 0.1:
            seed = -seed
        calls = []
        for _ in range(r.randint(1, 3)):
            pick = r.random()
            if pick < 0.4:
                calls.append(None)
            elif pick < 0.97:
                calls.append(r.randint(0, 40))
            else:
                calls.append(r.randint(0, 3000))
        assert _draw(Generator(seed), calls) == _draw(_rng(seed), calls), (seed, calls)


def test_integers_over_wider_ranges():
    """Lemire's rejection only rejects for ranges that do not divide 2**32."""
    r = random.Random(31)
    for _ in range(300):
        seed = r.getrandbits(64)
        low = r.randint(-5, 5)
        high = low + r.choice((1, 3, 7, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32))
        ours, theirs = Generator(seed), _rng(seed)
        for _ in range(3):
            assert ours.integers(low, high) == int(theirs.integers(low, high))

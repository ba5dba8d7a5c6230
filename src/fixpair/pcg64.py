"""numpy's PCG64 stream in pure Python, for the draws of a conflict group.

``Generator(seed)`` draws what ``numpy.random.Generator(numpy.random.PCG64(
seed & (2**64 - 1)))`` draws for the two calls :mod:`fixpair.filters`
makes, ``permutation(n)`` and ``integers(low, high)``, so the mining
commands run without numpy and their outputs stay those of numpy's stream.
Its parts follow numpy's sources:

* the seed is hashed by ``SeedSequence(seed).generate_state(4, uint64)``:
  a pool of 4 uint32 words filled and cross-mixed by ``hashmix``/``mix``;
* PCG64 (O'Neill, "PCG: a family of simple fast space-efficient
  statistically good algorithms for random number generation",
  HMC-CS-2014-0905) is seeded with the first two words as its state and
  the last two as its stream, and each draw steps the 128-bit LCG, then
  outputs the XSL-RR of the new state;
* a 32-bit draw takes the lower half of a 64-bit one and keeps the upper
  half for the next 32-bit draw;
* ``permutation`` is a Fisher-Yates shuffle of ``range(n)`` from the last
  index down, each swap index drawn by masked rejection;
* ``integers`` is Lemire's bounded method ("Fast random integer generation
  in an interval", ACM TOMACS 29, 2019) on 32-bit draws.

It costs under 1 microsecond per permuted member, some 50 to 100 times
numpy's per-member cost, which stays below the cost of importing numpy up
to about 10**5 members per process.
"""

_M32 = 0xFFFF_FFFF
_M64 = 0xFFFF_FFFF_FFFF_FFFF
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645

# SeedSequence's hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def seed_state(seed):
    """``SeedSequence(seed).generate_state(4, uint64)`` as a list of ints,
    for a seed below 2**64 (at most two uint32 words of entropy, fewer
    than the pool holds)."""
    words = [seed & _M32, seed >> 32] if seed >> 32 else [seed]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_L * x - _MIX_R * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _INIT_B
    out = []
    for i in range(8):  # 4 uint64 words, as 8 little-endian uint32 halves
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        out.append(value ^ value >> 16)
    return [out[2 * i] | out[2 * i + 1] << 32 for i in range(4)]


class Generator:
    """The draws of ``numpy.random.Generator(PCG64(seed & (2**64 - 1)))``
    that a conflict group makes."""

    def __init__(self, seed):
        s = seed_state(int(seed) & _M64)
        self._inc = ((s[2] << 64 | s[3]) << 1 | 1) & _M128
        state = self._inc + (s[0] << 64 | s[1])  # one step from 0, plus the seed
        self._state = (state * _PCG_MULT + self._inc) & _M128
        self._upper = None  # the kept half of the last 64-bit draw

    def _next64(self):
        state = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = state
        rot = state >> 122
        x = (state >> 64 ^ state) & _M64
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self):
        if self._upper is not None:
            value, self._upper = self._upper, None
            return value
        value = self._next64()
        self._upper = value >> 32
        return value & _M32

    def _interval(self, top):
        """A draw in [0, top], top < 2**32, by rejection of 32-bit draws
        masked to top's bits."""
        mask = (1 << top.bit_length()) - 1
        value = self._next32() & mask
        while value > top:
            value = self._next32() & mask
        return value

    def permutation(self, n):
        """A shuffled ``list(range(n))``, for n <= 2**32."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self._interval(i)
            out[i], out[j] = out[j], out[i]
        return out

    def integers(self, low, high):
        """One int in [low, high), for a range of at most 2**32 values."""
        top = high - 1 - low
        if not 0 <= top <= _M32:
            raise ValueError(f"integers({low}, {high}): need 0 < high - low <= 2**32")
        if top == 0:  # numpy draws nothing for a single value
            return low
        span = top + 1
        m = self._next32() * span
        if m & _M32 < span:
            threshold = (_M32 - top) % span
            while m & _M32 < threshold:
                m = self._next32() * span
        return low + (m >> 32)

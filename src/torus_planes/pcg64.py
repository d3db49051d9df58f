"""numpy's default generator in pure Python: SeedSequence + PCG64, bit for bit.

`PCG64Stream(entropy).random()` returns what
`numpy.random.default_rng(entropy).random()` returns, for a non-negative
int or a sequence of them, so seeded suite trials draw the same inputs
without importing numpy. The seeding is numpy's SeedSequence: the
entropy, as little-endian 32-bit words, is hashed into a pool of four
words, and the pool is hashed out into the 128-bit state and increment.
The generator is PCG64 (O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation", HMC-CS-2014-0905): a 128-bit LCG step, the XSL-RR output
function, and a double from the top 53 bits.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ConfigError

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(entropy) -> list[int]:
    """An int as its little-endian 32-bit words (0 is one word); a sequence, each in turn."""
    if isinstance(entropy, int):
        if entropy < 0:
            raise ConfigError(f"entropy must be non-negative, got {entropy}")
        words = [entropy & _MASK32]
        entropy >>= 32
        while entropy:
            words.append(entropy & _MASK32)
            entropy >>= 32
        return words
    return [w for part in entropy for w in _words(int(part))]


@lru_cache(maxsize=16)
def _hash_constants(init: int, mult: int, n: int) -> tuple:
    """(xor, multiplier) of n successive hashes.

    SeedSequence's hash xors its value with a running constant, advances the
    constant by `mult` and multiplies by it; the constants do not depend on
    the data, so they are a table.
    """
    out = []
    for _ in range(n):
        advanced = (init * mult) & _MASK32
        out.append((init, advanced))
        init = advanced
    return tuple(out)


@lru_cache(maxsize=16)
def _mix_schedule(n_words: int) -> tuple:
    """(source, destination) of each mix into the pool, in SeedSequence's order.

    Every pool word into every other, then each word past the pool (held at
    index 4 on) into all four.
    """
    pairs = [(s, d) for s in range(_POOL_SIZE) for d in range(_POOL_SIZE) if s != d]
    return tuple(pairs + [(w, d) for w in range(_POOL_SIZE, n_words) for d in range(_POOL_SIZE)])


def _seed_state(words: list[int]) -> list[int]:
    """SeedSequence(words).generate_state(4, uint64) as eight 32-bit words.

    The words are hashed into the pool, mixed pairwise, and the pool is
    hashed out in cycle.
    """
    n = max(len(words), _POOL_SIZE)
    hashes = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * n)
    pool = []
    for i, (xor, mult) in enumerate(hashes[:_POOL_SIZE]):
        value = (((words[i] if i < len(words) else 0) ^ xor) * mult) & _MASK32
        pool.append(value ^ (value >> 16))
    pool += words[_POOL_SIZE:]
    for (src, dst), (xor, mult) in zip(_mix_schedule(n), hashes[_POOL_SIZE:]):
        value = ((pool[src] ^ xor) * mult) & _MASK32
        value = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (value ^ (value >> 16))) & _MASK32
        pool[dst] = value ^ (value >> 16)
    out = []
    for i, (xor, mult) in enumerate(_hash_constants(_INIT_B, _MULT_B, 8)):
        value = ((pool[i % _POOL_SIZE] ^ xor) * mult) & _MASK32
        out.append(value ^ (value >> 16))
    return out


class PCG64Stream:
    """The draws of `numpy.random.default_rng(entropy)`; only `random()` is provided."""

    __slots__ = ("_state", "_inc")

    def __init__(self, entropy):
        w = _seed_state(_words(entropy))
        # little-endian uint64s: the seed is (w1 w0, w3 w2), the sequence (w5 w4, w7 w6)
        seed = (w[1] << 96) | (w[0] << 64) | (w[3] << 32) | w[2]
        seq = (w[5] << 96) | (w[4] << 64) | (w[7] << 32) | w[6]
        # PCG's seeding: state 0, one step, add the seed, one more step
        self._inc = ((seq << 1) | 1) & _MASK128
        self._state = ((self._inc + seed) * _PCG_MULT + self._inc) & _MASK128

    def random(self) -> float:
        """A double in [0, 1): the top 53 bits of the next XSL-RR output, times 2**-53."""
        self._state = state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((((x >> rot) | (x << (64 - rot))) & _MASK64) >> 11) * (1.0 / 9007199254740992.0)

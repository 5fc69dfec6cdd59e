"""The samplers' random stream: NumPy's default generator, rewritten bit
for bit for the two draws they make.

``Generator(seed).random(k)`` and ``Generator(seed).integers(k)`` give
what NumPy's ``default_rng(seed).random(k)`` and
``default_rng(seed).integers(0, 2, size=k)`` give, in any interleaving.
The seed is mixed by NumPy's ``SeedSequence`` into PCG64, O'Neill's
128-bit LCG with XSL-RR output ("PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation", HMC-CS-2014-0905). Written out here, the stream depends on
the seed alone, not on an installed NumPy release.
"""

from __future__ import annotations

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# SeedSequence's hash and mix constants; its pool holds 4 words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, uint64)."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    entropy = [seed & _M32]  # 32-bit words, least significant first
    while seed > _M32:
        seed >>= 32
        entropy.append(seed & _M32)
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_L * x - _MIX_R * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for i in range(4):
        for j in range(4):
            if i != j:
                pool[j] = mix(pool[j], hashmix(pool[i]))
    for word in entropy[4:]:
        for j in range(4):
            pool[j] = mix(pool[j], hashmix(word))
    out, const = [], _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _M32
        value = value * const & _M32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class Generator:
    """PCG64 seeded as NumPy's ``PCG64(seed)``, with the 32-bit buffer its
    ``integers`` draws share across calls."""

    __slots__ = ("_state", "_inc", "_high")

    def __init__(self, seed: int):
        s_hi, s_lo, i_hi, i_lo = _seed_words(seed)
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        # srandom: one step from state 0, add the seed, one more step
        self._state = (self._inc + (s_hi << 64 | s_lo)) * _PCG_MULT + self._inc & _M128
        self._high = None  # the unused high half of the last 64-bit draw

    def next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = (s >> 64 ^ s) & _M64
        rot = s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def random(self, k: int) -> list[float]:
        """k doubles in [0, 1), each the top 53 bits of one 64-bit draw."""
        return [(self.next64() >> 11) * 2.0**-53 for _ in range(k)]

    def integers(self, k: int) -> list[int]:
        """k fair bits, as NumPy's ``integers(0, 2)``: Lemire's bounded draw,
        (2 u) >> 32, on 32-bit words u. A fresh 64-bit draw gives its low
        half, and its high half is the next word, in this call or a later."""
        out = []
        for _ in range(k):
            if self._high is None:
                x = self.next64()
                u, self._high = x & _M32, x >> 32
            else:
                u, self._high = self._high, None
            out.append(u * 2 >> 32)
        return out

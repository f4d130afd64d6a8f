"""Deterministic, splittable counter-based random numbers.

Sampled examples must reproduce bit for bit from a seed, across
platforms and process boundaries, and Monte Carlo trials need
independent substreams derived without coordination.  The stdlib
Mersenne Twister is seedable but has no principled stream splitting, so
the scheme is fixed here instead:

* ``mix`` is the SplitMix64 finalizer: ``z ^= z >> 30``,
  ``z *= 0xBF58476D1CE4E5B9``, ``z ^= z >> 27``,
  ``z *= 0x94D049BB133111EB``, ``z ^= z >> 31``, all modulo ``2**64``.
* a stream with key ``K`` produces its ``i``-th word (counting from 1)
  as ``mix(K + i * 0x9E3779B97F4A7C15)``.
* child ``j`` (from 0) of that stream has key
  ``mix(K ^ ((j + 1) * 0xD1B54A32D192ED03))``.

Bounded integers come from rejection sampling on whole 64-bit words, so
there is no modulo bias at any bound.

``mix``, :meth:`RandomStream.next_word`, :meth:`RandomStream.randrange`
and :meth:`RandomStream.split` are the definition.  The batched draws
:meth:`RandomStream.randrange_many` and
:meth:`RandomStream.split_randrange_many` return the same draws and
consume the same words; they mix many words at once with
:func:`mix_many`, which is word for word equal to ``mix``:

* word ``i`` of a batch sits in lane ``i``, bits ``128 i .. 128 i + 63``
  of one Python int; the upper 64 bits of every lane start at zero.
  Lanes are packed and unpacked through ``array("Q")`` and
  ``int.from_bytes`` / ``int.to_bytes``.
* each step of the finalizer is one whole-int shift, XOR, multiply or
  mask.  A lane times a 64-bit constant stays below ``2**128``, so no
  carry crosses into the next lane, and the bits that ``>>`` brings in
  from the next lane land in the upper half.
* masking every lane to its low 64 bits before each multiply and after
  it reduces modulo ``2**64``, so each lane's low half ends as ``mix``
  of its word; unpacking keeps only the low halves.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import repeat
from operator import mod

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_LEAP = 0xD1B54A32D192ED03
_LOW_HALF = b"\xff" * 8 + bytes(8)  # one lane of the mask, little-endian
_BIG_ENDIAN = sys.byteorder == "big"
_BATCH = 4096  # most words randrange_many mixes in one kernel call


def mix(z: int) -> int:
    """The SplitMix64 output permutation of a 64-bit word."""
    z &= _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


def _pack(words, k: int = 1) -> int:
    """64-bit ``words`` in 128-bit lanes of one int, each word in ``k``
    consecutive lanes.  The copies go in by strided slices, as many as
    the smaller of ``k`` and the number of words."""
    spaced = array("Q", bytes(16 * len(words) * k))
    if k <= len(words):
        column = array("Q", words)
        for i in range(0, 2 * k, 2):
            spaced[i::2 * k] = column
    else:
        for t, word in enumerate(words):
            spaced[2 * k * t:2 * k * (t + 1):2] = array("Q", (word,)) * k
    if _BIG_ENDIAN:
        spaced.byteswap()
    return int.from_bytes(spaced, "little")


def _unpack(x: int, lanes: int) -> list[int]:
    """The low 64 bits of each of the first ``lanes`` lanes of ``x``."""
    spaced = array("Q", x.to_bytes(16 * lanes, "little"))
    if _BIG_ENDIAN:
        spaced.byteswap()
    return spaced[::2].tolist()


@lru_cache(maxsize=4)
def _low(lanes: int) -> int:
    """The low 64 bits of each of ``lanes`` lanes."""
    return int.from_bytes(_LOW_HALF * lanes, "little")


def _mix_lanes(x: int, lanes: int) -> int:
    """:func:`mix` in every lane of ``x`` (upper lane halves zero); the
    upper halves of the result hold junk that :func:`_unpack` drops."""
    low = _low(lanes)
    x ^= x >> 30
    x = (x & low) * 0xBF58476D1CE4E5B9 & low
    x ^= x >> 27
    x = (x & low) * 0x94D049BB133111EB & low
    return x ^ x >> 31


def mix_many(words) -> list[int]:
    """``[mix(z) for z in words]`` for 64-bit words, in one batch."""
    lanes = len(words)
    return _unpack(_mix_lanes(_pack(words), lanes), lanes)


@lru_cache(maxsize=4)
def _counter_lanes(done: int, k: int, streams: int) -> int:
    """``(done + i) * _GOLDEN`` modulo ``2**64`` for ``i = 1..k``, once
    per stream."""
    counts = array("Q", range(done + 1, done + k + 1)) * streams
    return _pack(counts) * _GOLDEN & _low(k * streams)


def _stream_words(keys, done: int, k: int) -> list[int]:
    """Words ``done + 1 .. done + k`` of the stream with each key in
    ``keys``, stream after stream."""
    lanes = len(keys) * k
    x = (_pack(keys, k) + _counter_lanes(done, k, len(keys))) & _low(lanes)
    return _unpack(_mix_lanes(x, lanes), lanes)


def _limit(n: int) -> int:
    """Words at or above this are rejected by :meth:`RandomStream.randrange`
    with bound ``n``.  A bound above ``2**64`` would reject every word."""
    if n < 1:
        raise ValueError(f"empty range, got n={n}")
    if n > 1 << 64:
        raise ValueError(f"bound must be at most 2**64, got n={n}")
    return (1 << 64) - ((1 << 64) % n)


def _below(words, n: int) -> list[int]:
    return list(map(mod, words, repeat(n)))


class RandomStream:
    """A keyed counter walked through :func:`mix`.

    Equal seeds give equal word sequences forever; :meth:`split` keys
    off independent children so parallel trials never share a stream.
    """

    def __init__(self, seed: int):
        self._key = seed & _MASK
        self._count = 0

    def next_word(self) -> int:
        """The next unsigned 64-bit word."""
        self._count += 1
        return mix((self._key + self._count * _GOLDEN) & _MASK)

    def randrange(self, n: int) -> int:
        """A uniform integer in ``0..n-1`` by rejection sampling, for
        ``1 <= n <= 2**64``."""
        limit = _limit(n)
        while True:
            word = self.next_word()
            if word < limit:
                return word % n

    def randrange_many(self, n: int, k: int) -> list[int]:
        """``k`` calls of :meth:`randrange` with bound ``n`` at once.

        The draws are equal and the stream ends at the same word: a
        rejected word is skipped and the next one taken, as one by one.
        Words are mixed at most ``_BATCH`` at a time.
        """
        limit = _limit(n)
        out: list[int] = []
        while len(out) < k:
            words = _stream_words((self._key,), self._count, min(k - len(out), _BATCH))
            self._count += len(words)
            if max(words) < limit:
                out += _below(words, n)
            else:
                out += [w % n for w in words if w < limit]
        return out

    def split_randrange_many(self, children: range, n: int, k: int) -> list[int]:
        """``self.split(j).randrange_many(n, k)`` for each ``j`` in
        ``children``, joined in that order; this stream does not move.

        All ``len(children) * k`` words go through one kernel call, so
        keep blocks to a few thousand words.
        """
        if min(children, default=0) < 0:
            raise ValueError(f"child indices must be nonnegative, got {children}")
        limit = _limit(n)
        keys = mix_many([(self._key ^ ((j + 1) * _LEAP)) & _MASK for j in children])
        words = _stream_words(keys, 0, k)
        if not words or max(words) < limit:
            return _below(words, n)
        out: list[int] = []
        for j, first in zip(children, range(0, len(words), k)):
            mine = words[first:first + k]
            if max(mine) < limit:
                out += _below(mine, n)
            else:  # a rejected word: this child needs words past its k-th
                out += self.split(j).randrange_many(n, k)
        return out

    def split(self, j: int) -> "RandomStream":
        """Child stream number ``j``, independent of this one."""
        if j < 0:
            raise ValueError(f"child index must be nonnegative, got {j}")
        return RandomStream(mix((self._key ^ ((j + 1) * _LEAP)) & _MASK))

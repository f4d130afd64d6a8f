"""Deterministic, splittable counter-based random numbers.

Sampled examples must reproduce bit for bit from a seed, across
platforms and process boundaries, and Monte Carlo trials need
independent substreams derived without coordination.  The stdlib
Mersenne Twister is seedable but has no principled stream splitting, so
the scheme is fixed here instead:

* ``mix`` is the finalizer of SplitMix64 (Steele, Lea and Flood, "Fast
  splittable pseudorandom number generators", 2014): ``z ^= z >> 30``,
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
consume the same words.  They keep a block's words in the lanes of one
Python int from key to residue, so no 64-bit int is made per draw:

* word ``i`` of a block sits in lane ``i``, bits ``128 i .. 128 i + 63``
  of one Python int; the upper 64 bits of every lane start at zero.
  Lanes go in and out through ``array("Q")`` and ``int.from_bytes`` /
  ``int.to_bytes`` in little-endian order, with one ``byteswap`` of the
  array on a big-endian machine (``_pack`` and ``_low_halves``); a
  constant repeated in every lane is built from little-endian bytes.
  Only little-endian machines have run this code.
* each step of the finalizer is one whole-int shift, XOR, multiply or
  mask.  A lane times a 64-bit constant stays below ``2**128``, so no
  carry crosses into the next lane, and the bits that ``>>`` brings in
  from the next lane land in the upper half.  Masking every lane to its
  low 64 bits before each multiply and after it reduces modulo
  ``2**64``, so each lane's low half ends as ``mix`` of its word.
* child keys are mixed the same way, one lane per child: lane ``i``
  holds ``j + 1 = start + 1 + i * step`` modulo ``2**64`` for the range
  of child indices.  Strided array copies then put each key in ``k``
  consecutive lanes, and the counters ``i * 0x9E3779B97F4A7C15`` are
  added in lanes.
* rejection: with ``off = 2**64 % n``, a word ``w`` is at or above the
  limit ``2**64 - off`` exactly when bit 64 of ``w + off`` is set, and
  ``w + off < 2**65`` stays in its lane, so one add and one mask test a
  whole block.  A block with a rejected word is unpacked and drawn word
  by word, skipping each rejected word as :meth:`RandomStream.randrange`
  does.
* residue: for a power of two ``n``, ``w % n`` is one mask.  Otherwise
  let ``l = n.bit_length()``, so ``2**(l-1) < n < 2**l``, and
  ``m = 2**(64+l) // n + 1``.  Then ``2**(64+l) < m*n <= 2**(64+l) + 2**l``,
  and by Granlund and Montgomery ("Division by invariant integers using
  multiplication", 1994) ``w // n == (w * m) >> (64 + l)`` for every
  ``0 <= w < 2**64``.  With ``m' = m - 2**64`` (between 1 and
  ``2**64 - 1``) that is ``(w + (w * m' >> 64)) >> l``, whose terms fit
  a lane: ``w * m' < 2**128`` and the sum is below ``2**65``.  Masks
  drop what the shifts bring in from the next lane, and ``w - (w // n) * n``
  borrows from no lane.  Only the residues are unpacked.
* byte residues: for ``n <= 256`` a residue fits in the low byte of its
  lane, so lane ``i``'s residue is byte ``16 i`` of the residues'
  ``to_bytes(16 * lanes, "little")`` on any machine, and
  ``RandomStream._split_randrange_bytes`` returns the draws as one
  ``bytes`` slice of them, with no int made per draw.
* constants: a value repeated in every lane is built once in ``_BATCH``
  lanes and the top lanes cut off for a smaller block, and the word
  counters of a block are the low lanes of those of a ``_BATCH``-lane
  block, so blocks of every size share them.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_LEAP = 0xD1B54A32D192ED03
_BIG_ENDIAN = sys.byteorder == "big"
_BATCH = 4096  # most words mixed in one kernel call, and draws in one Monte Carlo block


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
    """64-bit ``words`` (a sequence or an ``array("Q")``) in 128-bit lanes
    of one int, each word in ``k`` consecutive lanes.  The copies go in
    by strided slices, as many as the smaller of ``k`` and the number of
    words."""
    column = array("Q", words)
    spaced = array("Q", bytes(16 * len(column) * k))
    if k <= len(column):
        for i in range(0, 2 * k, 2):
            spaced[i::2 * k] = column
    else:
        for t in range(len(column)):
            spaced[2 * k * t:2 * k * (t + 1):2] = column[t:t + 1] * k
    if _BIG_ENDIAN:
        spaced.byteswap()
    return int.from_bytes(spaced, "little")


def _low_halves(x: int, lanes: int) -> array:
    """The low 64 bits of each of the first ``lanes`` lanes of ``x``, as
    an ``array("Q")``."""
    spaced = array("Q", x.to_bytes(16 * lanes, "little"))
    if _BIG_ENDIAN:
        spaced.byteswap()
    return spaced[::2]


def _unpack(x: int, lanes: int) -> list[int]:
    """The low 64 bits of each of the first ``lanes`` lanes of ``x``."""
    return _low_halves(x, lanes).tolist()


@lru_cache(maxsize=8)
def _lanes(value: int, lanes: int) -> int:
    """The 128-bit ``value`` in each of ``lanes`` lanes.  Up to ``_BATCH``
    lanes are cut from one copy of ``value`` in ``_BATCH`` lanes, so
    blocks of different sizes share one build."""
    width = max(lanes, _BATCH)
    wide = _repeated(value, width)
    return wide >> 128 * (width - lanes) if width > lanes else wide


@lru_cache(maxsize=16)
def _repeated(value: int, lanes: int) -> int:
    """The 128-bit ``value`` in each of ``lanes`` lanes, built in bytes."""
    return int.from_bytes(value.to_bytes(16, "little") * lanes, "little")


@lru_cache(maxsize=4)
def _iota(lanes: int) -> int:
    """``0, 1, .., lanes - 1``, one per lane."""
    return _pack(range(lanes))


def _mix_lanes(x: int, lanes: int) -> int:
    """:func:`mix` in every lane of ``x`` (upper lane halves zero); the
    upper halves of the result hold junk, dropped by a mask or by
    :func:`_unpack`."""
    low = _lanes(_MASK, lanes)
    x ^= x >> 30
    x = (x & low) * 0xBF58476D1CE4E5B9 & low
    x ^= x >> 27
    x = (x & low) * 0x94D049BB133111EB & low
    return x ^ x >> 31


@lru_cache(maxsize=8)
def _counter_lanes(done: int, k: int, streams: int) -> int:
    """``(done + i) * _GOLDEN`` modulo ``2**64`` for ``i = 1..k``, once
    per stream."""
    counts = array("Q", range(done + 1, done + k + 1)) * streams
    return _pack(counts) * _GOLDEN & _lanes(_MASK, k * streams)


def _stream_lanes(keys, done: int, k: int) -> int:
    """Words ``done + 1 .. done + k`` of the stream with each key in
    ``keys``, stream after stream, one per lane (upper halves zero).

    The counters are the low lanes of those for at least ``_BATCH``
    lanes, more words of one stream or more streams, so blocks of any
    size share them; the mask drops the rest of the sum."""
    streams = len(keys)
    lanes = streams * k
    low = _lanes(_MASK, lanes)
    if streams == 1:
        counters = _counter_lanes(done, max(k, _BATCH), 1)
    else:
        counters = _counter_lanes(done, k, max(streams, _BATCH // max(k, 1)))
    x = (_pack(keys, k) + counters) & low
    return _mix_lanes(x, lanes) & low


def _child_keys(key: int, children: range) -> array:
    """The key of child ``j`` of the stream with ``key``, for each ``j`` in
    ``children``: ``mix(key ^ (j + 1) * _LEAP)``, made in lanes from the
    arithmetic progression ``children``."""
    t = len(children)
    low, ones = _lanes(_MASK, t), _lanes(1, t)
    j_plus_1 = ((children.start + 1) & _MASK) * ones + (children.step & _MASK) * _iota(t) & low
    return _low_halves(_mix_lanes(j_plus_1 * _LEAP & low ^ key * ones, t), t)


def _rejects(x: int, lanes: int, n: int) -> bool:
    """Whether a word of ``x`` (one per lane, upper halves zero) is at or
    above ``_limit(n)``: exactly then bit 64 of ``word + 2**64 % n`` is
    set.  A power of two rejects no word."""
    return bool(n & (n - 1)) and bool(
        x + _lanes((1 << 64) % n, lanes) & _lanes(1 << 64, lanes))


def _residue_lanes(x: int, lanes: int, n: int) -> int:
    """Each word of ``x`` (one per lane, upper halves zero) modulo ``n``,
    in the same lanes (upper halves zero)."""
    if not n & (n - 1):
        return x & _lanes(n - 1, lanes)
    low = _lanes(_MASK, lanes)
    shift = n.bit_length()  # 2**(shift - 1) < n < 2**shift
    magic = (1 << 64 + shift) // n + 1 - (1 << 64)
    quotients = x + (x * magic >> 64 & low) >> shift & low
    return x - quotients * n


def _residues(x: int, lanes: int, n: int) -> list[int]:
    """Each word of ``x`` (one per lane, upper halves zero) modulo ``n``."""
    return _unpack(_residue_lanes(x, lanes, n), lanes)


def _low_bytes(x: int, lanes: int) -> bytes:
    """The low byte of each of the first ``lanes`` lanes of ``x``: byte
    ``16 i`` of its little-endian bytes, on any machine."""
    return x.to_bytes(16 * lanes, "little")[::16]


def _limit(n: int) -> int:
    """Words at or above this are rejected by :meth:`RandomStream.randrange`
    with bound ``n``.  A bound above ``2**64`` would reject every word."""
    if n < 1:
        raise ValueError(f"empty range, got n={n}")
    if n > 1 << 64:
        raise ValueError(f"bound must be at most 2**64, got n={n}")
    return (1 << 64) - ((1 << 64) % n)


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
            size = min(k - len(out), _BATCH)
            block = _stream_lanes((self._key,), self._count, size)
            self._count += size
            if _rejects(block, size, n):  # skip each rejected word
                out += [w % n for w in _unpack(block, size) if w < limit]
            else:
                out += _residues(block, size, n)
        return out

    def split_randrange_many(self, children: range, n: int, k: int) -> list[int]:
        """``self.split(j).randrange_many(n, k)`` for each ``j`` in
        ``children``, joined in that order; this stream does not move.

        All ``len(children) * k`` words go through one kernel call, so
        keep blocks to a few thousand words.
        """
        return self._split_draws(children, n, k, _unpack)

    def _split_randrange_bytes(self, children: range, n: int, k: int) -> bytes:
        """:meth:`split_randrange_many` as ``bytes``, for ``n <= 256``: the
        same kernel call and words, with no int made per draw."""
        if n > 256:
            raise ValueError(f"byte draws need a bound of at most 256, got n={n}")
        return bytes(self._split_draws(children, n, k, _low_bytes))

    def _split_draws(self, children: range, n: int, k: int, unpack):
        """The draws of :meth:`split_randrange_many`: ``unpack`` of the
        residue lanes, or a list for a block with a rejected word, which
        is drawn word by word."""
        if min(children, default=0) < 0:
            raise ValueError(f"child indices must be nonnegative, got {children}")
        limit = _limit(n)
        lanes = len(children) * k
        block = _stream_lanes(_child_keys(self._key, children), 0, k)
        if not _rejects(block, lanes, n):
            return unpack(_residue_lanes(block, lanes, n), lanes)
        words = _unpack(block, lanes)
        out: list[int] = []
        for j, first in zip(children, range(0, lanes, k)):
            mine = words[first:first + k]
            if max(mine) < limit:
                out += [w % n for w in mine]
            else:  # a rejected word: this child needs words past its k-th
                out += self.split(j).randrange_many(n, k)
        return out

    def split(self, j: int) -> "RandomStream":
        """Child stream number ``j``, independent of this one."""
        if j < 0:
            raise ValueError(f"child index must be nonnegative, got {j}")
        return RandomStream(mix((self._key ^ ((j + 1) * _LEAP)) & _MASK))

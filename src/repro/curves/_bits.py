"""Bit-manipulation substrate shared by the discrete curves.

Provides Morton (bit-interleaving) codecs and Gray-code transforms, in both
scalar (arbitrary-precision Python int) and vectorized (numpy ``int64``)
forms.  The vectorized forms cap the total key width at 62 bits, which is
ample for every universe used in the paper (the largest is ``2**10`` per
axis in 2-D and ``2**9`` per axis in 3-D, i.e. 20 and 27 key bits).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import InvalidUniverseError

#: Maximum total key width supported by the vectorized int64 code paths:
#: the ``_VECTOR_KEY_BITS`` of the curves built on them.
MAX_VECTOR_BITS = 62


def bits_for_side(side: int) -> int:
    """Number of bits needed per coordinate for a power-of-two side.

    Raises :class:`InvalidUniverseError` when ``side`` is not a power of two.
    """
    if side < 1 or side & (side - 1):
        raise InvalidUniverseError(f"side must be a power of two, got {side}")
    return max(1, side.bit_length() - 1) if side > 1 else 1


def interleave(coords: Sequence[int], bits: int) -> int:
    """Interleave ``len(coords)`` coordinates of ``bits`` bits into a Morton key.

    Bit ``b`` of coordinate ``i`` lands at key position ``b*d + i`` where
    dimension 0 contributes the least significant bit of each group, i.e.
    coordinate 0 is the *fastest varying* axis under key order.
    """
    dim = len(coords)
    key = 0
    for b in range(bits):
        for i, c in enumerate(coords):
            key |= ((int(c) >> b) & 1) << (b * dim + i)
    return key


def deinterleave(key: int, dim: int, bits: int) -> List[int]:
    """Inverse of :func:`interleave`: split a Morton key into coordinates."""
    coords = [0] * dim
    for b in range(bits):
        for i in range(dim):
            coords[i] |= ((int(key) >> (b * dim + i)) & 1) << b
    return coords


def gray_encode(value: int) -> int:
    """Binary-reflected Gray code of ``value``."""
    v = int(value)
    return v ^ (v >> 1)


def gray_decode(gray: int) -> int:
    """Inverse of :func:`gray_encode` (prefix-xor of the bits)."""
    g = int(gray)
    value = 0
    while g:
        value ^= g
        g >>= 1
    return value


def _check_vector_width(dim: int, bits: int) -> None:
    if dim * bits > MAX_VECTOR_BITS:
        raise InvalidUniverseError(
            f"vectorized path supports at most {MAX_VECTOR_BITS} key bits; "
            f"dim={dim} bits={bits} needs {dim * bits}"
        )


def interleave_many(coords: np.ndarray, bits: int) -> np.ndarray:
    """Vectorized :func:`interleave` over an ``(n, dim)`` int array."""
    coords = np.asarray(coords, dtype=np.int64)
    if coords.ndim != 2:
        raise ValueError(f"expected (n, dim) array, got shape {coords.shape}")
    dim = coords.shape[1]
    _check_vector_width(dim, bits)
    keys = np.zeros(coords.shape[0], dtype=np.int64)
    for b in range(bits):
        for i in range(dim):
            keys |= ((coords[:, i] >> b) & 1) << (b * dim + i)
    return keys


def deinterleave_many(keys: np.ndarray, dim: int, bits: int) -> np.ndarray:
    """Vectorized :func:`deinterleave`; returns an ``(n, dim)`` int64 array."""
    keys = np.asarray(keys, dtype=np.int64)
    _check_vector_width(dim, bits)
    coords = np.zeros((keys.shape[0], dim), dtype=np.int64)
    for b in range(bits):
        for i in range(dim):
            coords[:, i] |= ((keys >> (b * dim + i)) & 1) << b
    return coords


def gray_encode_many(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`gray_encode`."""
    v = np.asarray(values, dtype=np.int64)
    return v ^ (v >> 1)


def gray_decode_many(grays: np.ndarray, bits: int) -> np.ndarray:
    """Vectorized :func:`gray_decode` for values of at most ``bits`` bits.

    Uses the logarithmic prefix-xor trick: xor-ing with shifts of 1, 2, 4, …
    until the shift exceeds the word width.
    """
    value = np.asarray(grays, dtype=np.int64).copy()
    shift = 1
    while shift < bits:
        value ^= value >> shift
        shift <<= 1
    return value

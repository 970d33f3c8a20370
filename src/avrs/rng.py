"""Seed derivation and counter-mode random generation.

All randomness in the package flows from 64-bit integer seeds.  A master
seed is split hierarchically with :func:`derive_seed`, so any subsystem or
trial can be replayed in isolation.  Streams are built on Philox, a
counter-based generator whose output is reproducible bit-for-bit across
platforms and runs.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "derive_seed",
    "philox_key",
    "philox_stream",
    "rekey",
    "cumulative",
    "inverse_cdf",
    "sample_indices",
    "sample_rows",
]


def _encode(part: int | str) -> bytes:
    if isinstance(part, bool):
        raise TypeError("bool is not a valid seed path component")
    if isinstance(part, int):
        return b"i" + part.to_bytes(16, "little", signed=True)
    if isinstance(part, str):
        data = part.encode("utf-8")
        return b"s" + len(data).to_bytes(4, "little") + data
    raise TypeError(f"unsupported seed path component: {part!r}")


def _digest(master: int, path: tuple[int | str, ...]) -> bytes:
    """SHA-256 over the canonical encoding of ``master`` and ``path``."""
    h = hashlib.sha256()
    for part in (master, *path):
        h.update(_encode(part))
    return h.digest()


def derive_seed(master: int, *path: int | str) -> int:
    """Derive a child seed from ``master`` and a label path.

    The derivation is SHA-256 over a canonical encoding of the path, so it is
    stable across platforms and Python versions.  Distinct paths give
    independent streams.
    """
    return int.from_bytes(_digest(master, path)[:8], "little")


def philox_key(seed: int, *path: int | str) -> np.ndarray:
    """128-bit Philox key derived from ``seed`` and an optional label path."""
    return np.frombuffer(_digest(seed, path)[:16], dtype=np.uint64).copy()


def philox_stream(seed: int, *path: int | str) -> np.random.Generator:
    """Counter-mode generator keyed by ``seed`` and an optional label path."""
    return np.random.Generator(np.random.Philox(key=philox_key(seed, *path)))


def rekey(gen: np.random.Generator, key: np.ndarray) -> np.random.Generator:
    """Reset a Philox-backed ``gen`` to the start of the stream of ``key``.

    Afterwards ``gen`` draws exactly what
    ``np.random.Generator(np.random.Philox(key=key))`` would, without the
    entropy gathering a fresh Philox does before its key is set.  Every
    caller re-keys its own generator, so no two threads share one.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def cumulative(pmf: np.ndarray) -> np.ndarray:
    """The CDF of each pmf along the last axis, its last entry set to exactly
    1.0, so :func:`inverse_cdf` never passes the last symbol."""
    cdf = np.cumsum(pmf, axis=-1)
    cdf[..., -1] = 1.0
    return cdf


def inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF symbols of the uniforms ``u``: for each position, the
    number of k < K - 1 with u >= cdf[..., k], in the smallest integer type
    that holds K - 1.

    ``cdf`` (..., K) is one CDF for all of ``u`` or one per position, and
    comes from :func:`cumulative`.  That count is
    ``np.searchsorted(cdf, u, side="right")``, because cdf[..., -1] is 1.0
    and u < 1; symbols with zero probability are never produced.
    """
    k = cdf.shape[-1]
    out = np.zeros(np.broadcast_shapes(u.shape, cdf.shape[:-1]), dtype=np.min_scalar_type(k - 1))
    for edge in range(k - 1):
        out += u >= cdf[..., edge]
    return out


def sample_indices(
    gen: np.random.Generator, pmf: np.ndarray, shape: int | tuple[int, ...]
) -> np.ndarray:
    """Draw an array of the given shape of symbols from one pmf, taking one
    uniform variate per symbol from ``gen`` in row-major order."""
    return inverse_cdf(cumulative(pmf), gen.random(shape))


def sample_rows(gen: np.random.Generator, rows: np.ndarray) -> np.ndarray:
    """Draw one symbol per row of an (m, k) stack of pmfs, taking one
    uniform variate per row from ``gen``, in row order."""
    return inverse_cdf(cumulative(rows), gen.random(rows.shape[0]))

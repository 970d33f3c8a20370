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
    "sample_indices",
    "inverse_cdf",
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


def sample_indices(gen: np.random.Generator, pmf: np.ndarray, size: int) -> np.ndarray:
    """Draw ``size`` symbols from a pmf by inverse-CDF on uniform variates.

    Symbols with zero probability are never produced: their CDF interval is
    empty.  The uniform draws come from ``gen``, so the output is reproducible
    for a fixed generator state.
    """
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0
    u = gen.random(size)
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


def inverse_cdf(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The symbol of each pmf of a (..., k) stack of rows at the uniform
    variate of the same position of ``u`` (shape (...)); symbols with zero
    probability are never produced."""
    cdf = np.cumsum(rows, axis=-1)
    cdf[..., -1] = 1.0
    return (u[..., None] >= cdf).sum(axis=-1)


def sample_rows(gen: np.random.Generator, rows: np.ndarray) -> np.ndarray:
    """Draw one symbol per row of an (m, k) stack of pmfs by inverse CDF,
    taking one uniform variate per row from ``gen``, in row order."""
    return inverse_cdf(rows, gen.random(rows.shape[0]))

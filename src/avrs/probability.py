"""Exact finite-alphabet probability and information arithmetic.

Everything in this module is a dense table over small alphabets.  All
information quantities are in bits (base-2 logarithms) with the convention
0·log 0 = 0.  Values are immutable after construction and safe to share
across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "PROB_TOL",
    "Alphabet",
    "Distribution",
    "CondDistribution",
    "Channel",
    "DistortionMatrix",
    "xlog2x",
    "entropy_bits",
    "mutual_information_bits",
]

PROB_TOL = 1e-9


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Alphabet:
    """A finite symbol set; symbols are the indices ``0 .. size-1``."""

    name: str
    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ConfigurationError(f"alphabet {self.name!r}: size must be >= 1")


@dataclass(frozen=True)
class Distribution:
    """A pmf over one alphabet."""

    alphabet: Alphabet
    mass: np.ndarray

    def __post_init__(self) -> None:
        mass = np.asarray(self.mass, dtype=np.float64)
        if mass.shape != (self.alphabet.size,):
            raise ConfigurationError(
                f"pmf over {self.alphabet.name!r} has shape {mass.shape}, "
                f"expected ({self.alphabet.size},)"
            )
        if np.any(mass < 0):
            raise ConfigurationError(f"pmf over {self.alphabet.name!r} has negative entries")
        if abs(float(mass.sum()) - 1.0) > PROB_TOL:
            raise ConfigurationError(
                f"pmf over {self.alphabet.name!r} sums to {mass.sum():.12f}, not 1"
            )
        object.__setattr__(self, "mass", _frozen(mass))


@dataclass(frozen=True)
class CondDistribution:
    """A stochastic matrix: one pmf over ``to_alphabet`` per conditioning symbol."""

    from_alphabet: Alphabet
    to_alphabet: Alphabet
    matrix: np.ndarray  # shape (|from|, |to|), rows sum to 1

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.float64)
        expected = (self.from_alphabet.size, self.to_alphabet.size)
        if m.shape != expected:
            raise ConfigurationError(
                f"conditional {self.to_alphabet.name!r}|{self.from_alphabet.name!r}: "
                f"shape {m.shape}, expected {expected}"
            )
        if np.any(m < 0):
            raise ConfigurationError("conditional distribution has negative entries")
        sums = m.sum(axis=1)
        bad = np.where(np.abs(sums - 1.0) > PROB_TOL)[0]
        if bad.size:
            raise ConfigurationError(
                f"conditional row {bad[0]} sums to {sums[bad[0]]:.12f}, not 1"
            )
        object.__setattr__(self, "matrix", _frozen(m))


@dataclass(frozen=True)
class Channel:
    """Two-input two-output memoryless channel kernel p(y, z | x, j)."""

    x_alphabet: Alphabet
    j_alphabet: Alphabet
    y_alphabet: Alphabet
    z_alphabet: Alphabet
    kernel: np.ndarray  # shape (|X|, |J|, |Y|, |Z|)

    def __post_init__(self) -> None:
        k = np.asarray(self.kernel, dtype=np.float64)
        expected = (
            self.x_alphabet.size,
            self.j_alphabet.size,
            self.y_alphabet.size,
            self.z_alphabet.size,
        )
        if k.shape != expected:
            raise ConfigurationError(f"channel kernel shape {k.shape}, expected {expected}")
        if np.any(k < 0):
            raise ConfigurationError("channel kernel has negative entries")
        sums = k.sum(axis=(2, 3))
        if np.any(np.abs(sums - 1.0) > PROB_TOL):
            x, j = np.unravel_index(int(np.argmax(np.abs(sums - 1.0))), sums.shape)
            raise ConfigurationError(
                f"channel kernel at (x={x}, j={j}) sums to {sums[x, j]:.12f}, not 1"
            )
        object.__setattr__(self, "kernel", _frozen(k))

    @property
    def y_marginal_kernel(self) -> np.ndarray:
        """p(y | x, j), shape (|X|, |J|, |Y|)."""
        return self.kernel.sum(axis=3)

    @property
    def z_marginal_kernel(self) -> np.ndarray:
        """p(z | x, j), shape (|X|, |J|, |Z|)."""
        return self.kernel.sum(axis=2)


@dataclass(frozen=True)
class DistortionMatrix:
    """Per-letter distortion d(x, x̂) >= 0 with its maximum cached."""

    x_alphabet: Alphabet
    xhat_alphabet: Alphabet
    entries: np.ndarray
    d_max: float = field(init=False)

    def __post_init__(self) -> None:
        e = np.asarray(self.entries, dtype=np.float64)
        expected = (self.x_alphabet.size, self.xhat_alphabet.size)
        if e.shape != expected:
            raise ConfigurationError(f"distortion matrix shape {e.shape}, expected {expected}")
        if not np.all(np.isfinite(e)):
            raise ConfigurationError("distortion matrix has non-finite entries")
        if np.any(e < 0):
            raise ConfigurationError("distortion matrix has negative entries")
        object.__setattr__(self, "entries", _frozen(e))
        object.__setattr__(self, "d_max", float(e.max()))


def xlog2x(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """m·log2(m) elementwise, with 0·log 0 = 0, as a new array or into
    ``out`` (which must not share memory with ``m``)."""
    # a zero entry takes the log of the smallest subnormal, a finite number
    # that the zero factor cancels exactly
    t = np.maximum(m, 5e-324, out=np.empty_like(m) if out is None else out)
    np.log2(t, out=t)
    t *= m
    return t


def entropy_bits(mass: np.ndarray, axis: int | tuple[int, ...] | None = None) -> np.ndarray | float:
    """Shannon entropy in bits of a (possibly batched) non-negative table."""
    h = -xlog2x(np.asarray(mass, dtype=np.float64)).sum(axis=axis)
    return float(h) if np.ndim(h) == 0 else h


def mutual_information_bits(p: np.ndarray) -> np.ndarray | float:
    """I(A;B) in bits for (possibly batched) joint tables of shape (..., A, B).

    Float residue below zero is clamped to zero.
    """
    h_a = entropy_bits(p.sum(axis=-1), axis=-1)
    h_b = entropy_bits(p.sum(axis=-2), axis=-1)
    h_ab = entropy_bits(p, axis=(-2, -1))
    return np.maximum(h_a + h_b - h_ab, 0.0)

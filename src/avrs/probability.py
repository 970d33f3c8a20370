"""Exact finite-alphabet probability and information arithmetic.

Everything in this module is a dense table over small alphabets.  All
information quantities are in bits (base-2 logarithms) with the convention
0·log 0 = 0.  Input tables pass ``checked_table`` once, which hands back a
read-only copy that is safe to share across workers.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "PROB_TOL",
    "checked_table",
    "xlog2x",
    "entropy_bits",
    "mutual_information_bits",
]

PROB_TOL = 1e-9


def checked_table(
    values, what: str, ndim: int | tuple[int, ...], pmf_axes: tuple[int, ...] | None = None
) -> np.ndarray:
    """``values`` as a read-only, C-contiguous float64 copy with ``ndim``
    non-empty axes (or any count in ``ndim`` when it is a tuple).

    Raises ConfigurationError unless every entry is a finite, non-negative
    number (an integer or a float, not a bool or a string) and, when
    ``pmf_axes`` is given, every slice over those axes sums to 1 within
    PROB_TOL.
    """
    try:
        raw = np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{what}: not a numeric array ({exc})") from None
    if raw.dtype.kind not in "iuf":
        raise ConfigurationError(f"{what}: not a numeric array (entries of dtype {raw.dtype})")
    # np.asarray promotes a bool mixed with numbers, so check a list's entries
    if not isinstance(values, np.ndarray) and any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat
    ):
        raise ConfigurationError(f"{what}: not a numeric array (a boolean entry)")
    a = np.array(raw, dtype=np.float64, order="C")
    if a.ndim not in np.atleast_1d(ndim) or 0 in a.shape:
        expected = " or ".join(map(str, np.atleast_1d(ndim)))
        raise ConfigurationError(f"{what} has shape {a.shape}; expected {expected} non-empty axes")
    if not np.all(np.isfinite(a)):
        raise ConfigurationError(f"{what} has non-finite entries")
    if np.any(a < 0):
        raise ConfigurationError(f"{what} has negative entries")
    if pmf_axes is not None:
        off = np.abs(a.sum(axis=pmf_axes) - 1.0)
        if np.any(off > PROB_TOL):
            at = np.unravel_index(int(np.argmax(off)), off.shape)
            where = f" at {tuple(map(int, at))}" if at else ""
            total = a.sum(axis=pmf_axes)[at]
            raise ConfigurationError(f"{what}{where} sums to {total:.12f}, not 1")
    a.setflags(write=False)
    return a


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

"""Problem instances and auxiliary coding policies, with their JSON formats.

A problem instance couples a source distribution, a two-output jammed
channel and a distortion measure.  A policy couples a test channel p(u|y)
with a symbolwise reconstruction map zeta(u, z).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .probability import checked_table

__all__ = [
    "ProblemSpec",
    "AuxiliaryPolicy",
    "index_table",
    "problem_spec_from_dict",
    "policy_from_dict",
    "load_problem_spec",
    "load_policy",
    "read_json",
]


@dataclass(frozen=True)
class ProblemSpec:
    """A finite-alphabet instance: three read-only float64 arrays whose
    shapes are the alphabet sizes, ``nx, nj, ny, nz = w.shape`` and
    ``nxhat = d.shape[1]``.

    ``p_x`` (X,) is the source pmf, positive everywhere; ``w`` (X, J, Y, Z)
    is the channel p(y, z | x, j); ``d`` (X, X̂) is the distortion.
    """

    p_x: np.ndarray
    w: np.ndarray
    d: np.ndarray
    name: str = "instance"

    def __post_init__(self) -> None:
        p_x = checked_table(self.p_x, "p_x", 1, (0,))
        w = checked_table(self.w, "w", 4, (2, 3))
        d = checked_table(self.d, "d", 2)
        if not p_x.shape[0] == w.shape[0] == d.shape[0]:
            raise ConfigurationError(
                f"p_x {p_x.shape}, w {w.shape} and d {d.shape} disagree on the size of X"
            )
        if np.any(p_x <= 0):
            raise ConfigurationError("every source symbol must have positive probability")
        object.__setattr__(self, "p_x", p_x)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "d", d)


def index_table(values, what: str, size: int | None = None) -> np.ndarray:
    """``values`` as a read-only, C-contiguous int64 copy, after checking that
    every entry is an integer (an integral number, not a bool or a string)
    in [0, size), or in the int64 range when ``size`` is None."""
    limit = np.iinfo(np.int64).max if size is None else size - 1
    entries = np.asarray(values, dtype=object)
    for v in entries.flat:
        integral = (
            isinstance(v, (int, np.integer))
            or isinstance(v, (float, np.floating)) and float(v).is_integer()
        ) and not isinstance(v, (bool, np.bool_))
        if not integral:
            raise ConfigurationError(f"{what}: entry {v!r} is not an integer")
        if not 0 <= v <= limit:
            raise ConfigurationError(f"{what}: entry {v!r} is outside [0, {limit}]")
    out = np.ascontiguousarray(entries.astype(np.int64))
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class AuxiliaryPolicy:
    """A test channel ``p_u_given_y`` (Y, U) and a reconstruction map
    ``zeta`` (U, Z) of indices into X̂, held as read-only arrays."""

    p_u_given_y: np.ndarray
    zeta: np.ndarray

    def __post_init__(self) -> None:
        p = checked_table(self.p_u_given_y, "p_u_given_y", 2, (1,))
        zeta = index_table(self.zeta, "zeta")
        if zeta.ndim != 2 or zeta.shape[0] != p.shape[1]:
            raise ConfigurationError(
                f"zeta has shape {zeta.shape}; expected one row per u ({p.shape[1]})"
            )
        object.__setattr__(self, "p_u_given_y", p)
        object.__setattr__(self, "zeta", zeta)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigurationError(msg)


def problem_spec_from_dict(doc: dict, source: str = "<dict>") -> ProblemSpec:
    """Build and validate a :class:`ProblemSpec` from its JSON document form."""
    _require(isinstance(doc, dict), f"{source}: top level must be an object")
    for field_name in ("alphabets", "p_x", "w", "d"):
        _require(field_name in doc, f"{source}: missing required field {field_name!r}")
    sizes = doc["alphabets"]
    _require(isinstance(sizes, dict), f"{source}: 'alphabets' must be an object")
    for key in ("x", "j", "y", "z", "xhat"):
        _require(key in sizes, f"{source}: alphabets missing {key!r}")
        _require(
            isinstance(sizes[key], int) and not isinstance(sizes[key], bool) and sizes[key] >= 1,
            f"{source}: alphabets[{key!r}] must be a positive integer",
        )
    try:
        spec = ProblemSpec(doc["p_x"], doc["w"], doc["d"], name=str(doc.get("name", "instance")))
    except ConfigurationError as exc:
        raise ConfigurationError(f"{source}: {exc}") from None
    x, j, y, z, xhat = (sizes[k] for k in ("x", "j", "y", "z", "xhat"))
    for key, shape in (("p_x", (x,)), ("w", (x, j, y, z)), ("d", (x, xhat))):
        got = getattr(spec, key).shape
        _require(got == shape, f"{source}: {key} has shape {got}, but the alphabets give {shape}")
    return spec


def read_json(path: str | Path) -> object:
    """Parse a JSON file; a read or syntax failure becomes a
    ConfigurationError naming the file (and the line and column)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"{path}: cannot read ({exc})") from None

    def refuse(token: str) -> float:
        raise ConfigurationError(f"{path}: {token} is not a JSON number")

    try:
        return json.loads(text, parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from None


def load_problem_spec(path: str | Path) -> ProblemSpec:
    return problem_spec_from_dict(read_json(path), source=str(Path(path)))


def policy_from_dict(doc: dict, spec: ProblemSpec, source: str = "<dict>") -> AuxiliaryPolicy:
    """Build a :class:`AuxiliaryPolicy` from its JSON document form and check
    that it fits ``spec``."""
    _require(isinstance(doc, dict), f"{source}: top level must be an object")
    for field_name in ("p_u_given_y", "zeta"):
        _require(field_name in doc, f"{source}: missing required field {field_name!r}")
    try:
        policy = AuxiliaryPolicy(doc["p_u_given_y"], doc["zeta"])
    except ConfigurationError as exc:
        raise ConfigurationError(f"{source}: {exc}") from None
    ny, nz, nxhat = spec.w.shape[2], spec.w.shape[3], spec.d.shape[1]
    _require(
        policy.p_u_given_y.shape[0] == ny,
        f"{source}: p_u_given_y must have {ny} rows (one per y)",
    )
    _require(
        policy.zeta.shape[1] == nz,
        f"{source}: zeta must be [u][z] with {nz} columns (one per z)",
    )
    _require(
        int(policy.zeta.max()) < nxhat,
        f"{source}: zeta table entries outside the reconstruction alphabet of size {nxhat}",
    )
    return policy


def load_policy(path: str | Path, spec: ProblemSpec) -> AuxiliaryPolicy:
    return policy_from_dict(read_json(path), spec, source=str(Path(path)))

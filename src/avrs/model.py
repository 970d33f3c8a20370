"""Problem instances and auxiliary coding policies, with their JSON formats.

A problem instance couples a source distribution, a two-output jammed
channel and a distortion measure.  A policy couples a test channel p(u|y)
with a symbolwise reconstruction map zeta(u, z).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .probability import (
    Alphabet,
    Channel,
    CondDistribution,
    Distribution,
    DistortionMatrix,
)

__all__ = [
    "ProblemSpec",
    "AuxiliaryPolicy",
    "problem_spec_from_dict",
    "policy_from_dict",
    "load_problem_spec",
    "load_policy",
    "read_json",
]


@dataclass(frozen=True)
class ProblemSpec:
    """A finite-alphabet instance: alphabets, source pmf, channel, distortion."""

    p_x: Distribution
    w: Channel
    d: DistortionMatrix
    name: str = "instance"

    def __post_init__(self) -> None:
        if self.p_x.alphabet != self.w.x_alphabet:
            raise ConfigurationError("source pmf alphabet does not match channel X input")
        if self.d.x_alphabet != self.w.x_alphabet:
            raise ConfigurationError("distortion X alphabet does not match channel X input")
        if np.any(self.p_x.mass <= 0):
            raise ConfigurationError("every source symbol must have positive probability")

    @property
    def x_alphabet(self) -> Alphabet:
        return self.w.x_alphabet

    @property
    def j_alphabet(self) -> Alphabet:
        return self.w.j_alphabet

    @property
    def y_alphabet(self) -> Alphabet:
        return self.w.y_alphabet

    @property
    def z_alphabet(self) -> Alphabet:
        return self.w.z_alphabet

    @property
    def xhat_alphabet(self) -> Alphabet:
        return self.d.xhat_alphabet


@dataclass(frozen=True)
class AuxiliaryPolicy:
    """A test channel p(u|y) plus a total reconstruction map zeta: U x Z -> X̂."""

    p_u_given_y: CondDistribution
    zeta: np.ndarray  # shape (|U|, |Z|), entries index the reconstruction alphabet
    z_alphabet: Alphabet
    xhat_alphabet: Alphabet
    u_alphabet: Alphabet = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "u_alphabet", self.p_u_given_y.to_alphabet)
        z = np.asarray(self.zeta, dtype=np.int64)
        expected = (self.u_alphabet.size, self.z_alphabet.size)
        if z.shape != expected:
            raise ConfigurationError(f"zeta table shape {z.shape}, expected {expected}")
        if z.min() < 0 or z.max() >= self.xhat_alphabet.size:
            raise ConfigurationError("zeta table entries outside the reconstruction alphabet")
        z = np.ascontiguousarray(z)
        z.setflags(write=False)
        object.__setattr__(self, "zeta", z)

    @property
    def u_size(self) -> int:
        return self.u_alphabet.size


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigurationError(msg)


def _as_nested_floats(obj: object, path: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: not a numeric array ({exc})") from None
    return arr


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
            isinstance(sizes[key], int) and sizes[key] >= 1,
            f"{source}: alphabets[{key!r}] must be a positive integer",
        )
    ax = Alphabet("X", sizes["x"])
    aj = Alphabet("J", sizes["j"])
    ay = Alphabet("Y", sizes["y"])
    az = Alphabet("Z", sizes["z"])
    ah = Alphabet("Xhat", sizes["xhat"])

    p_x_arr = _as_nested_floats(doc["p_x"], f"{source}: p_x")
    _require(p_x_arr.shape == (ax.size,), f"{source}: p_x must have length {ax.size}")
    w_arr = _as_nested_floats(doc["w"], f"{source}: w")
    _require(
        w_arr.shape == (ax.size, aj.size, ay.size, az.size),
        f"{source}: w must be nested [x][j][y][z] with shape "
        f"({ax.size}, {aj.size}, {ay.size}, {az.size}), got {w_arr.shape}",
    )
    d_arr = _as_nested_floats(doc["d"], f"{source}: d")
    _require(
        d_arr.shape == (ax.size, ah.size),
        f"{source}: d must be [x][xhat] with shape ({ax.size}, {ah.size})",
    )
    try:
        spec = ProblemSpec(
            p_x=Distribution(ax, p_x_arr),
            w=Channel(ax, aj, ay, az, w_arr),
            d=DistortionMatrix(ax, ah, d_arr),
            name=str(doc.get("name", "instance")),
        )
    except ConfigurationError as exc:
        raise ConfigurationError(f"{source}: {exc}") from None
    return spec


def read_json(path: str | Path) -> object:
    """Parse a JSON file; a read or syntax failure becomes a
    ConfigurationError naming the file (and the line and column)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"{path}: cannot read ({exc})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from None


def load_problem_spec(path: str | Path) -> ProblemSpec:
    return problem_spec_from_dict(read_json(path), source=str(Path(path)))


def policy_from_dict(doc: dict, spec: ProblemSpec, source: str = "<dict>") -> AuxiliaryPolicy:
    _require(isinstance(doc, dict), f"{source}: top level must be an object")
    for field_name in ("p_u_given_y", "zeta"):
        _require(field_name in doc, f"{source}: missing required field {field_name!r}")
    mat = _as_nested_floats(doc["p_u_given_y"], f"{source}: p_u_given_y")
    _require(mat.ndim == 2, f"{source}: p_u_given_y must be a matrix [y][u]")
    _require(
        mat.shape[0] == spec.y_alphabet.size,
        f"{source}: p_u_given_y must have {spec.y_alphabet.size} rows (one per y)",
    )
    u_alphabet = Alphabet("U", mat.shape[1])
    zeta = np.asarray(doc["zeta"])
    _require(
        zeta.ndim == 2 and zeta.shape == (u_alphabet.size, spec.z_alphabet.size),
        f"{source}: zeta must be [u][z] with shape ({u_alphabet.size}, {spec.z_alphabet.size})",
    )
    try:
        policy = AuxiliaryPolicy(
            p_u_given_y=CondDistribution(spec.y_alphabet, u_alphabet, mat),
            zeta=zeta,
            z_alphabet=spec.z_alphabet,
            xhat_alphabet=spec.xhat_alphabet,
        )
    except ConfigurationError as exc:
        raise ConfigurationError(f"{source}: {exc}") from None
    return policy


def load_policy(path: str | Path, spec: ProblemSpec) -> AuxiliaryPolicy:
    return policy_from_dict(read_json(path), spec, source=str(Path(path)))

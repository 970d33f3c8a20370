"""Shared instance builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from avrs.model import AuxiliaryPolicy, ProblemSpec
from avrs.mtypes import TypeTable


def type_of(block, size: int) -> TypeTable:
    """The type of a one-dimensional symbol block over an alphabet of ``size``."""
    return TypeTable(np.bincount(block, minlength=size), len(block))


def make_spec(p_x, kernel, d) -> ProblemSpec:
    return ProblemSpec(np.asarray(p_x), np.asarray(kernel), np.asarray(d))


def classical_spec(p0=0.5) -> ProblemSpec:
    """No jammer, Y = X, Z constant, Hamming distortion."""
    k = np.zeros((2, 1, 2, 1))
    k[0, 0, 0, 0] = 1.0
    k[1, 0, 1, 0] = 1.0
    return make_spec([p0, 1 - p0], k, [[0, 1], [1, 0]])


def xor_spec() -> ProblemSpec:
    """Y = X xor J, Z constant, uniform binary X, Hamming distortion."""
    k = np.zeros((2, 2, 2, 1))
    for x in range(2):
        for j in range(2):
            k[x, j, x ^ j, 0] = 1.0
    return make_spec([0.5, 0.5], k, [[0, 1], [1, 0]])


def identity_z_spec() -> ProblemSpec:
    """Z = X exactly (decoder sees the source), Y constant, binary jammer."""
    k = np.zeros((2, 2, 1, 2))
    for x in range(2):
        for j in range(2):
            k[x, j, 0, x] = 1.0
    return make_spec([0.5, 0.5], k, [[0, 1], [1, 0]])


def wz_spec(flip_y=0.1, jam_extra=0.25, flip_z=0.2) -> ProblemSpec:
    """Binary source; Y is a jammed noisy copy, Z an unjammed noisy copy."""
    k = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for j in range(2):
            py1 = (flip_y + jam_extra * j) if x == 0 else 1 - (flip_y + jam_extra * j)
            pz1 = flip_z if x == 0 else 1 - flip_z
            for y in range(2):
                for z in range(2):
                    k[x, j, y, z] = (py1 if y == 1 else 1 - py1) * (pz1 if z == 1 else 1 - pz1)
    return make_spec([0.5, 0.5], k, [[0, 1], [1, 0]])


def blind_y_spec() -> ProblemSpec:
    """Y is independent of X and of the jammer, so I(U;Y|Z) = 0 for every
    policy and jammer; Z is a jammed noisy copy of X."""
    k = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for j in range(2):
            flip_z = 0.2 if j == 0 else 0.4
            for y in range(2):
                for z in range(2):
                    k[x, j, y, z] = (0.3 if y == 0 else 0.7) * (1 - flip_z if z == x else flip_z)
    return make_spec([0.4, 0.6], k, [[0, 1], [1, 0]])


def dense_instance(rng: np.random.Generator) -> ProblemSpec:
    """Random 3x2x2x2x3 instance with every channel entry positive."""
    kernel = rng.dirichlet(np.ones(4), size=(3, 2)).reshape(3, 2, 2, 2)
    d = rng.uniform(0.5, 1.5, size=(3, 3))
    d[np.arange(3), np.arange(3)] = 0.0
    return make_spec(rng.dirichlet(np.ones(3)) * 0.7 + 0.1, kernel, d)


def two_view_instance(rng: np.random.Generator) -> ProblemSpec:
    """Random 3x2x2x2x3 instance with a visible gap between the floors: Y
    reads whether x >= 1 through a flip the jammer raises, Z reads whether
    x <= 1 through a flip it cannot touch, and every wrong reconstruction
    costs about 1."""
    flip_y = (rng.uniform(0.03, 0.07), rng.uniform(0.25, 0.35))
    flip_z = rng.uniform(0.12, 0.18)
    k = np.zeros((3, 2, 2, 2))
    for x in range(3):
        for j in range(2):
            for y in range(2):
                for z in range(2):
                    py = 1 - flip_y[j] if y == int(x >= 1) else flip_y[j]
                    pz = 1 - flip_z if z == int(x <= 1) else flip_z
                    k[x, j, y, z] = py * pz
    d = rng.uniform(0.9, 1.1, size=(3, 3))
    d[np.arange(3), np.arange(3)] = 0.0
    weights = rng.uniform(0.8, 1.2, size=3)
    return make_spec(weights / weights.sum(), k, d)


def identity_policy(spec: ProblemSpec, u_size: int | None = None) -> AuxiliaryPolicy:
    """U = Y deterministically; reconstruction copies u (padded by need)."""
    _, _, ny, nz = spec.w.shape
    u_size = u_size or ny
    mat = np.zeros((ny, u_size))
    for y in range(ny):
        mat[y, min(y, u_size - 1)] = 1.0
    zeta = np.tile(np.arange(u_size)[:, None] % spec.d.shape[1], (1, nz))
    return AuxiliaryPolicy(mat, zeta)


def noisy_policy(spec: ProblemSpec, stay=0.85) -> AuxiliaryPolicy:
    """Binary test channel that follows y with probability ``stay``."""
    mat = np.array([[stay, 1 - stay], [1 - stay, stay]])
    zeta = np.tile(np.arange(2)[:, None], (1, spec.w.shape[3]))
    return AuxiliaryPolicy(mat, zeta)


def structured_instance(rng: np.random.Generator, nx: int = 2) -> ProblemSpec:
    """Random instance where Y reads a binary feature of X through noise the
    jammer can deepen but not erase, and Z is blind.  These keep a visible
    gap between the informed and blind distortion floors."""
    nj = int(rng.integers(1, 3))
    feature = rng.integers(0, 2, size=nx)
    while feature.min() == feature.max():
        feature = rng.integers(0, 2, size=nx)
    base = rng.uniform(0.02, 0.12)
    extra = rng.uniform(0.08, 0.3, size=nj)
    extra[0] = 0.0
    k = np.zeros((nx, nj, 2, 1))
    for x in range(nx):
        for j in range(nj):
            flip = min(base + extra[j], 0.45)
            p1 = 1 - flip if feature[x] == 1 else flip
            k[x, j, 1, 0] = p1
            k[x, j, 0, 0] = 1 - p1
    d = np.zeros((nx, 2))
    for x in range(nx):
        wrong = 1 - feature[x]
        d[x, feature[x]] = 0.0
        d[x, wrong] = rng.uniform(0.6, 1.0)
    p_x = 0.8 * rng.dirichlet(np.ones(nx)) + 0.2 / nx
    return make_spec(p_x, k, d)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250810)

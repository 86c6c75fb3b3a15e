"""Shared fixtures: assembled systems are expensive, so cache per session."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from tespect import assembly, companion, model


def build_system(
    operator: str = "laplacian",
    dimension: int = 1,
    size: int = 32,
    contrast: float = 3.0,
    family: str = assembly.POLYNOMIAL,
):
    op = model.OperatorSpec.preset_by_name(operator, dimension)
    dom = model.DomainSpec("interval" if dimension == 1 else "square")
    pot = model.PotentialSpec.constant(contrast, dimension)
    problem = model.validate_problem(op, dom, pot)
    basis = assembly.build_basis(problem, size, family)
    system = assembly.assemble_system(problem, basis)
    return problem, basis, system, assembly.whiten(system)


_CACHE: dict = {}


def cached_system(**kwargs):
    key = tuple(sorted(kwargs.items()))
    if key not in _CACHE:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _CACHE[key] = build_system(**kwargs)
    return _CACHE[key]


@pytest.fixture(scope="session")
def toy_whitened():
    return assembly.WhitenedSystem.from_matrices([[4.0]], [[5.0]])


@pytest.fixture(scope="session")
def toy_companion(toy_whitened):
    return companion.build_companion(toy_whitened)


@pytest.fixture(scope="session")
def defective_whitened():
    # the pencil A - lam B + lam^2 with A = I, B = 2I is (1 - lam)^2 I:
    # every vector chains at lam = 1
    return assembly.WhitenedSystem.from_matrices(np.eye(2), 2.0 * np.eye(2))


@pytest.fixture(scope="session")
def helmholtz32():
    return cached_system(operator="laplacian", size=32, contrast=3.0)


@pytest.fixture(scope="session")
def helmholtz48():
    return cached_system(operator="laplacian", size=48, contrast=3.0)


@pytest.fixture(scope="session")
def bilaplacian24():
    return cached_system(operator="bilaplacian", size=24, contrast=3.0)


def random_spd_pencil(rng: np.random.Generator, size: int):
    """Random whitened system: SPD stiffness, symmetric second coefficient."""
    q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    a = (q * rng.uniform(0.5, 50.0, size)) @ q.T
    b = rng.standard_normal((size, size))
    b = 0.5 * (b + b.T)
    return assembly.WhitenedSystem.from_matrices(0.5 * (a + a.T), b)


def dense_bw(wh):
    """The whitened B (N x N) assembled from its blocks B_w,b; zero off the blocks."""
    bw = np.zeros((wh.size, wh.size))
    for blk, bb in zip(wh.blocks, wh.b):
        bw[blk, blk] = bb
    return bw


def dense_d(comp):
    """The companion matrix D (2N x 2N) assembled from its blocks D_b.

    Block b's coordinates take the rows and columns ``blk`` of each half;
    D vanishes off the blocks.
    """
    n = comp.whitened.size
    halves = [[np.zeros((n, n)) for _ in range(2)] for _ in range(2)]
    for blk, d in zip(comp.whitened.blocks, comp.blocks):
        nb = blk.stop - blk.start
        for r in range(2):
            for c in range(2):
                halves[r][c][blk, blk] = d[r * nb : (r + 1) * nb, c * nb : (c + 1) * nb]
    return np.block(halves)


def pencil_companion(problem, size):
    """The companion system of one pencil: ``assemble_system``, ``whiten``, ``build_companion``."""
    system = assembly.assemble_system(problem, assembly.build_basis(problem, size))
    return companion.build_companion(assembly.whiten(system))


def sorted_roots(comp):
    """The roots of all blocks (``block_eigenvalues``), ordered as ``extract_spectrum`` orders them."""
    lams = np.concatenate(companion.block_eigenvalues(comp))
    return lams[np.lexsort((lams.imag, lams.real, np.abs(lams)))]


def companion_eigenvalues(comp):
    """Eigenvalues of D: those of each block D_b in block order, twins included."""
    return np.concatenate([spec.eigenvalues for spec in comp.eigen_data()])

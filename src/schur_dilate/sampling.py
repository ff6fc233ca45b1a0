"""Seeded random generators for operators used across the test harnesses.

Every function takes an explicit ``numpy.random.Generator`` so batches are
reproducible and reentrant.
"""

from __future__ import annotations

import numpy as np

from .linalg import dagger


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _generators(rng) -> tuple[list[np.random.Generator], bool]:
    """``rng`` as a list of generators, and whether it was a single one."""
    one = isinstance(rng, np.random.Generator)
    return ([rng] if one else list(rng)), one


def _complex(parts: np.ndarray) -> np.ndarray:
    """Complex Gaussians from stacked real and imaginary standard normals."""
    return (parts[0] + 1j * parts[1]) / np.sqrt(2)


def complex_gaussian(rng, rows: int, cols: int) -> np.ndarray:
    """Standard complex Gaussian matrix.

    ``rng`` may also be a sequence of generators (one may recur): each
    draws one matrix in turn, giving a ``(T, rows, cols)`` stack that holds
    exactly the matrices the draws one at a time would give.
    ``random_contraction``, ``random_hermitian`` and ``random_psd`` take
    such sequences too.
    """
    rngs, one = _generators(rng)
    parts = np.empty((2, len(rngs), rows, cols))
    for i, r in enumerate(rngs):
        r.standard_normal(out=parts[0, i])
        r.standard_normal(out=parts[1, i])
    g = _complex(parts)
    return g[0] if one else g


def random_contraction(rng, rows: int, cols: int, spectral_norm: float | None = None) -> np.ndarray:
    """Gaussian matrix rescaled to the requested operator norm (< 1 if omitted).

    For a sequence of generators, one stacked SVD gives all the norms.
    """
    rngs, one = _generators(rng)
    parts = np.empty((2, len(rngs), rows, cols))
    target = np.empty(len(rngs))
    for i, r in enumerate(rngs):
        r.standard_normal(out=parts[0, i])
        r.standard_normal(out=parts[1, i])
        target[i] = r.uniform(0.1, 1.0) if spectral_norm is None else spectral_norm
    g = _complex(parts)
    g *= (target / np.linalg.svd(g, compute_uv=False)[:, 0])[:, np.newaxis, np.newaxis]
    return g[0] if one else g


def random_unitary(rng, n: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Gaussian matrix."""
    q, r = np.linalg.qr(complex_gaussian(rng, n, n))
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_hermitian(rng, n: int) -> np.ndarray:
    g = complex_gaussian(rng, n, n)
    return (g + dagger(g)) / 2


def random_psd(rng, n: int) -> np.ndarray:
    g = complex_gaussian(rng, n, n)
    return dagger(g) @ g


def random_density(rng, n: int) -> np.ndarray:
    p = random_psd(rng, n)
    return p / np.trace(p).real


def random_normal_contraction(rng, n: int) -> np.ndarray:
    """U diag(lambda) U* with |lambda_i| <= 1: normal, hence also subnormal."""
    u = random_unitary(rng, n)
    lam = rng.uniform(0.0, 1.0, n) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    return (u * lam) @ dagger(u)


def random_coisometry(rng, rows: int, cols: int) -> np.ndarray:
    """M with M M* = I, taken as the leading rows of a Haar unitary."""
    if rows > cols:
        raise ValueError("co-isometry needs rows <= cols")
    return random_unitary(rng, cols)[:rows, :]


def random_isometry(rng, rows: int, cols: int) -> np.ndarray:
    """V with V*V = I, taken as the leading columns of a Haar unitary."""
    if cols > rows:
        raise ValueError("isometry needs cols <= rows")
    return random_unitary(rng, rows)[:, :cols]


def random_kraus_family(rng, in_dim: int, out_dim: int, count: int) -> list[np.ndarray]:
    """Trace-preserving Kraus family: slices of a random isometry."""
    if count * out_dim < in_dim:
        raise ValueError("count * out_dim must be at least in_dim")
    iso = random_isometry(rng, count * out_dim, in_dim)
    return [iso[i * out_dim:(i + 1) * out_dim, :] for i in range(count)]

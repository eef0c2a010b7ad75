"""Deterministic sampling helpers: boxes, Halton sequences, ball point sets.

Everything here is a pure function of its arguments; identical seeds give
identical samples, and a seed-``n`` prefix of a longer draw equals the
shorter draw (needed by the norm-estimator monotonicity contract).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lo_i, hi_i]^d."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("box bounds must have equal dimension")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError("box must be nondegenerate")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def widths(self) -> np.ndarray:
        return np.asarray(self.hi) - np.asarray(self.lo)

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.widths))

    def uniform(self, n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        u = rng.random((n, self.dim))
        return np.asarray(self.lo) + u * self.widths

    @staticmethod
    def bounding(points, margin: float = 0.0) -> "Box":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lo = pts.min(axis=0) - margin
        hi = pts.max(axis=0) + margin
        return Box(tuple(lo), tuple(hi))


def halton(n: int, dim: int, start: int = 1) -> np.ndarray:
    """First ``n`` points of the Halton sequence in [0,1)^dim from ``start``."""
    if dim > len(_PRIMES):
        raise ValueError(f"halton supports dim <= {len(_PRIMES)}")
    out = np.empty((n, dim))
    idx = np.arange(start, start + n)
    for j in range(dim):
        b = _PRIMES[j]
        i = idx.astype(np.int64).copy()
        f = np.ones(n)
        r = np.zeros(n)
        while np.any(i > 0):
            f = f / b
            r = r + f * (i % b)
            i = i // b
        out[:, j] = r
    return out


def ball_points(center, radius: float, n: int, seed: int = 0) -> np.ndarray:
    """Low-discrepancy points inside the closed ball B_radius(center).

    The first point is the center itself; the rest map a Halton sequence
    through an equal-area transform (d <= 3) or rejection from the cube.
    Deterministic given (center, radius, n, seed): the seed offsets the
    Halton start index.
    """
    center = np.asarray(center, dtype=float)
    d = center.size
    if n < 1:
        raise ValueError("need n >= 1")
    pts = np.empty((n, d))
    pts[0] = center
    if n == 1:
        return pts
    m = n - 1
    start = 1 + (int(seed) % 997) * 64
    if d == 1:
        u = halton(m, 1, start)[:, 0]
        pts[1:] = center + radius * (2.0 * u[:, None] - 1.0)
    elif d == 2:
        u = halton(m, 2, start)
        r = radius * np.sqrt(u[:, 0])
        th = 2.0 * np.pi * u[:, 1]
        pts[1:] = center + np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    elif d == 3:
        u = halton(m, 3, start)
        r = radius * u[:, 0] ** (1.0 / 3.0)
        cz = 1.0 - 2.0 * u[:, 1]
        sz = np.sqrt(np.maximum(0.0, 1.0 - cz * cz))
        ph = 2.0 * np.pi * u[:, 2]
        pts[1:] = center + np.stack([r * sz * np.cos(ph), r * sz * np.sin(ph), r * cz], axis=1)
    else:
        got = 0
        idx = start
        while got < m:
            cand = 2.0 * halton(4 * (m - got), d, idx) - 1.0
            idx += 4 * (m - got)
            keep = cand[np.sum(cand * cand, axis=1) <= 1.0]
            take = min(m - got, len(keep))
            pts[1 + got : 1 + got + take] = center + radius * keep[:take]
            got += take
    return pts


def spawn_rngs(seed: int, n: int) -> list:
    """Independent child generators whose streams do not interleave."""
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in seq.spawn(n)]

"""Seeded Monte Carlo walks used as a statistical oracle for hitting times.

Each walk gets its own counter-based Philox stream keyed by (seed, walk
index), so runs are reproducible for any walk count and could be sharded
across workers without changing the numbers. Neighbor choices map 64-bit
raw draws through a modulus; the bias is below 2^-60 per step, far under
anything a z-test at these sample sizes can see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidWalkParameters
from .trees import Tree
from .walkstats import hitting_time


@dataclass(frozen=True)
class WalkSample:
    """Empirical absorption summary for repeated walks u -> w."""

    seed: int
    walks: int
    total_steps: int
    mean: Fraction
    stderr: float
    exact: Fraction
    z_score: float

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "walks": self.walks,
            "total_steps": self.total_steps,
            "mean": {"num": self.mean.numerator, "den": self.mean.denominator},
            "mean_float": float(self.mean),
            "stderr": self.stderr,
            "exact": {"num": self.exact.numerator, "den": self.exact.denominator},
            "z_score": self.z_score,
        }


def _walk_length(adj: list[tuple[int, ...]], degs: list[int], u: int, w: int, bitgen) -> int:
    """Steps until a single walk from u first reaches w."""
    steps = 0
    cur = u
    chunk = bitgen.random_raw(64)
    pos = 0
    limit = 64
    while cur != w:
        if pos == limit:
            chunk = bitgen.random_raw(256)
            limit = 256
            pos = 0
        r = int(chunk[pos])
        pos += 1
        cur = adj[cur][r % degs[cur]]
        steps += 1
    return steps


def simulate_hitting(t: Tree, u: int, w: int, walks: int, seed: int) -> WalkSample:
    """Run `walks` independent seeded walks from u until absorption at w."""
    for name, v in (("start", u), ("target", w)):
        if not 0 <= v < t.n:
            raise InvalidWalkParameters(f"{name} vertex {v} outside 0..{t.n - 1}")
    if walks < 1:
        raise InvalidWalkParameters(f"walk count must be >= 1, got {walks}")
    if not 0 <= seed < 2**64:
        raise InvalidWalkParameters(f"seed {seed} outside 0..2**64-1")
    adj = list(t.adjacency)
    degs = [len(a) for a in adj]
    total = 0
    total_sq = 0
    for i in range(walks):
        bg = np.random.Philox(key=np.array([seed, i], dtype=np.uint64))
        steps = _walk_length(adj, degs, u, w, bg)
        total += steps
        total_sq += steps * steps
    mean = Fraction(total, walks)
    if walks > 1:
        # exact sample variance, rounded once to float for the square root
        var = Fraction(walks * total_sq - total * total, walks * (walks - 1))
        stderr = math.sqrt(var / walks)
    else:
        stderr = 0.0
    exact = Fraction(hitting_time(t, u, w))
    if stderr > 0:
        z = (float(mean) - float(exact)) / stderr
    else:
        z = 0.0 if mean == exact else math.inf
    return WalkSample(
        seed=seed,
        walks=walks,
        total_steps=total,
        mean=mean,
        stderr=stderr,
        exact=exact,
        z_score=z,
    )

"""Seeded Monte Carlo walks used as a statistical oracle for hitting times.

Each walk gets its own counter-based Philox stream keyed by (seed, walk
index), so runs are reproducible for any walk count and could be sharded
across workers without changing the numbers. Neighbor choices map 64-bit
raw draws through a modulus; the bias is below 2^-60 per step, far under
anything a z-test at these sample sizes can see.

The walks run in numpy lockstep. A bulk Philox4x64-10 computes a batch of
draws for every live walk at once, bit for bit the stream
np.random.Philox(key=[seed, i]).random_raw() would give walk i. Step k of
every live walk then reads draw k of its own stream. A walk's state is its
vertex's start offset in one flat neighbor array, and a table built once
per call gives each slot's next state and each state's degree, so a step
is one modulus and two gathers. The target is made absorbing (its one
slot leads back to it), so a walk that has arrived stays put, and its
length is the number of steps it took from outside the target: each batch
records per step which walks are still away and adds up those rows once,
at its end. Walks that arrived are dropped after each batch, and walk
indices are run in fixed slabs, so memory does not grow with the walk
count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidWalkParameters
from .trees import Tree
from .walkstats import _hits_into


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
            "z_score": self.z_score if math.isfinite(self.z_score) else None,  # JSON has no inf
        }


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC'11): round multipliers and Weyl key increments.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)

# Walks run in slabs of _SLAB_WALKS indices. Each batch draws up to
# _BATCH_BLOCKS Philox blocks (4 draws each) across the live walks, at most
# _MAX_BLOCKS per walk, so a few long walks still get long batches.
_SLAB_WALKS = 1 << 14
_BATCH_BLOCKS = 1 << 14
_MAX_BLOCKS = 64


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, from 32-bit limbs."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo = x & _LO32
    x_hi = x >> 32
    lo_lo = m_lo * x_lo
    mid = m_hi * x_lo
    mid += lo_lo >> 32
    cross = m_lo * x_hi
    cross += mid & _LO32
    mid >>= 32
    cross >>= 32
    hi = m_hi * x_hi
    hi += mid
    hi += cross
    return hi, np.uint64(m) * x


def _philox_raw(seed: int, walk_ids: np.ndarray, first_block: int, blocks: int) -> np.ndarray:
    """Raw draws 4*first_block .. 4*(first_block+blocks)-1 of each walk's stream.

    Walk i's stream is np.random.Philox(key=[seed, i]).random_raw(): its
    block b is Philox4x64-10 of counter (b+1, 0, 0, 0) under key (seed, i).
    Row k of the (4*blocks, len(walk_ids)) result is draw 4*first_block + k
    of every walk. Products and key increments wrap mod 2**64 on purpose.
    """
    counters = np.arange(first_block + 1, first_block + blocks + 1, dtype=np.uint64)
    x0 = counters[:, None].repeat(walk_ids.size, axis=1)
    x1 = x2 = x3 = np.uint64(0)
    k0, k1 = seed, walk_ids[None, :]
    with np.errstate(over="ignore"):
        for r in range(10):
            if r:
                k0 = (k0 + _PHILOX_W[0]) & 0xFFFFFFFFFFFFFFFF
                k1 = k1 + np.uint64(_PHILOX_W[1])
            hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
            hi1 = hi1 ^ x1
            hi1 ^= np.uint64(k0)
            hi0 = x3 ^ hi0  # x1, x2 start as scalars; this operand order keeps the full shape
            hi0 ^= k1
            x0, x1, x2, x3 = hi1, lo1, hi0, lo0
    return np.stack((x0, x1, x2, x3), axis=1).reshape(4 * blocks, walk_ids.size)


# per vertex, its state (its start offset in the flat neighbor array); per
# slot, the state the slot leads to and the degree of the slot's vertex
_WalkTable = tuple[np.ndarray, np.ndarray, np.ndarray]


def _walk_table(t: Tree, w: int) -> _WalkTable:
    """States and slot transitions of one flat neighbor array; w's one slot absorbs."""
    lists = [(w,) if v == w else nbrs for v, nbrs in enumerate(t.adjacency)]
    degs = [len(nbrs) for nbrs in lists]
    start = np.array(list(itertools.accumulate(degs, initial=0))[:-1], dtype=np.intp)
    flat = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.intp, count=sum(degs))
    return start, start[flat], np.repeat(np.array(degs, dtype=np.uint64), degs)


def _walk_lengths(table: _WalkTable, u: int, w: int, seed: int, walk_ids: range) -> list[int]:
    """Steps until each walk in walk_ids, started at u, first reaches w."""
    start, nxt, deg_at = table
    w_state = start[w]
    keys = np.arange(walk_ids.start, walk_ids.stop, dtype=np.uint64)
    lengths = np.zeros(len(walk_ids), dtype=np.int64)
    live = np.arange(len(walk_ids) if u != w else 0)
    cur = np.full(live.size, start[u], dtype=np.intp)
    block = 0
    while live.size:
        blocks = max(1, min(_MAX_BLOCKS, _BATCH_BLOCKS // live.size))
        rows = _philox_raw(seed, keys[live], block, blocks)
        away = np.empty(rows.shape, dtype=bool)  # row k: the walks step k moves
        for draws, moves in zip(rows, away):
            np.not_equal(cur, w_state, out=moves)
            # the modulus is taken in uint64; its result is below the degree,
            # so the int64 view is exact, and intp + int64 stays an integer
            # index where intp + uint64 would be float64
            cur = nxt[cur + (draws % deg_at[cur]).view(np.int64)]
        block += blocks
        lengths[live] += away.sum(axis=0)
        moving = cur != w_state
        live, cur = live[moving], cur[moving]
    return lengths.tolist()


def simulate_hitting(t: Tree, u: int, w: int, walks: int, seed: int) -> WalkSample:
    """Run `walks` independent seeded walks from u until absorption at w."""
    for name, v in (("start", u), ("target", w)):
        if not 0 <= v < t.n:
            raise InvalidWalkParameters(f"{name} vertex {v} outside 0..{t.n - 1}")
    if walks < 1:
        raise InvalidWalkParameters(f"walk count must be >= 1, got {walks}")
    if not 0 <= seed < 2**64:
        raise InvalidWalkParameters(f"seed {seed} outside 0..2**64-1")
    table = _walk_table(t, w)
    total = 0
    total_sq = 0
    for first in range(0, walks, _SLAB_WALKS):
        lengths = _walk_lengths(table, u, w, seed, range(first, min(first + _SLAB_WALKS, walks)))
        total += sum(lengths)
        total_sq += sum(steps * steps for steps in lengths)
    mean = Fraction(total, walks)
    if walks > 1:
        # exact sample variance, rounded once to float for the square root
        var = Fraction(walks * total_sq - total * total, walks * (walks - 1))
        stderr = math.sqrt(var / walks)
    else:
        stderr = 0.0
    exact = Fraction(_hits_into(t, w)[u])
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

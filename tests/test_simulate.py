"""The lockstep walk engine behind simulate_hitting.

Its bulk Philox generator is held bit for bit to numpy's
np.random.Philox(key=[seed, walk]).random_raw stream, and its per-walk
lengths to the one-walk-at-a-time loop it replaced, kept here verbatim as a
reference oracle.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import treewalk.simulate as simulate_mod
from treewalk.families import balanced_double_broom, broom_tree, path_tree, star_tree
from treewalk.simulate import _philox_raw, simulate_hitting
from treewalk.trees import prufer_decode

U64 = st.integers(0, 2**64 - 1)
# walk indices drawn small, near 2**63 and near 2**64
WALK_IDS = st.one_of(
    st.integers(0, 1000), st.integers(2**63 - 8, 2**63 + 8), st.integers(2**64 - 16, 2**64 - 1), U64
)
# draw counts around the old 64-draw first chunk and the 256-draw chunks after it
DRAW_COUNTS = st.one_of(
    st.sampled_from([1, 2, 3, 5, 63, 64, 65, 319, 320, 321, 575, 576, 577]), st.integers(1, 600)
)


def _reference(seed: int, walk: int, draws: int) -> np.ndarray:
    return np.random.Philox(key=np.array([seed, walk], dtype=np.uint64)).random_raw(draws)


@settings(max_examples=60, deadline=None)
@given(U64, st.lists(WALK_IDS, min_size=1, max_size=6), DRAW_COUNTS)
@example(2**64 - 1, [2**64 - 1, 0], 321)
@example(2**63, [2**64 - 2, 2**63], 63)
@example(0, [0], 1)
def test_philox_raw_matches_numpy_philox(seed, walks, draws):
    got = _philox_raw(seed, np.array(walks, dtype=np.uint64), 0, math.ceil(draws / 4))
    assert got.shape == (4 * math.ceil(draws / 4), len(walks))
    for col, walk in enumerate(walks):
        assert np.array_equal(got[:draws, col], _reference(seed, walk, draws)), (seed, walk, draws)


@settings(max_examples=40, deadline=None)
@given(U64, st.lists(WALK_IDS, min_size=1, max_size=4), st.integers(0, 100), st.integers(1, 64))
@example(2**64 - 1, [2**64 - 1], 15, 2)  # draws 60..67 straddle the old 64-draw chunk
@example(2**63 + 1, [7, 2**64 - 3], 79, 1)  # draws 316..319 end the first 256-draw chunk
def test_philox_raw_from_a_later_block_is_the_same_stream(seed, walks, first_block, blocks):
    got = _philox_raw(seed, np.array(walks, dtype=np.uint64), first_block, blocks)
    for col, walk in enumerate(walks):
        stream = _reference(seed, walk, 4 * (first_block + blocks))
        assert np.array_equal(got[:, col], stream[4 * first_block :])


@pytest.mark.parametrize("blocks", [1, 16, 64])
def test_philox_raw_rows_are_draws_of_every_walk(blocks):
    walks = np.arange(300, dtype=np.uint64)
    got = _philox_raw(424242, walks, 3, blocks)
    for walk in (0, 1, 150, 299):
        assert np.array_equal(got[:, walk], _reference(424242, walk, 4 * (3 + blocks))[12:])


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


def _oracle_lengths(t, u, w, walks, seed):
    adj = list(t.adjacency)
    degs = [len(a) for a in adj]
    return [
        _walk_length(adj, degs, u, w, np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
        for i in range(walks)
    ]


def _engine_lengths(t, u, w, walks, seed):
    """Per-walk lengths of one simulate_hitting run, in walk-index order."""
    seen = []
    real = simulate_mod._walk_lengths

    def record(*args):
        out = real(*args)
        seen.extend(out)
        return out

    with mock.patch.object(simulate_mod, "_walk_lengths", record):
        sample = simulate_hitting(t, u, w, walks, seed)
    assert sample.total_steps == sum(seen) and len(seen) == walks
    return seen


@pytest.mark.parametrize(
    "t, u, w, walks",
    [
        (path_tree(3), 0, 2, 400),
        (broom_tree(11, 5), 0, 5, 300),
        (balanced_double_broom(11, 5), 0, 5, 300),
        (star_tree(9), 0, 2, 300),
        (star_tree(9), 1, 5, 300),
        (path_tree(40), 0, 39, 12),  # walks of ~1,500 steps span many 64-block batches
    ],
    ids=["path3", "broom11-5", "dbroom11-5", "star-leaf-leaf", "star-hub-leaf", "path40"],
)
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_lengths_match_the_single_walk_loop(t, u, w, walks, seed):
    assert _engine_lengths(t, u, w, walks, seed) == _oracle_lengths(t, u, w, walks, seed)


@st.composite
def walk_cases(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    code = draw(st.lists(st.integers(0, n - 1), min_size=max(n - 2, 0), max_size=max(n - 2, 0)))
    t = prufer_decode(code, n) if n > 1 else path_tree(1)
    u, w = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    return t, u, w, draw(st.integers(1, 40)), draw(U64)


@settings(max_examples=80, deadline=None)
@given(walk_cases())
def test_lengths_match_the_single_walk_loop_on_random_trees(case):
    t, u, w, walks, seed = case
    assert _engine_lengths(t, u, w, walks, seed) == _oracle_lengths(t, u, w, walks, seed)


@pytest.mark.parametrize(
    "t, u, w",
    [(path_tree(1), 0, 0), (path_tree(2), 0, 1), (path_tree(2), 1, 1), (broom_tree(11, 5), 5, 5)],
    ids=["n1", "n2", "n2-u-is-w", "u-is-w"],
)
def test_edge_cases_match_the_single_walk_loop(t, u, w):
    lengths = _engine_lengths(t, u, w, 50, 3)
    assert lengths == _oracle_lengths(t, u, w, 50, 3)
    assert set(lengths) == ({0} if u == w else {1})


@pytest.mark.parametrize(
    "slab, batch, max_blocks",
    [(7, 1 << 14, 64), (7, 5, 64), (64, 16, 64), (7, 1 << 14, 1), (7, 1 << 14, 3)],
    ids=["7-16384", "7-5", "64-16", "max-blocks-1", "max-blocks-3"],
)
def test_lengths_are_unchanged_across_slab_and_batch_boundaries(monkeypatch, slab, batch, max_blocks):
    # a small slab puts walk indices 7, 14, ... at slab starts; a small batch
    # budget makes blocks per batch shrink and grow as walks finish; a small
    # block cap gives every batch 4 or 12 rows
    monkeypatch.setattr(simulate_mod, "_SLAB_WALKS", slab)
    monkeypatch.setattr(simulate_mod, "_BATCH_BLOCKS", batch)
    monkeypatch.setattr(simulate_mod, "_MAX_BLOCKS", max_blocks)
    t = broom_tree(11, 5)
    lengths = _engine_lengths(t, 0, 5, 150, 42)
    assert lengths == _oracle_lengths(t, 0, 5, 150, 42)
    if max_blocks < 64:
        # some walk reaches the target in the first row of a batch
        assert any(steps % (4 * max_blocks) == 1 for steps in lengths)
    monkeypatch.undo()
    assert simulate_hitting(t, 0, 5, 150, 42).total_steps == sum(lengths)


@pytest.mark.parametrize(
    "t, u, w, walks, total_steps, mean",
    [
        # the monte-carlo benchmark's long request: ~4,100-step walks
        (path_tree(64), 0, 63, 1000, 4105396, Fraction(1026349, 250)),
        # its short request: one full 16,384-walk slab and wide batches
        (broom_tree(11, 5), 0, 5, 20000, 1286182, Fraction(643091, 10000)),
    ],
    ids=["path64", "broom11-5"],
)
def test_benchmark_scale_runs_keep_their_totals(t, u, w, walks, total_steps, mean):
    sample = simulate_hitting(t, u, w, walks, 1)
    assert (sample.total_steps, sample.mean) == (total_steps, mean)


def test_simulate_does_not_import_numpy_random():
    # numpy's own Philox would be faster on narrow batches, but importing
    # numpy.random costs about 6 MB of peak RSS; the bulk Philox avoids it
    src = str(Path(simulate_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = (
        "import sys\n"
        "from treewalk.families import path_tree\n"
        "from treewalk.simulate import simulate_hitting\n"
        "simulate_hitting(path_tree(5), 0, 4, 50, 1)\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

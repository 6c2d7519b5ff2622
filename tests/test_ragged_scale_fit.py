"""A lockstep group whose slots keep scale fit sets of different sizes:
each slot learns what it learns alone, and the padded codebook scan
refuses an empty codebook."""

from dataclasses import replace

import numpy as np
import pytest

from olala.errors import GeometryError
from olala.lattice import GEN_HEXAGONAL, TruncatedLattice, _quantize_slots, build_lattice
from olala.learning import (
    LearnerConfig,
    _learn_group,
    _Slots,
    init_prior_net,
    online_lattice_learning,
    pack_learned_lattice,
)
from olala.sdq import split_vector

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

U = 5
OUTLIERS = (0, 2, 0, 4, 2)  # blocks blown up per slot, so the 3-sigma filter keeps fewer


def _ragged_inputs():
    draw = np.random.default_rng(11)
    cov = np.array([[1.0, 0.6], [0.6, 0.8]])
    hs = []
    for k in range(U):
        blocks = 0.01 * (draw.normal(size=(90, 2)) @ np.linalg.cholesky(cov).T)
        blocks[: OUTLIERS[k]] *= 8.0
        hs.append(blocks.ravel())
    nets = [init_prior_net(2, seed=30 + k) for k in range(U)]
    cfg = LearnerConfig(
        overload_mode="heuristic_minus1", epochs=2, batches=4, rate=3.0, learning_rate=1e-3,
    )
    return nets, hs, cfg, [100 + k for k in range(U)]


def _learned_bytes(learned):
    return pack_learned_lattice(learned), learned.theta.tobytes()


def test_ragged_fit_sets_learn_what_each_slot_learns_alone():
    nets, hs, cfg, seeds = _ragged_inputs()
    slots = _Slots(cfg, seeds, np.stack([split_vector(h, 2)[0] for h in hs]))
    sizes = [fit.shape[0] for fit in slots.fit]
    assert len(set(sizes)) >= 2, sizes

    whole = _learn_group([n.copy() for n in nets], hs[0], hs, cfg, seeds, [None] * U)
    chunks = [
        _learn_group(
            [n.copy() for n in nets[a:b]], hs[0], hs[a:b], cfg, seeds[a:b], [None] * (b - a)
        )
        for a, b in ((0, 3), (3, U))
    ]
    alone = [
        online_lattice_learning(net.copy(), hs[0], h, replace(cfg, seed=seed))
        for net, h, seed in zip(nets, hs, seeds)
    ]
    for (learned, _), (part, _), ref in zip(whole, chunks[0] + chunks[1], alone):
        assert _learned_bytes(learned) == _learned_bytes(ref)
        assert _learned_bytes(part) == _learned_bytes(ref)


def test_quantize_slots_refuses_an_empty_codebook():
    lat = build_lattice(GEN_HEXAGONAL, 1.0)
    empty = TruncatedLattice(
        gen=GEN_HEXAGONAL, gamma=1.0,
        index_set=np.zeros((0, 2), dtype=np.int64), codebook=np.zeros((0, 2)),
    )
    ys = np.zeros((2, 4, 2))
    with pytest.raises(GeometryError, match="empty codebook"):
        _quantize_slots([lat, empty], ys)

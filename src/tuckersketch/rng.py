"""Deterministic random-stream derivation.

Every random draw in the package flows through numpy's counter-based
Philox generator keyed by ``(seed, stream tag, *indices)``, so each draw
is reproducible from the run seed alone and independent of execution
order.  Stream tags used by the library:

    MIX     sign draws for the one-time mode mixing step, keyed (MIX, mode)
    SAMPLE  row-sampling draws, keyed (SAMPLE, iteration, mode)
    INIT    factor initialisation draws, keyed (INIT, mode)
    TRIAL   Monte-Carlo trials, keyed (TRIAL, t): trial t takes all of its
            draws from this one stream, in a fixed order per suite --
            lemma21 sizes, decomposition, map; lemma-a embedding, x, y;
            prop1 and th1 decomposition, embeddings; th4 embeddings, all
            candidates; jl_failure_rate embedding, vector set.  th4's fixed
            tensor and sub-decomposition use one stream (TRIAL, 10000, 0).
"""

from __future__ import annotations

import numpy as np

MIX = 0
SAMPLE = 1
INIT = 2
TRIAL = 3


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return an independent generator for ``(seed, *key)``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def child_seed(seed: int, *key: int) -> int:
    """Derive a reproducible 64-bit child seed for a nested component."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])

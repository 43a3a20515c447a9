"""Deterministic random-stream derivation.

Every random draw in the package flows through numpy's counter-based
Philox generator keyed by ``(seed, stream tag, *indices)``, so each draw
is reproducible from the run seed alone and independent of execution
order.  Stream tags used by the library:

    MIX     sign draws for the solver's one-time mode mixing step, keyed
            (MIX, mode) in ``decompose``
    SAMPLE  row-sampling draws, keyed (SAMPLE, iteration, mode)
    INIT    factor initialisation draws, keyed (INIT, mode)
    TRIAL   Monte-Carlo trials, keyed (TRIAL, t): trial t takes all of its
            draws from this one stream, which ``bounds._trial`` hands out
            to every suite and to the tests' dense oracles, in a fixed
            order per suite -- lemma21 sizes, decomposition, map; lemma-a
            embedding, x, y; prop1 and th1 decomposition, embeddings; th4
            embeddings, all candidates; and, in the tests only, the JL
            failure-rate helper embedding, vector set.  th4's fixed tensor
            and sub-decomposition use one stream (TRIAL, 10000, 0).

A seed is a non-negative integer (Python or numpy, not a bool); anything
else is rejected with one message.
"""

from __future__ import annotations

import numpy as np

from .tensor import _is_int

MIX = 0
SAMPLE = 1
INIT = 2
TRIAL = 3


def _check_seed(seed) -> int:
    """The seed as a Python int; a negative or non-integer seed is rejected."""
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return int(seed)


def _sequence(seed: int, key) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=_check_seed(seed), spawn_key=tuple(int(k) for k in key))


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return an independent generator for ``(seed, *key)``."""
    return np.random.Generator(np.random.Philox(_sequence(seed, key)))


def child_seed(seed: int, *key: int) -> int:
    """Derive a reproducible 64-bit child seed for a nested component."""
    return int(_sequence(seed, key).generate_state(1, np.uint64)[0])

"""Deterministic stream splitting for reproducible Monte Carlo.

All randomness derives from a single 64-bit master seed through numpy's
PCG64 generator.  Substreams are carved out with ``SeedSequence`` spawn
keys, so a run is reproducible bit-for-bit from its master seed alone,
and adding paths or agents never perturbs the streams already drawn:

* path ``p``   -> spawn key ``(0, p)``
* agent ``j``  -> spawn key ``(1, j)``

The agent rule gives the prefix property: simulating with more agents
under the same master seed reproduces the earlier agents exactly.

Annotations are not evaluated, so ``numpy.random`` loads at the first
draw, not when this module is imported.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

_PATH_DOMAIN = 0
_AGENT_DOMAIN = 1


def path_rng(master_seed: int, path_index: int) -> np.random.Generator:
    """Generator for the driver noise of one simulated path."""
    return _substream(master_seed, (_PATH_DOMAIN, path_index))


def agent_rng(master_seed: int, agent_index: int) -> np.random.Generator:
    """Generator for the characteristic draws of one agent."""
    return _substream(master_seed, (_AGENT_DOMAIN, agent_index))


def _substream(master_seed, spawn_key):
    if master_seed < 0:
        raise ConfigError(f"seed must be >= 0, got {master_seed}")
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=spawn_key))

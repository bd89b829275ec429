"""Counter-based random streams.

Every stochastic decision in the simulator is a pure function of a
``(root_seed, stream_tag, query_id, counter)`` key hashed through a
SplitMix64-style mixer.  Nothing here carries hidden state, so a draw can be
replayed in isolation, evaluated out of order, or vectorized over whole
corpora without changing a single bit of the result.

Stream tags keep the independent kinds of randomness (correctness coin,
length noise, calibration shots, threshold-clip truncation, ...) from ever
colliding on the same key.  Tags are part of the reproducibility contract:
never renumber them.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TWO53 = float(1 << 53)

# stream tags
CORRECT = 1          # correctness coin of a sampled response
LENGTH = 2           # log-length noise of a sampled response
INIT_NOISE = 3       # per-query perturbation at learner init
PASS_RATE = 4        # calibration shots (pass@M estimation)
EVAL = 5             # held-out end-of-iteration evaluation draw
CORPUS_DIFFICULTY = 6
CORPUS_LENGTH = 7
THRESHOLD_CLIP = 8   # per-entry truncation key of threshold clipping (tc)


def _squeeze(z: np.uint64 | np.ndarray) -> np.uint64 | np.ndarray:
    # SplitMix64 finalizer; uint64 arithmetic wraps modulo 2**64.
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _as_u64(x) -> np.uint64 | np.ndarray:
    if isinstance(x, np.ndarray):
        return x.astype(np.uint64)
    return np.uint64(int(x) & _MASK)


def hash_u64(root_seed, tag, query_id, counter):
    """64-bit hash of a draw key. Array arguments broadcast."""
    with np.errstate(over="ignore"):
        h = _squeeze(_as_u64(root_seed) + _GOLDEN)
        h = _squeeze(h ^ (_as_u64(tag) * _MIX1))
        h = _squeeze(h ^ (_as_u64(query_id) * _GOLDEN))
        h = _squeeze(h ^ (_as_u64(counter) * _MIX2))
    return h


def uniform(root_seed, tag, query_id, counter):
    """Deterministic uniform draw(s) in [0, 1)."""
    h = hash_u64(root_seed, tag, query_id, counter)
    return np.asarray(h >> np.uint64(11), dtype=np.float64) / _TWO53


def normal(root_seed, tag, query_id, counter):
    """Deterministic standard-normal draw(s) via Box-Muller."""
    h1 = hash_u64(root_seed, tag, query_id, counter)
    with np.errstate(over="ignore"):
        h2 = _squeeze(h1 + _GOLDEN)
    # u1 in (0, 1] so the log is finite; u2 in [0, 1)
    u1 = (np.asarray(h1 >> np.uint64(11), dtype=np.float64) + 1.0) / _TWO53
    u2 = np.asarray(h2 >> np.uint64(11), dtype=np.float64) / _TWO53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

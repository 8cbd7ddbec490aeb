"""Deterministic counter-based RNG streams for reproducible Monte Carlo.

Draw ``i`` of the run keyed by ``seed`` reads the Philox stream with key
(seed mod 2**64, i mod 2**64) from counter 0; the seed and the index may be
any integers, numpy's included (``operator.index``).  :func:`stream` builds
that generator on its own.  Draw loops use :func:`streams`, which walks the
indices 0, 1, ... with one Philox whose key is reset per draw: the state is
assigned from a dict template with the draw's key, counter 0 and an empty
output buffer, which is exactly the state a freshly keyed Philox starts in,
so every draw is bit-identical to ``stream(seed, i)`` at a fraction of the
construction cost.  The template holds Python ints, not numpy arrays, which
numpy's state setter reads about twice as fast.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = (1 << 64) - 1


def _key(value) -> int:
    """``value`` mod 2**64 as a Python int; a non-integer raises TypeError."""
    return operator.index(value) & _MASK64


def stream(seed: int, index: int) -> np.random.Generator:
    """Return the generator for draw ``index`` of the run keyed by ``seed``.

    Streams for distinct (seed, index) pairs are independent Philox streams,
    so estimates assembled in index order are bit-reproducible no matter how
    the index range is partitioned across workers.
    """
    key = np.array([_key(seed), _key(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def streams(seed: int, count: int):
    """Yield the generators of draws 0, ..., count - 1 of the run keyed by ``seed``.

    The generator yielded for draw ``i`` produces what ``stream(seed, i)``
    does.  It is one object re-keyed in place, so it is valid only until the
    next one is yielded.
    """
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    key = [_key(seed), 0]
    template = {  # counter 0, empty buffer: a fresh key's state
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for i in range(count):
        key[1] = i
        bitgen.state = template
        yield rng

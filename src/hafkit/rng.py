"""Counter-based Gaussian streams for reproducible parallel sampling.

A stream is numpy's Philox keyed by (seed, key), read through numpy's
ziggurat, so its normals are a pure function of the key: golden tests pin
the exact values.  Successive draws from one generator continue its
stream, so rows drawn in slices are the rows of one draw of them all.  Who
owns which stream is the caller's contract: ``estimator`` states which key
a chunk of samples and a spectral trial read, and which normal of a row
lands on which entry of W.

A key costs a fresh generator, about 11 us on a 2-vCPU VM, more than the
normals of a small sample; one key per chunk of 512 samples leaves the bulk
draws themselves, about 17 ns per normal (0.5 us per K_8 row of 28).
numpy releases the GIL during a bulk draw, so chunks draw in parallel.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

from .errors import InputError

__all__ = ["stream", "gaussian_rows", "check_seed"]

_U64 = 1 << 64


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)):
        raise InputError("seed must be an integer")
    if not (0 <= int(seed) < _U64):
        raise InputError("seed must fit in an unsigned 64-bit integer")
    return int(seed)


def stream(seed: int, key: int) -> Generator:
    """A fresh generator on the Philox stream keyed by (seed, key)."""
    seed = check_seed(seed)
    if not (0 <= key < _U64):
        raise InputError("stream key must fit in an unsigned 64-bit integer")
    return Generator(Philox(key=np.array([seed, key], dtype=np.uint64)))


def gaussian_rows(gen: Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` row-major with the next ``out.size`` normals of ``gen``; returns ``out``.

    Each call goes on where the last one stopped, so the rows of a stream
    drawn in slices of any size are the rows of one draw, and a draw of
    fewer rows from a fresh generator is a prefix of a draw of more.
    """
    return gen.standard_normal(out=out)

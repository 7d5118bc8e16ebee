"""Seed derivation for reproducible parallel replicas.

Streams are counter-based (Philox) and keyed by a splitmix64 mix of
(seed, k), so stream k is fixed regardless of how many other streams run or
in what order.  The single-draw samplers key k by replica; the estimators'
shared replica loop, `sampling._replicas`, keys it by chunk of 65536
replicas on grids of at most 512 cells and by replica above, where a
chunk's rows each have their own stream.  Each lattice stream feeds the
rows it draws in one `grid._draw_cells` call, which takes from it, in
order, the mixture coins and the anchor cells (when it draws a tilt), the
base points' total and cells, and the planted points' total and cells.
A chunk that the loop redraws in float64, because its float32 counts could
not certify |E_s| exact, is drawn again from fresh generators on the same
keys, so it takes the same numbers.
"""

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 step; the standard 64-bit finalizer-style mixer."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix(seed: int, replica: int) -> int:
    """Derive the 64-bit key for a replica: mix(mix(seed) xor mix-step(replica))."""
    return splitmix64(splitmix64(seed & _MASK64) ^ (replica & _MASK64))


def generator(seed: int, replica: int = 0) -> np.random.Generator:
    """Counter-based generator for one (seed, replica) pair."""
    return np.random.Generator(np.random.Philox(key=mix(seed, replica)))

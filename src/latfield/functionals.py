"""Lattice functionals of a sampled field.

The full functional is Y = sum over every lattice point of phi(B), with
unit cell volume (lattice sums stand in for integrals without rescaling).
The marginal version sums phi over the points of one block while every
other block is frozen at given coordinates.
"""
from __future__ import annotations

import numpy as np

from ._errors import ModelError
from .fieldsim import FieldSample
from .hermite import HermiteSpec


def evaluate(sample: FieldSample, phi: HermiteSpec) -> float:
    """phi summed over the field values at every lattice point."""
    return float(np.sum(phi(sample.values)))


def marginal_evaluate(sample: FieldSample, phi: HermiteSpec, block: int,
                      frozen=()) -> float:
    """phi summed over block ``block`` with the other axes pinned.

    ``frozen`` lists one coordinate per axis outside the block, in
    flattened axis order.
    """
    lattice = sample.lattice
    if not 0 <= block < len(lattice.blocks):
        raise ModelError(f"block index {block} out of range")
    in_block = set(lattice.block_axes(block))
    frozen = tuple(int(c) for c in np.atleast_1d(np.asarray(frozen, dtype=int)))
    n_other = len(lattice.all_sizes) - len(in_block)
    if len(frozen) != n_other:
        raise ModelError(
            f"expected {n_other} frozen coordinates, got {len(frozen)}"
        )
    index, pos = [], 0
    for axis, size in enumerate(lattice.all_sizes):
        if axis in in_block:
            index.append(slice(None))
        else:
            c = frozen[pos]
            pos += 1
            if not 0 <= c < size:
                raise ModelError(
                    f"frozen coordinate {c} out of range on axis {axis} "
                    f"(size {size})"
                )
            index.append(c)
    return float(np.sum(phi(sample.values[tuple(index)])))


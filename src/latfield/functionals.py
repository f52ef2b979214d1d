"""Lattice functionals of a sampled field.

The full functional is Y = sum over every lattice point of phi(B), with
unit cell volume (lattice sums stand in for integrals without rescaling).
The marginal version sums phi over the points of one block while every
other block is frozen at given coordinates.

An additive sample B = sqrt(w1) U (+) sqrt(w2) V carries its two block
fields.  For phi = H_q the Hermite addition theorem,
H_q(sqrt(w1) u + sqrt(w2) v) = sum_k C(q,k) w1^(k/2) w2^((q-k)/2)
H_k(u) H_(q-k)(v) for w1 + w2 = 1, gives
Y = sum_k C(q,k) w1^(k/2) w2^((q-k)/2) A_k B_(q-k) from the per-block
sums A_k = sum H_k(U) and B_k = sum H_k(V), in O(n1 + n2) work instead of
O(n1 n2) and without building the lattice field.  Every other phi, and
the marginal functional, reads the lattice field.  A pure phi on the
lattice field runs the Hermite recurrence in buffers that each thread
keeps, so a replicate loop allocates none.
"""
from __future__ import annotations

import math
import threading

import numpy as np

from ._errors import ModelError
from .fieldsim import FieldSample
from .hermite import INDICATOR, PURE, HermiteSpec, hermite_terms

_local = threading.local()  # this thread's Hermite buffers, see _hermite_buffers


def _hermite_buffers(shape) -> list:
    """This thread's list of ``hermite_terms`` buffers for fields of the
    given shape (the recurrence adds the buffers it needs).  Kept while the
    shape matches; otherwise replaced by an empty list, so a thread never
    holds buffers of two shapes."""
    held = getattr(_local, "hermite", None)
    if held is None or held[0] != shape:
        held = _local.hermite = (shape, [])
    return held[1]


def _additive_hermite_sum(sample: FieldSample, q: int) -> float:
    """sum of H_q over the lattice of an additive sample, from its block
    fields by the addition theorem.  The theorem is an identity for any
    positive w1 + w2 = 1, so the weights are rescaled to sum to 1 to
    rounding, whatever the slack the configured weights were allowed.
    One pass of the recurrence per block gives every per-block sum."""
    total = sum(sample.weights)
    scales = [math.sqrt(w / total) for w in sample.weights]
    sums = [[float(h.sum()) for h in hermite_terms(q, x / s)]
            for x, s in zip(sample.blocks, scales)]
    return math.fsum(math.comb(q, k) * scales[0] ** k * scales[1] ** (q - k)
                     * sums[0][k] * sums[1][q - k] for k in range(q + 1))


def evaluate(sample: FieldSample, phi: HermiteSpec) -> float:
    """phi summed over the field values at every lattice point; a pure
    phi on an additive sample is summed from its block fields, on any
    other sample from H_q computed in this thread's buffers, with
    ``hermite_eval``'s arithmetic; an indicator is a count."""
    if phi.kind == PURE:
        if sample.blocks is not None:
            return _additive_hermite_sum(sample, phi.q)
        values = sample.values
        for h in hermite_terms(phi.q, values, _hermite_buffers(values.shape)):
            pass
        return float(np.sum(h))
    if phi.kind == INDICATOR:
        return float(np.count_nonzero(sample.values >= phi.level))
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


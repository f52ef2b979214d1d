"""Lattice functionals of a sampled field.

The full functional is Y = sum over every lattice point of phi(B), with
unit cell volume (lattice sums stand in for integrals without rescaling).
``evaluate`` takes a block of samples and returns one Y per sample, in
order; a single sample is a block of one.  The marginal version sums phi
over the points of one block while every other block is frozen at given
coordinates.

An additive sample B = sqrt(w1) U (+) sqrt(w2) V carries its two block
fields.  For phi = H_q the Hermite addition theorem,
H_q(sqrt(w1) u + sqrt(w2) v) = sum_k C(q,k) w1^(k/2) w2^((q-k)/2)
H_k(u) H_(q-k)(v) for w1 + w2 = 1, gives
Y = sum_k C(q,k) w1^(k/2) w2^((q-k)/2) A_k B_(q-k) from the per-block
sums A_k = sum H_k(U) and B_k = sum H_k(V), in O(n1 + n2) work instead of
O(n1 n2) and without building the lattice field.  The additive samples of
a block are summed together: each block's fields are stacked, one row per
sample, so one pass of the recurrence per stack gives every sample's A_k
and B_k as row sums, with the bits of each sample summed alone.  Every other phi, and the marginal functional, reads
each sample's lattice field on its own.  The recurrence runs in buffers
that each thread keeps, so a replicate loop allocates none.
"""
from __future__ import annotations

import math
import threading

import numpy as np

from ._errors import COUNT, ModelError, checked_arg, checked_number, refuse
from .fieldsim import FieldSample
from .hermite import INDICATOR, PURE, HermiteSpec, hermite_terms

_local = threading.local()  # this thread's buffers, see _thread_buffers


def _thread_buffers(name: str, shape) -> list:
    """This thread's list of buffers called ``name`` for arrays of the
    given shape (its user adds the buffers it needs).  Kept while the shape
    matches; otherwise replaced by an empty list, so a thread never holds
    buffers of two shapes under one name."""
    held = getattr(_local, name, None)
    if held is None or held[0] != shape:
        held = (shape, [])
        setattr(_local, name, held)
    return held[1]


def _additive_hermite_sums(samples, q: int) -> list:
    """sum of H_q over the lattice of each additive sample of ``samples``,
    which share their weights and the shape of each block field, from the
    block fields by the addition theorem.  The theorem is an identity for
    any positive w1 + w2 = 1, so the weights are rescaled to sum to 1 to
    rounding, whatever the slack the configured weights were allowed.
    Each block's fields are stacked, one row per sample, in a buffer this
    thread keeps and divided by the block's scale; one pass of the
    recurrence over the stack gives every per-block sum as a row sum, with
    a row's rounding (H_0's is the block's size exactly).  Each sample's
    terms are added by its own ``math.fsum``."""
    total = sum(samples[0].weights)
    scales = [math.sqrt(w / total) for w in samples[0].weights]
    sums = np.empty((2, q + 1, len(samples)))
    for b, scale in enumerate(scales):
        fields = [sample.blocks[b] for sample in samples]
        shape = (len(fields), fields[0].size)
        held = _thread_buffers(f"stack{b}", shape)
        if not held:
            held.append(np.empty(shape))
        stack = held[0]  # each field's values are one row, in C order
        np.concatenate(fields, out=stack.reshape((-1,) + fields[0].shape[1:]))
        np.divide(stack, scale, out=stack)
        sums[b, 0] = shape[1]
        for k, h in enumerate(hermite_terms(q, stack, _thread_buffers(f"terms{b}", shape))):
            if k:
                h.sum(axis=1, out=sums[b, k])
    coeffs = [math.comb(q, k) * scales[0] ** k * scales[1] ** (q - k) for k in range(q + 1)]
    # (coefficient * A_k) * B_(q-k): one sample's products, in its order
    terms = coeffs * sums[0].T * sums[1, ::-1].T
    return [math.fsum(row) for row in terms.tolist()]


def _lattice_sum(sample: FieldSample, phi: HermiteSpec) -> float:
    """phi summed over the lattice field of ``sample``: a pure phi from H_q
    computed in this thread's buffers, with ``hermite_eval``'s arithmetic;
    an indicator is a count."""
    if phi.kind == PURE:
        values = sample.values
        for h in hermite_terms(phi.q, values, _thread_buffers("hermite", values.shape)):
            pass
        return float(np.sum(h))
    if phi.kind == INDICATOR:
        return float(np.count_nonzero(sample.values >= phi.level))
    return float(np.sum(phi(sample.values)))


def evaluate(samples, phi: HermiteSpec) -> np.ndarray:
    """phi summed over the field values at every lattice point of each of
    ``samples``, one value per sample, in order.  A pure phi on the
    additive samples is summed from their block fields, those with the
    same block shapes and weights together; every other sample is summed
    from its lattice field on its own."""
    values, additive = np.empty(len(samples)), {}
    for i, sample in enumerate(samples):
        if phi.kind == PURE and sample.blocks is not None:
            u, v = sample.blocks
            additive.setdefault((u.shape, v.shape, sample.weights), []).append(i)
        else:
            values[i] = _lattice_sum(sample, phi)
    for indices in additive.values():
        values[indices] = _additive_hermite_sums([samples[i] for i in indices], phi.q)
    return values


def marginal_evaluate(sample: FieldSample, phi: HermiteSpec, block: int,
                      frozen=()) -> float:
    """phi summed over block ``block`` with the other axes pinned.

    ``frozen`` lists one coordinate per axis outside the block, in
    flattened axis order (a lone coordinate may be given bare).  The block
    index and each coordinate must be integers in range; a ModelError
    names each that is not.
    """
    lattice, violations = sample.lattice, []
    block = checked_arg("block", block, {**COUNT, "maximum": len(lattice.blocks) - 1})
    sizes, in_block = lattice.all_sizes, lattice.block_axes(block)
    others = [axis for axis in range(len(sizes)) if axis not in in_block]
    frozen = tuple(np.asarray(frozen, dtype=object).ravel())  # each as given
    if len(frozen) != len(others):
        raise ModelError(f"frozen: expected {len(others)} coordinates, got {len(frozen)}")
    index = [slice(None)] * len(sizes)
    for pos, (axis, c) in enumerate(zip(others, frozen)):
        index[axis] = checked_number(violations, f"frozen[{pos}]", c, **COUNT,
                                     maximum=sizes[axis] - 1)
    refuse(violations)
    return float(np.sum(phi(sample.values[tuple(index)])))

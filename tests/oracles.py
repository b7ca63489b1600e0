"""The per-trial route to graded vectors, kept as the tests' oracle.

A suite's draw returns flat arrays of normals, and its check stacks a
stream's draws into one block and cuts it into degrees once
(`GradedVector._flat`).  These helpers build the same vectors one at a time:
a vector drawn alone from a generator, and vectors stacked degree by degree
into one batched vector.
"""

import numpy as np

from qwick.fock import GradedVector, require_same_context


def random_vector(ctx, rng, degrees=None) -> GradedVector:
    """Independent standard-normal entries in `degrees` (every degree up to
    the cutoff by default), degree by degree in that order from one
    standard_normal call: the same numbers and generator state as one call
    per degree."""
    degrees = range(ctx.max_degree + 1) if degrees is None else degrees
    flat = rng.standard_normal(sum(ctx.dim**n for n in degrees))
    return GradedVector._flat(ctx, flat, degrees)


def stack_vectors(vectors) -> GradedVector:
    """Vectors of one context and one degree set as one batched vector: row
    i of every component is vector i's.  The rows are sealed, so their
    copies are finite and are marked read-only, not tested."""
    first = vectors[0]
    for vec in vectors:
        require_same_context(first, vec)
        if vec.components.keys() != first.components.keys():
            raise ValueError("stacked vectors must have the same degrees")
    comps = {n: np.stack([vec.components[n] for vec in vectors]) for n in first.components}
    for arr in comps.values():
        arr.flags.writeable = False
    return GradedVector._of(first.ctx, comps)

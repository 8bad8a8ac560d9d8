"""Auto-navigation octree construction (paper Section 2.3).

"The idea of auto-navigation is based on a simple insight: since the
ordering of expanding an octree under construction is independent of the
correctness of the result, the octree traversal logic can be decoupled
from the application's logic and incorporated into the etree library."

:func:`construct_octree` owns the traversal: the application supplies a
vectorized *decide* callback (refine or keep) and a *payload* callback
(record for a leaf), and never tracks which octants were decomposed.
The expansion is the in-core one, :func:`repro.octree.linear_octree.expand`,
streamed: the tree is cut at a chunk level, and each leaf of the cut
roots one subtree that is expanded in memory and whose leaves — already
sorted — go straight to the database's bulk loader, so the resident set
is one subtree plus one leaf page.  Chunking is a traversal order only:
an octant that stops refining above the chunk level is a leaf of the
cut and is emitted as it is, so every chunk level yields the keys of
the in-core expansion.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.etree.database import EtreeDatabase
from repro.octree.linear_octree import _binary_fraction_ticks, expand
from repro.octree.morton import MAX_COORD
from repro.octree.octant import octant_anchor, octant_size, pack_key


def construct_octree(
    db: EtreeDatabase,
    decide: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    payload: Callable[[np.ndarray, np.ndarray], np.ndarray],
    *,
    max_level: int,
    box_frac: Sequence[float] = (1.0, 1.0, 1.0),
    chunk_level: int = 2,
) -> int:
    """Construct an octree straight into ``db`` (which must be empty).

    Parameters
    ----------
    decide:
        ``decide(centers, sizes, levels) -> bool mask`` — True where an
        octant must be refined.  Centers/sizes are in root-cube units.
    payload:
        ``payload(centers, sizes) -> structured array`` with ``db.dtype``
        — the record stored for each leaf.
    max_level:
        Refinement cap.
    box_frac:
        Meshed box as fractions of the root cube (power-of-two
        denominators).
    chunk_level:
        The traversal streams one subtree rooted at level
        ``chunk_level`` (or at a coarser leaf) at a time, bounding
        memory to about ``8**-chunk_level`` of the tree.  It does not
        change the tree.

    Returns
    -------
    int
        Number of leaf octants written.
    """
    box_ticks = np.array([_binary_fraction_ticks(f) for f in box_frac])
    root = np.array([pack_key(np.uint64(0), np.uint64(0))], dtype=np.uint64)
    # the tree cut at chunk_level, in Morton order: its leaves are the
    # tree's own leaves above chunk_level and the roots of the subtrees
    chunks = expand(
        root,
        lambda c, s, lvl: (lvl < chunk_level) & decide(c, s, lvl),
        max_level=max_level,
        box_ticks=box_ticks,
    )
    total = 0
    with db.bulk_loader() as loader:
        for chunk in chunks:
            keys = expand(
                chunk[None], decide, max_level=max_level, box_ticks=box_ticks
            )
            x, y, z, lvl = octant_anchor(keys)
            size = octant_size(lvl)
            centers = (
                np.stack([x, y, z], axis=1) + 0.5 * size[:, None]
            ) / MAX_COORD
            recs = np.asarray(
                payload(centers, size / MAX_COORD), dtype=db.dtype
            )
            loader.append(keys, recs)
            total += len(keys)
    db.flush()
    return total

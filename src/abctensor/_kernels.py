"""The edge-major tensor contraction, the hot loop of power iteration.

Each vertex's terms are summed from zero in edge order, each edge's
term from prefix and suffix products over its positions, so the output
into a zeroed ``out`` equals the edge-by-edge loop bit for bit.

The arrays a contraction works in (the gathered x, its prefix and
suffix products, the per-edge contributions) are as large as the edge
array.  Allocated afresh on every call, they cost a page fault per
4 KiB page on large inputs, about 1,700 per call at m = 10^5, k = 3.
So they live in a ``Workspace``: a solve makes one per edge array it
contracts and passes it to every contraction over that array.  A
workspace belongs to one solve, never to an operator or hypergraph,
which stay safe to share across threads; ``contract`` without one
makes a throwaway one, so there is one kernel body.  The workspace is a
keyword-only argument after the four positional arrays
``(edge_idx, weights, x, out)``, which ``perfbench/spans.py`` unpacks.
"""

from __future__ import annotations

import numpy as np


class Workspace:
    """Buffers for contractions over one ``(m, k)`` edge array of
    nonnegative vertex ids: its position-major ``(k, m)`` copy, the
    ``(k, m)`` gather, prefix and suffix buffers, and the ``(m, k)``
    contributions in edge-major order.  The first contraction allocates
    them, so a workspace that is never used costs nothing."""

    def __init__(self, edge_idx: np.ndarray):
        self.edge_idx = edge_idx
        self.idx = None

    def _allocate(self):
        E = self.edge_idx
        m, k = E.shape
        self.idx = np.ascontiguousarray(E.T)
        self.flat = E.reshape(-1)
        self.reach = int(E.max()) + 1  # the least length of x
        self.X, self.pref, self.suff = np.empty((3, k, m))
        self.pref[0] = self.suff[-1] = 1.0  # never written again
        contrib = np.empty((m, k))
        self.contrib, self.contrib_flat = contrib.T, contrib.reshape(-1)


def contract(edge_idx: np.ndarray, weights: np.ndarray, x: np.ndarray, out: np.ndarray, *, work=None):
    """out[i] += sum over edges e containing i of w_e * prod_{j in e, j != i} x_j.

    ``work`` is a ``Workspace`` of this very ``edge_idx``; None makes one
    for this call.
    """
    m, k = edge_idx.shape
    if m == 0:
        return
    if work is None:
        work = Workspace(edge_idx)
    elif work.edge_idx is not edge_idx:
        raise ValueError("the workspace belongs to another edge array")
    if work.idx is None:
        work._allocate()
    if x.size < work.reach:
        raise IndexError(f"vertex {work.reach - 1} out of range for x of size {x.size}")
    # Position-major layout: each product step is one contiguous vector
    # operation.  The range is checked above, so "wrap" never wraps; it
    # only spares take() the copy that "raise" buffers its output in.
    X, pref, suff, contrib = work.X, work.pref, work.suff, work.contrib
    x.take(work.idx, out=X, mode="wrap")
    for j in range(1, k):
        np.multiply(pref[j - 1], X[j - 1], out=pref[j])
        np.multiply(suff[-j], X[-j], out=suff[-j - 1])
    np.multiply(weights, pref, out=contrib)
    np.multiply(contrib, suff, out=contrib)
    out += np.bincount(work.flat, weights=work.contrib_flat, minlength=out.size)

"""The edge-major tensor contraction, the hot loop of power iteration.

Each vertex's terms are summed from zero in edge order, each edge's
term from prefix and suffix products over its positions, so the output
into a zeroed ``out`` equals the edge-by-edge loop bit for bit.
"""

from __future__ import annotations

import numpy as np


def contract(edge_idx: np.ndarray, weights: np.ndarray, x: np.ndarray, out: np.ndarray):
    """out[i] += sum over edges e containing i of w_e * prod_{j in e, j != i} x_j."""
    m, k = edge_idx.shape
    if m == 0:
        return
    # Position-major (k, m) layout: each product step is one contiguous
    # vector operation.
    X = x[edge_idx.T]
    pref = np.empty_like(X)
    suff = np.empty_like(X)
    pref[0] = suff[-1] = 1.0
    for j in range(1, k):
        np.multiply(pref[j - 1], X[j - 1], out=pref[j])
        np.multiply(suff[-j], X[-j], out=suff[-j - 1])
    contrib = (weights * pref) * suff
    out += np.bincount(edge_idx.ravel(), weights=contrib.T.ravel(), minlength=out.size)

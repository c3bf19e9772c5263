# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled edge-major tensor contraction (hot loop of power iteration)."""

from libc.stdint cimport int64_t

COMPILED = True


def contract(const int64_t[:, ::1] edge_idx, const double[::1] weights,
             const double[::1] x, double[::1] out):
    """out[i] += sum over edges e containing i of w_e * prod_{j in e, j != i} x_j."""
    cdef Py_ssize_t m = edge_idx.shape[0]
    cdef Py_ssize_t k = edge_idx.shape[1]
    cdef Py_ssize_t e, j
    cdef double w, p, s
    cdef double pref[64]
    cdef double suff[64]
    if k > 64:
        raise ValueError("edge cardinality above compiled kernel limit (64)")
    for e in range(m):
        w = weights[e]
        p = 1.0
        for j in range(k):
            pref[j] = p
            p *= x[edge_idx[e, j]]
        s = 1.0
        for j in range(k - 1, -1, -1):
            suff[j] = s
            s *= x[edge_idx[e, j]]
        for j in range(k):
            out[edge_idx[e, j]] += (w * pref[j]) * suff[j]

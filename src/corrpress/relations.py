"""Finite correspondences (set-valued maps on a finite state space).

A correspondence on states {0, ..., n-1} is an edge relation in which
every state has at least one successor.  Orbits are walks along edges,
and a potential assigns a real weight to every edge.
"""

from __future__ import annotations

import numbers
from bisect import bisect_left
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import (
    DuplicateEdge,
    EmptySuccessor,
    IndexOutOfRange,
    NotBijective,
    NotSurjective,
    ShapeMismatch,
)


def whole_number(x, what="state index"):
    """x as an int: the one reader of a state index or count that a
    document supplies.  An int counts, and so does a whole float such
    as 2.0; a bool, a fractional or non-finite number, a string or
    anything else is ShapeMismatch, with the value in the message.
    """
    if type(x) is int:
        return x
    if isinstance(x, float) and x.is_integer():    # not NaN or inf
        return int(x)
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ShapeMismatch(f"{what} must be a whole number, not {x!r}")
    return int(x)


def sorted_unique(a):
    """np.unique of an int array by one sort; numpy's own hashes the
    values first, which is many times slower on large arrays."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


class FiniteCorrespondence:
    """Edge relation on n_states states with no empty successor set.

    The edges are stored as two sorted int64 arrays, sources and
    targets in the order of the keys i * n_states + j, with CSR offsets:
    the successors of i are targets[offsets[i]:offsets[i + 1]].  So
    iteration order is deterministic and independent of construction
    order.  The Python views (edges, successors, predecessors,
    edge_index) are built on first use, for the callers that walk them.

    edges is an iterable of pairs, each index a whole number read by
    whole_number, or an int array of shape (m, 2), which skips that
    per-item pass.
    """

    def __init__(self, n_states, edges, labels=None):
        n = whole_number(n_states, "n_states")
        both = _edge_columns(edges, n)
        src, dst = both
        if n <= 0:
            raise IndexOutOfRange(_pairs(src, dst), n)
        m = src.size
        # a negative index wraps to an unsigned one past n
        if m and both.view(np.uint64).max() >= n:
            bad = (both.view(np.uint64) >= n).any(axis=0)
            raise IndexOutOfRange(_pairs(src[bad], dst[bad]), n)
        if n > m:
            _refuse_short(n, src, dst)
        # n <= m, and m edges fit in memory, so n * n fits in int64
        keys = src * n + dst
        if not (keys[1:] > keys[:-1]).all():
            keys = np.sort(keys)
            twice = keys[1:] == keys[:-1]
            if twice.any():
                raise DuplicateEdge(_pairs(*np.divmod(sorted_unique(keys[1:][twice]), n)))
            src, dst = np.divmod(keys, n)
        offsets = csr_offsets(src, n)
        if not (offsets[1:] > offsets[:-1]).all():
            empty = np.flatnonzero(offsets[1:] == offsets[:-1])
            raise EmptySuccessor(empty[:EmptySuccessor.LISTED].tolist(), empty.size)
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise ShapeMismatch(f"{len(labels)} labels for {n} states")
        for a in (src, dst, offsets):
            a.flags.writeable = False
        self.n_states = n
        self.labels = labels
        self._src, self._dst, self._offsets = src, dst, offsets
        self._edges = self._succ = self._pred = None
        self._spectral = None
        self._index = None

    @property
    def edges(self):
        """The edges as a sorted tuple of (i, j) pairs."""
        if self._edges is None:
            self._edges = tuple(_pairs(self._src, self._dst))
        return self._edges

    def successors(self, i):
        if self._succ is None:
            self._succ = _rows(self._offsets, self._dst)
        return self._succ[i]

    def predecessors(self, j):
        if self._pred is None:
            # a stable sort by target keeps each target's sources in order
            order = np.argsort(self._dst, kind="stable")
            self._pred = _rows(csr_offsets(self._dst[order], self.n_states),
                               self._src[order])
        return self._pred[j]

    @property
    def n_edges(self):
        return self._src.size

    def edge_arrays(self):
        """Read-only source and target index arrays, aligned with
        self.edges."""
        return self._src, self._dst

    def csr(self):
        """Read-only CSR offsets and targets: the successors of state i
        are targets[offsets[i]:offsets[i + 1]], in increasing order."""
        return self._offsets, self._dst

    def spectral_cache(self):
        """The spectral class index (pressure.SpectralCache) of this
        relation; built once per relation and shared by every solver."""
        if self._spectral is None:
            from .pressure import SpectralCache
            self._spectral = SpectralCache(self.n_states, self._src, self._dst)
        return self._spectral

    def edge_index(self):
        """Read-only map from each edge to its position in self.edges;
        built once per relation."""
        if self._index is None:
            self._index = MappingProxyType({e: k for k, e in enumerate(self.edges)})
        return self._index

    def relabel(self, theta):
        theta = list(theta)
        if sorted(theta) != list(range(self.n_states)):
            raise NotBijective(f"not a permutation of 0..{self.n_states - 1}")
        t = np.array(theta, dtype=np.int64)
        labels = None
        if self.labels is not None:
            labels = [None] * self.n_states
            for s in range(self.n_states):
                labels[theta[s]] = self.labels[s]
        return FiniteCorrespondence(
            self.n_states, np.stack((t[self._src], t[self._dst]), axis=1), labels)

    def __eq__(self, other):
        return (isinstance(other, FiniteCorrespondence)
                and self.n_states == other.n_states
                and np.array_equal(self._src, other._src)
                and np.array_equal(self._dst, other._dst))

    def __hash__(self):
        return hash((self.n_states, self._src.tobytes(), self._dst.tobytes()))

    def __repr__(self):
        return f"FiniteCorrespondence({self.n_states}, {list(self.edges)})"


def _pairs(src, dst):
    """Index arrays as a list of (i, j) tuples of Python ints."""
    return list(zip(src.tolist(), dst.tolist()))


def _rows(offsets, targets):
    """CSR rows as a tuple of tuples of Python ints."""
    flat, bounds = targets.tolist(), offsets.tolist()
    return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))


def csr_offsets(index, n):
    """CSR offsets of the rows 0..n-1 of a sorted index array: row i
    holds the entries offsets[i]:offsets[i + 1]."""
    return np.bincount(index + 1, minlength=n + 1).cumsum()


def _edge_columns(edges, n):
    """The edges as a (2, m) int64 array of the caller's own, sources
    over targets, in input order."""
    if isinstance(edges, np.ndarray) and edges.dtype.kind == "i":
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ShapeMismatch(f"edge array of shape {edges.shape}, not (m, 2)")
        return np.array(edges.T, dtype=np.int64, order="C")
    pairs = [(whole_number(i), whole_number(j)) for i, j in edges]
    try:
        return np.array(pairs, dtype=np.int64).reshape(-1, 2).T.copy()
    except OverflowError:
        # only an index far outside 0..n-1 leaves int64
        raise IndexOutOfRange([e for e in pairs if not (0 <= e[0] < n and 0 <= e[1] < n)],
                              n) from None


def _refuse_short(n, src, dst):
    """Raise what the constructor's checks raise on a relation with more
    states than edges, which cannot give every state a successor, with
    no array of length n: n may be huge."""
    pairs, counts = np.unique(np.stack((src, dst), axis=1), axis=0, return_counts=True)
    if np.any(counts > 1):
        raise DuplicateEdge(_pairs(*pairs[counts > 1].T))
    have = np.unique(src)
    first = np.arange(min(n, have.size + EmptySuccessor.LISTED))
    raise EmptySuccessor(first[~np.isin(first, have)].tolist(), n - have.size)


def inverse_correspondence(corr):
    """Transpose relation; requires every state to have an incoming edge."""
    src, dst = corr.edge_arrays()
    missed = np.flatnonzero(np.bincount(dst, minlength=corr.n_states) == 0)
    if missed.size:
        raise NotSurjective(missed.tolist())
    return FiniteCorrespondence(corr.n_states, np.stack((dst, src), axis=1),
                                corr.labels)


class Potential:
    """Real weight per edge of a correspondence.

    Values are kept as a vector aligned with corr.edges; edges not
    mentioned at construction get weight zero.  A weight is finite or
    -inf, which marks an absent edge.
    """

    def __init__(self, corr, values=None):
        self.corr = corr
        vec = np.zeros(corr.n_edges)
        if values is None:
            pass
        elif isinstance(values, dict):
            index = corr.edge_index()
            for edge, v in values.items():
                e = (whole_number(edge[0]), whole_number(edge[1]))
                if e not in index:
                    raise IndexOutOfRange([e], corr.n_states)
                vec[index[e]] = float(v)
        else:
            values = np.asarray(values, dtype=float)
            if values.shape != (corr.n_edges,):
                raise IndexOutOfRange([], corr.n_states)
            vec = values.copy()
        # -inf marks an absent edge; NaN and +inf have no meaning
        bad = np.flatnonzero(np.isnan(vec) | (vec == np.inf))
        if bad.size:
            k = int(bad[0])
            raise ShapeMismatch(
                f"potential weight {float(vec[k])!r} on edge {corr.edges[k]}")
        self.values = vec

    @classmethod
    def zero(cls, corr):
        return cls(corr)

    @classmethod
    def from_state_difference(cls, corr, psi):
        """Potential psi(i) - psi(j) over edges (i, j).

        Adding such a potential never moves the pressure; see the
        similarity identity exercised in the tests.
        """
        psi = np.asarray(psi, dtype=float)
        src, dst = corr.edge_arrays()
        return cls(corr, psi[src] - psi[dst])

    def shift(self, c):
        return Potential(self.corr, self.values + float(c))

    def __add__(self, other):
        if isinstance(other, Potential):
            if other.corr != self.corr:
                raise IndexOutOfRange([], self.corr.n_states)
            return Potential(self.corr, self.values + other.values)
        return self.shift(other)

    def relabel(self, theta):
        relabeled = self.corr.relabel(theta)
        # the relabeled keys, sorted, give the new edge order
        t = np.asarray(theta, dtype=np.int64)
        src, dst = self.corr.edge_arrays()
        moved = np.argsort(t[src] * self.corr.n_states + t[dst])
        return Potential(relabeled, self.values[moved])


@dataclass(frozen=True)
class Decomposition:
    """Ordered cover of the state space by blocks (overlap allowed)."""

    blocks: tuple

    def __init__(self, blocks):
        object.__setattr__(self, "blocks", tuple(tuple(sorted(set(b))) for b in blocks))


def decomposition_validate(corr, decomp):
    """Check the generating conditions for an ordered block cover.

    Returns a report dict and never raises: the union must cover the
    states, every induced block relation must itself be a
    correspondence, and no block may send an edge into the part of an
    earlier block it does not share.  Block states outside
    0..n_states-1 are listed under "outside" and make the report
    invalid.
    """
    blocks = decomp.blocks if isinstance(decomp, Decomposition) else Decomposition(decomp).blocks
    n = corr.n_states
    src, dst = corr.edge_arrays()
    report = {"valid": True, "covers": True, "block_rows": [], "forbidden_edges": []}
    # each block is sorted, so its states outside 0..n-1 are its two ends
    ends = [(b, bisect_left(b, 0), bisect_left(b, n)) for b in blocks]
    outside = sorted({s for b, lo, hi in ends for s in b[:lo] + b[hi:]})
    members = [np.array(b[lo:hi], dtype=np.int64) for b, lo, hi in ends]
    covered = np.zeros(n, dtype=bool)
    for b in members:
        covered[b] = True
    if outside or not covered.all():
        report["covers"] = False
        report["valid"] = False
        report["missing"] = np.flatnonzero(~covered).tolist()
    if outside:
        report["outside"] = outside
    earlier = np.zeros(n, dtype=bool)
    for k, b in enumerate(members):
        inside = np.zeros(n, dtype=bool)
        inside[b] = True
        from_b, into_b = inside[src], inside[dst]
        rows = np.bincount(src[from_b & into_b], minlength=n)
        empty = b[rows[b] == 0]
        if empty.size:
            report["block_rows"].append({"block": k, "states": empty.tolist()})
            report["valid"] = False
        bad = from_b & ~into_b & earlier[dst]
        if bad.any():
            report["forbidden_edges"].append({"block": k, "edges": _pairs(src[bad], dst[bad])})
            report["valid"] = False
        earlier |= inside
    return report

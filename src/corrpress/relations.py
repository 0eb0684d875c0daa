"""Finite correspondences (set-valued maps on a finite state space).

A correspondence on states {0, ..., n-1} is an edge relation in which
every state has at least one successor.  Orbits are walks along edges,
and a potential assigns a real weight to every edge.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import (
    DuplicateEdge,
    EmptySuccessor,
    IndexOutOfRange,
    InvalidPath,
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
    if isinstance(x, float) and x.is_integer():    # not NaN or inf
        return int(x)
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ShapeMismatch(f"{what} must be a whole number, not {x!r}")
    return int(x)


class FiniteCorrespondence:
    """Edge relation on n_states states with no empty successor set.

    Edges are stored sorted, so iteration order is deterministic and
    independent of construction order.
    """

    def __init__(self, n_states, edges, labels=None):
        if n_states <= 0:
            raise IndexOutOfRange(list(edges), n_states)
        edges = [(int(i), int(j)) for i, j in edges]
        bad = [e for e in edges if not (0 <= e[0] < n_states and 0 <= e[1] < n_states)]
        if bad:
            raise IndexOutOfRange(bad, n_states)
        seen, dups = set(), []
        for e in edges:
            if e in seen:
                dups.append(e)
            seen.add(e)
        if dups:
            raise DuplicateEdge(sorted(set(dups)))
        sources = {i for i, _ in seen}
        if len(sources) < n_states:
            # checked before any per-state allocation: n_states may be huge
            first = itertools.islice((i for i in range(n_states) if i not in sources),
                                     EmptySuccessor.LISTED)
            raise EmptySuccessor(list(first), n_states - len(sources))
        self.n_states = int(n_states)
        self.edges = tuple(sorted(seen))
        succ = [[] for _ in range(n_states)]
        pred = [[] for _ in range(n_states)]
        for i, j in self.edges:
            succ[i].append(j)
            pred[j].append(i)
        self._succ = tuple(tuple(s) for s in succ)
        self._pred = tuple(tuple(p) for p in pred)
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n_states:
                raise ShapeMismatch(f"{len(labels)} labels for {n_states} states")
        self.labels = labels
        self._arrays = None
        self._spectral = None
        self._index = None

    def successors(self, i):
        return self._succ[i]

    def predecessors(self, j):
        return self._pred[j]

    def has_edge(self, i, j):
        return (i, j) in self.edge_index()

    @property
    def n_edges(self):
        return len(self.edges)

    def edge_arrays(self):
        """Read-only source and target index arrays, aligned with
        self.edges; built once per relation."""
        if self._arrays is None:
            arrays = np.array(self.edges, dtype=np.int64).reshape(-1, 2).T.copy()
            arrays.flags.writeable = False
            self._arrays = (arrays[0], arrays[1])
        return self._arrays

    def spectral_cache(self):
        """The spectral class index (pressure.SpectralCache) of this
        relation; built once per relation and shared by every solver."""
        if self._spectral is None:
            from .pressure import SpectralCache
            self._spectral = SpectralCache(self)
        return self._spectral

    def edge_index(self):
        """Read-only map from each edge to its position in self.edges;
        built once per relation."""
        if self._index is None:
            self._index = MappingProxyType({e: k for k, e in enumerate(self.edges)})
        return self._index

    def restrict(self, states):
        """Sub-relation induced on the given states.

        Returns the restricted correspondence together with the list
        mapping its state indices back to the original ones.  Raises
        EmptySuccessor if some state loses all successors.
        """
        order = sorted(set(states))
        pos = {s: k for k, s in enumerate(order)}
        sub = [(pos[i], pos[j]) for i, j in self.edges if i in pos and j in pos]
        labels = None
        if self.labels is not None:
            labels = [self.labels[s] for s in order]
        return FiniteCorrespondence(len(order), sub, labels), order

    def relabel(self, theta):
        theta = list(theta)
        if sorted(theta) != list(range(self.n_states)):
            raise NotBijective(f"not a permutation of 0..{self.n_states - 1}")
        edges = [(theta[i], theta[j]) for i, j in self.edges]
        labels = None
        if self.labels is not None:
            labels = [None] * self.n_states
            for s in range(self.n_states):
                labels[theta[s]] = self.labels[s]
        return FiniteCorrespondence(self.n_states, edges, labels)

    def __eq__(self, other):
        return (isinstance(other, FiniteCorrespondence)
                and self.n_states == other.n_states
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.n_states, self.edges))

    def __repr__(self):
        return f"FiniteCorrespondence({self.n_states}, {list(self.edges)})"


def validate_correspondence(n_states, edges, labels=None):
    """Check and canonicalize raw edge data.

    Raises IndexOutOfRange, DuplicateEdge or EmptySuccessor, each
    listing every offending item.
    """
    return FiniteCorrespondence(n_states, edges, labels)


def from_map(n_states, images, direction="forward"):
    """Correspondence of a map i -> images[i], or of its inverse.

    The inverse direction requires the map to be surjective; the graph
    of the inverse then consists of the reversed edges.
    """
    images = list(images)
    if len(images) != n_states:
        raise IndexOutOfRange([], n_states)
    edges = [(i, int(images[i])) for i in range(n_states)]
    if direction == "forward":
        return FiniteCorrespondence(n_states, edges)
    if direction == "inverse":
        missed = sorted(set(range(n_states)) - set(j for _, j in edges))
        if missed:
            raise NotSurjective(missed)
        return FiniteCorrespondence(n_states, [(j, i) for i, j in edges])
    raise ValueError(f"unknown direction {direction!r}")


def inverse_correspondence(corr):
    """Transpose relation; requires every state to have an incoming edge."""
    missed = [j for j in range(corr.n_states) if not corr.predecessors(j)]
    if missed:
        raise NotSurjective(missed)
    return FiniteCorrespondence(corr.n_states, [(j, i) for i, j in corr.edges],
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
                e = (int(edge[0]), int(edge[1]))
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

    def __getitem__(self, edge):
        idx = self.corr.edge_index()
        return float(self.values[idx[(edge[0], edge[1])]])

    def as_dict(self):
        return {e: float(v) for e, v in zip(self.corr.edges, self.values)}

    def sup_norm(self):
        return float(np.max(np.abs(self.values))) if self.corr.n_edges else 0.0

    def shift(self, c):
        return Potential(self.corr, self.values + float(c))

    def scale(self, t):
        return Potential(self.corr, self.values * float(t))

    def __add__(self, other):
        if isinstance(other, Potential):
            if other.corr != self.corr:
                raise IndexOutOfRange([], self.corr.n_states)
            return Potential(self.corr, self.values + other.values)
        return self.shift(other)

    def restrict(self, sub, order):
        """Transport onto a sub-relation produced by corr.restrict."""
        idx = self.corr.edge_index()
        vals = [self.values[idx[(order[i], order[j])]] for i, j in sub.edges]
        return Potential(sub, np.array(vals))

    def relabel(self, theta):
        relabeled = self.corr.relabel(theta)
        vals = {(theta[i], theta[j]): v for (i, j), v in zip(self.corr.edges, self.values)}
        return Potential(relabeled, vals)


def birkhoff_sum(corr, phi, path):
    """Sum of phi along consecutive pairs of a walk.

    The walk (x_1, ..., x_{m+1}) must follow edges; a broken pair is
    reported with its position.
    """
    path = [int(x) for x in path]
    if len(path) < 1:
        raise InvalidPath(0, ())
    for k, x in enumerate(path):
        if not 0 <= x < corr.n_states:
            raise InvalidPath(k, (x,))
    idx = corr.edge_index()
    total = 0.0
    for k in range(len(path) - 1):
        e = (path[k], path[k + 1])
        if e not in idx:
            raise InvalidPath(k, e)
        total += phi.values[idx[e]]
    return total


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
    earlier block it does not share.
    """
    blocks = decomp.blocks if isinstance(decomp, Decomposition) else Decomposition(decomp).blocks
    report = {"valid": True, "covers": True, "block_rows": [], "forbidden_edges": []}
    covered = set()
    for b in blocks:
        covered.update(b)
    if covered != set(range(corr.n_states)):
        report["covers"] = False
        report["valid"] = False
        report["missing"] = sorted(set(range(corr.n_states)) - covered)
    earlier = set()
    for k, b in enumerate(blocks):
        bset = set(b)
        empty = [i for i in b if not any(j in bset for j in corr.successors(i))]
        if empty:
            report["block_rows"].append({"block": k, "states": empty})
            report["valid"] = False
        forbidden = earlier - bset
        bad = [(i, j) for i, j in corr.edges if i in bset and j in forbidden]
        if bad:
            report["forbidden_edges"].append({"block": k, "edges": sorted(bad)})
            report["valid"] = False
        earlier |= bset
    return report

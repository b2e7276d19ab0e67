"""Independent reference answers for every workload.

Nothing here imports the package under test: the primitives come from
SciPy sparse, closure from a semi-naive SciPy reachability loop, CFPQ
from a dense CNF fixpoint in NumPy, RPQ from a breadth-first search of
the product of a Thompson automaton with the graph, and min-plus
distances from ``scipy.sparse.csgraph.dijkstra``.  Answers are compared
through :func:`digest`, a hash of the canonical (sorted, deduplicated)
form, so a run can check thousands of answers without keeping them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

# -- canonical forms ---------------------------------------------------------


def digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(np.int64(a.size).tobytes())
        h.update(a.tobytes())
    return h.hexdigest()


def pattern_digest(rows, cols) -> str:
    """Digest of a boolean pattern given as coordinate arrays."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    ascending = (rows[1:] > rows[:-1]) | ((rows[1:] == rows[:-1]) & (cols[1:] > cols[:-1]))
    if rows.size and not ascending.all():  # else already canonical
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        keep = np.ones(rows.size, dtype=bool)
        keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        rows, cols = rows[keep], cols[keep]
    return digest(rows, cols)


def csr_digest(m) -> str:
    coo = sp.coo_matrix(m)
    return pattern_digest(coo.row, coo.col)


def set_digest(values) -> str:
    """Digest of a vertex set."""
    return digest(np.unique(np.fromiter(values, dtype=np.int64)))


def pairs_digest(pairs) -> str:
    a = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    return pattern_digest(a[:, 0], a[:, 1])


def distances_digest(pairs) -> str:
    """Digest of a set of (vertex, distance) pairs."""
    items = sorted(pairs)
    v = np.array([p[0] for p in items], dtype=np.int64)
    d = np.array([p[1] for p in items], dtype=np.float64)
    return digest(v, d)


# -- primitives (SciPy sparse) -----------------------------------------------


def pattern(rows, cols, shape) -> sp.csr_matrix:
    data = np.ones(len(rows), dtype=np.int32)
    m = sp.csr_matrix((data, (np.asarray(rows), np.asarray(cols))), shape=shape)
    m.sum_duplicates()
    m.data[:] = 1
    return m


def _bool(m) -> sp.csr_matrix:
    m = sp.csr_matrix(m)
    m.eliminate_zeros()
    m.data = np.ones_like(m.data, dtype=np.int32)
    return m


def mxm(a, b):
    return _bool(a @ b)


def ewise_add(a, b):
    return _bool(a + b)


def kron(a, b):
    return _bool(sp.kron(a, b, format="csr"))


def transpose(a):
    return _bool(a.T)


def submatrix(a, i, j, nrows, ncols):
    return _bool(a[i:i + nrows, j:j + ncols])


def reduce_rows(a) -> np.ndarray:
    """Indices of the non-empty rows (the boolean row reduction)."""
    return np.flatnonzero(np.diff(sp.csr_matrix(a).indptr))


# -- closure -------------------------------------------------------------------


def closure(a) -> sp.csr_matrix:
    """Pairs joined by a path of length >= 1 (semi-naive reachability)."""
    a = _bool(a)
    total = a.copy()
    frontier = a.copy()
    while frontier.nnz:
        step = _bool(frontier @ a)
        new = _bool(step - step.multiply(total))
        total = _bool(total + new)
        frontier = new
    return total


# -- CFPQ: dense CNF fixpoint ----------------------------------------------------


def same_generation_cnf(a: str, b: str, *, base: str | None = None):
    """CNF of ``S -> a S b | a b`` (or ``S -> a S b | base`` when given).

    Returns (terminal rules {nt: [label]}, binary rules [(lhs, B, C)]).
    """
    terminals = {"A": [a], "B": [b]}
    binary = [("S", "A", "X"), ("X", "S", "B")]
    if base is None:
        binary.append(("S", "A", "B"))
    else:
        terminals["S"] = [base]
    return terminals, binary


def cnf_fixpoint(edges: dict, terminals: dict, binary: list):
    """Dense boolean CNF fixpoint restricted to the vertices the grammar's
    labels touch (exact: every derivation only walks those edges).

    ``edges`` maps label -> (rows, cols).  Returns the set of (u, v)
    pairs derived from the start symbol ``S``.
    """
    labels = {lab for labs in terminals.values() for lab in labs}
    verts = np.unique(np.concatenate(
        [np.concatenate(edges[lab]) for lab in labels if lab in edges]
        or [np.zeros(0, np.int64)]
    ))
    k = len(verts)
    index = {int(v): i for i, v in enumerate(verts)}
    nts = {lhs for lhs, _, _ in binary} | set(terminals) | {
        x for _, b, c in binary for x in (b, c)
    }
    mats = {nt: np.zeros((k, k), dtype=np.float32) for nt in nts}
    for nt, labs in terminals.items():
        for lab in labs:
            r, c = edges.get(lab, (np.zeros(0, np.int64), np.zeros(0, np.int64)))
            mats[nt][[index[int(x)] for x in r], [index[int(x)] for x in c]] = 1.0
    changed = True
    while changed:
        changed = False
        for lhs, b, c in binary:
            prod = (mats[b] @ mats[c]) > 0
            before = int(np.count_nonzero(mats[lhs]))
            mats[lhs][prod] = 1.0
            if int(np.count_nonzero(mats[lhs])) != before:
                changed = True
    r, c = np.nonzero(mats["S"])
    return set(zip(verts[r].tolist(), verts[c].tolist()))


# -- RPQ: Thompson automaton x graph, breadth-first ----------------------------


class _Thompson:
    """Regex (labels, ``.``, ``|``, ``*``, ``+``, ``?``, parentheses) to an
    epsilon-NFA, by recursive descent."""

    def __init__(self, text: str):
        self.tokens = self._lex(text)
        self.pos = 0
        self.eps: list[set] = []
        self.moves: list[list] = []  # state -> [(label, target)]

    @staticmethod
    def _lex(text: str) -> list[str]:
        out, i = [], 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "().|*+?":
                out.append(ch)
                i += 1
            else:
                j = i
                while j < len(text) and not text[j].isspace() and text[j] not in "().|*+?":
                    j += 1
                out.append(text[i:j])
                i = j
        return out

    def _state(self) -> int:
        self.eps.append(set())
        self.moves.append([])
        return len(self.eps) - 1

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def parse(self) -> tuple[int, int]:
        frag = self._alt()
        if self._peek() is not None:
            raise ValueError(f"unexpected token {self._peek()!r}")
        return frag

    def _alt(self):
        s, f = self._concat()
        while self._peek() == "|":
            self.pos += 1
            s2, f2 = self._concat()
            ns, nf = self._state(), self._state()
            self.eps[ns] |= {s, s2}
            self.eps[f].add(nf)
            self.eps[f2].add(nf)
            s, f = ns, nf
        return s, f

    def _concat(self):
        s, f = self._postfix()
        while self._peek() == ".":
            self.pos += 1
            s2, f2 = self._postfix()
            self.eps[f].add(s2)
            f = f2
        return s, f

    def _postfix(self):
        s, f = self._atom()
        while self._peek() in ("*", "+", "?"):
            op = self._peek()
            self.pos += 1
            ns, nf = self._state(), self._state()
            self.eps[ns].add(s)
            self.eps[f].add(nf)
            if op in ("*", "?"):
                self.eps[ns].add(nf)
            if op in ("*", "+"):
                self.eps[f].add(s)
            s, f = ns, nf
        return s, f

    def _atom(self):
        tok = self._peek()
        if tok == "(":
            self.pos += 1
            frag = self._alt()
            if self._peek() != ")":
                raise ValueError("missing ')'")
            self.pos += 1
            return frag
        if tok is None or tok in ").|*+?":
            raise ValueError(f"expected a label, got {tok!r}")
        self.pos += 1
        s, f = self._state(), self._state()
        self.moves[s].append((tok, f))
        return s, f


class Automaton:
    """Epsilon-free NFA: per-label transition matrices, start state 0."""

    def __init__(self, regex: str):
        t = _Thompson(regex)
        start, accept = t.parse()
        closure = []
        for q in range(len(t.eps)):
            seen, stack = {q}, [q]
            while stack:
                for r in t.eps[stack.pop()]:
                    if r not in seen:
                        seen.add(r)
                        stack.append(r)
            closure.append(seen)
        # Keep the states reachable from start over non-epsilon moves.
        order = [start] + [q for q in range(len(t.eps))
                           if q != start and any(q == tgt for p in range(len(t.eps))
                                                 for _, tgt in t.moves[p])]
        ids = {q: i for i, q in enumerate(order)}
        self.size = len(order)
        self.final = np.array([accept in closure[q] for q in order])
        trans: dict[str, set] = {}
        for q in order:
            for p in closure[q]:
                for label, tgt in t.moves[p]:
                    trans.setdefault(label, set()).add((ids[q], ids[tgt]))
        self.trans = trans


def product_graph(auto: Automaton, edges: dict, n: int) -> sp.csr_matrix:
    """Adjacency of (state, vertex) nodes, node id ``state * n + vertex``."""
    q = auto.size
    total = sp.csr_matrix((q * n, q * n), dtype=np.int32)
    for label, moves in auto.trans.items():
        if label not in edges:
            continue
        r, c = edges[label]
        if not len(r):
            continue
        mr, mc = zip(*sorted(moves))
        total = total + sp.kron(pattern(mr, mc, (q, q)), pattern(r, c, (n, n)), format="csr")
    return _bool(total)


def rpq_reach(auto: Automaton, edges: dict, n: int, sources) -> list[set]:
    """Vertices reachable from each source along a word of the language."""
    sources = np.asarray(sources, dtype=np.int64)
    k = len(sources)
    prod = product_graph(auto, edges, n)
    frontier = pattern(np.arange(k), sources, (k, auto.size * n))  # start = 0
    visited = frontier.copy()
    while frontier.nnz:
        step = _bool(frontier @ prod)
        frontier = _bool(step - step.multiply(visited))
        visited = _bool(visited + frontier)
    coo = visited.tocoo()
    state, vertex = coo.col // n, coo.col % n
    hit = auto.final[state]
    out = [set() for _ in range(k)]
    for i, v in zip(coo.row[hit].tolist(), vertex[hit].tolist()):
        out[i].add(v)
    return out


def rpq_pairs(auto: Automaton, edges: dict, n: int) -> set:
    answers = rpq_reach(auto, edges, n, np.arange(n))
    return {(s, v) for s, vs in enumerate(answers) for v in vs}


# -- min-plus distances ----------------------------------------------------------


def weighted_graph(edges: dict, n: int, weights: dict):
    """Min-plus weight matrix; parallel edges keep the lightest label.
    ``weights`` names every label of ``edges``."""
    best: dict = {}
    for label, (r, c) in edges.items():
        w = float(weights[label])
        for u, v in zip(r.tolist(), c.tolist()):
            if w < best.get((u, v), np.inf):
                best[(u, v)] = w
    if not best:
        return sp.csr_matrix((n, n))
    keys = np.array(list(best), dtype=np.int64)
    vals = np.fromiter(best.values(), dtype=np.float64)
    return sp.csr_matrix((vals, (keys[:, 0], keys[:, 1])), shape=(n, n))


def distances(graph, sources) -> list[set]:
    """Shortest distances from each source as sets of (vertex, distance)."""
    d = np.atleast_2d(dijkstra(graph, directed=True, indices=np.asarray(sources)))
    return [
        {(int(v), float(row[v])) for v in np.flatnonzero(np.isfinite(row))}
        for row in d
    ]

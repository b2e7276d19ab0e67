"""Small checks of the benchmark's oracles against brute force.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest

from perfbench import inputs, oracles


def _random_pattern(rng, n, m, shape=None):
    shape = shape or (n, n)
    r = rng.integers(0, shape[0], m)
    c = rng.integers(0, shape[1], m)
    dense = np.zeros(shape, dtype=bool)
    dense[r, c] = True
    return oracles.pattern(r, c, shape), dense


def _dense(m) -> np.ndarray:
    return m.toarray() != 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_primitives_match_dense_boolean_algebra(seed):
    rng = np.random.default_rng(seed)
    a, da = _random_pattern(rng, 30, 60)
    b, db = _random_pattern(rng, 30, 60)
    t, dt = _random_pattern(rng, 3, 4, (3, 3))
    assert (_dense(oracles.mxm(a, b)) == ((da.astype(int) @ db.astype(int)) > 0)).all()
    assert (_dense(oracles.ewise_add(a, b)) == (da | db)).all()
    assert (_dense(oracles.kron(t, a)) == np.kron(dt, da)).all()
    assert (_dense(oracles.transpose(a)) == da.T).all()
    assert (_dense(oracles.submatrix(a, 3, 5, 10, 12)) == da[3:13, 5:17]).all()
    assert list(oracles.reduce_rows(a)) == list(np.flatnonzero(da.any(axis=1)))


@pytest.mark.parametrize("seed", [0, 1])
def test_closure_matches_warshall(seed):
    rng = np.random.default_rng(seed)
    a, da = _random_pattern(rng, 25, 30)
    reach = da.copy()
    for k in range(25):
        reach |= reach[:, [k]] & reach[[k], :]
    assert (_dense(oracles.closure(a)) == reach).all()


def _words(edges, n, source, max_len):
    """Every (label word, end vertex) of a walk from source, length <= max_len."""
    adj = {}
    for label, (r, c) in edges.items():
        for u, v in zip(r.tolist(), c.tolist()):
            adj.setdefault(u, []).append((label, v))
    out = [((), source)]
    frontier = [((), source)]
    for _ in range(max_len):
        frontier = [(w + (lab,), v) for w, u in frontier for lab, v in adj.get(u, ())]
        out += frontier
    return out


def _python_regex(regex, alphabet):
    """Our regex syntax over labels -> Python regex over one char per label."""
    toks = oracles._Thompson._lex(regex)
    return "".join(alphabet.get(t, {".": ""}.get(t, t)) for t in toks)


def _dag_edges(rng, n, m):
    """m distinct forward edges u < v: every walk over them is shorter than n."""
    pairs = sorted({(int(min(u, v)), int(max(u, v)))
                    for u, v in rng.integers(0, n, (m, 2)) if u != v})
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


@pytest.mark.parametrize("regex", [
    "a*", "a . b*", "(a | b)+", "a? . b*", "(a . b)+ | (b . a)+", "a . ~a", "(a | b) . a*",
])
def test_rpq_reach_matches_word_enumeration(regex):
    rng = np.random.default_rng(7)
    n = 7
    edges = {"a": _dag_edges(rng, n, 9), "b": _dag_edges(rng, n, 7)}
    edges["~a"] = (edges["a"][1], edges["a"][0])
    alphabet = {"a": "x", "b": "y", "~a": "z"}
    pattern = re.compile(_python_regex(regex, alphabet))
    auto = oracles.Automaton(regex)
    got = oracles.rpq_reach(auto, edges, n, list(range(n)))
    for s in range(n):
        # Words over a and b follow the DAG, so n - 1 steps enumerate them
        # all; the only word with ~a in these queries has length 2.
        want = {v for w, v in _words(edges, n, s, n - 1)
                if pattern.fullmatch("".join(alphabet[x] for x in w))}
        assert got[s] == want, (regex, s)
    pairs = oracles.rpq_pairs(auto, edges, n)
    assert pairs == {(s, v) for s in range(n) for v in got[s]}


def test_same_generation_cnf_on_a_tree():
    # 0 is the root; 1, 2 its children; 3, 4 children of 1; 5 child of 2.
    parent = {1: 0, 2: 0, 3: 1, 4: 1, 5: 2}
    up = (np.array(list(parent)), np.array(list(parent.values())))
    edges = {"up": up, "down": (up[1], up[0])}
    depth = {0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 2}
    terminals, binary = oracles.same_generation_cnf("up", "down")
    # up^k down^k, k >= 1: vertices at the same depth below a common ancestor.
    assert oracles.cnf_fixpoint(edges, terminals, binary) == {
        (u, v) for u in parent for v in parent if depth[u] == depth[v]}
    # down^k up^(k+1) (the paper's G2 shape): parents are unique, so the
    # walk climbs back through u and ends at u's parent.
    terminals, binary = oracles.same_generation_cnf("down", "up", base="up")
    assert oracles.cnf_fixpoint(edges, terminals, binary) == {
        (u, p) for u, p in parent.items()}


def test_distances_match_bellman_ford():
    rng = np.random.default_rng(3)
    n = 12
    raw = {lab: rng.integers(0, n, (15, 2)) for lab in ("a", "b")}
    edges = {lab: (e[:, 0], e[:, 1]) for lab, e in raw.items()}
    weights = {"a": 2.0, "b": 3.0}
    g = oracles.weighted_graph(edges, n, weights)
    dist = np.full(n, np.inf)
    dist[0] = 0.0
    for _ in range(n):
        for lab, e in raw.items():
            for u, v in e:
                dist[v] = min(dist[v], dist[u] + weights[lab])
    want = {(v, dist[v]) for v in range(n) if np.isfinite(dist[v])}
    assert oracles.distances(g, [0])[0] == want


def test_digests_ignore_order_and_duplicates():
    assert oracles.pattern_digest([2, 0, 2], [1, 3, 1]) == oracles.pattern_digest([0, 2], [3, 1])
    assert oracles.set_digest({3, 1, 2}) == oracles.set_digest([1, 2, 3])
    assert oracles.pairs_digest({(1, 2), (0, 5)}) == oracles.pattern_digest([0, 1], [5, 2])
    assert oracles.set_digest([1, 2]) != oracles.set_digest([1, 3])


def test_inputs_follow_the_seed():
    a, b, c = (inputs.paper_ops_input(s) for s in (5, 5, 6))
    for fa, fb, fc in zip(a.families, b.families, c.families):
        assert (fa.rows == fb.rows).all() and (fa.cols == fb.cols).all()
        assert fa.n == fc.n
    assert any(len(fa.rows) != len(fc.rows) or (fa.rows != fc.rows).any()
               for fa, fc in zip(a.families, c.families))
    ga, gb = inputs.university(5), inputs.university(5)
    assert ga.edges == gb.edges and ga.n == inputs.university(6).n
    sa = list(itertools.islice(inputs.read_stream(5, 0, ga), 50))
    assert sa == list(itertools.islice(inputs.read_stream(5, 0, gb), 50))

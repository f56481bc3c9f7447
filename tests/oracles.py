"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's own algorithms: closure is a plain
worklist over products, and distances come from an element-level BFS over an
explicitly built adjacency structure.  The centralizer classes of the
commuting graph come from scanning every element against every element.  The
series and cores run over every element or every pair of elements of the
group.  The diameter-8 references work in log space: D = <x, c> by closure,
and fixed-point equations on F by scanning every field element.
"""

import itertools
from collections import deque

from commgraph.errors import EmptyGraph


def naive_closure(generators):
    """Set closure under products, no ordering, no identity bootstrap."""
    elems = set(generators)
    work = list(elems)
    while work:
        nxt = []
        for a in work:
            for g in generators:
                c = a * g
                if c not in elems:
                    elems.add(c)
                    nxt.append(c)
        work = nxt
    return elems


def naive_vertex_adjacency(group):
    """Element-level commuting adjacency over non-central vertices."""
    elems = group.elements
    central = [g for g in elems if all(g * h == h * g for h in elems)]
    vertices = [g for g in elems if g not in set(central)]
    adj = {v: set() for v in vertices}
    for i, v in enumerate(vertices):
        for w in vertices[i + 1:]:
            if v * w == w * v:
                adj[v].add(w)
                adj[w].add(v)
    return vertices, adj


def naive_all_distances(vertices, adj):
    """BFS from every vertex; missing pairs are unreachable."""
    dist = {}
    for src in vertices:
        d = {src: 0}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in d:
                    d[w] = d[v] + 1
                    queue.append(w)
        dist[src] = d
    return dist


def brute_centralizer(group, x):
    return {g for g in group.elements if g * x == x * g}


def scan_centralizer_classes(group):
    """(classes, class_of, adjacency) of the commuting graph, as build_graph
    orders them, from one centralizer scan per element.

    A vertex's centralizer is the set of indices of the elements that commute
    with it; vertices are grouped by that set, and two classes are adjacent
    when one representative commutes with the other.  Raises EmptyGraph when
    every element is central.
    """
    elems = group.elements
    index = {g: i for i, g in enumerate(elems)}
    cent_of = {v: frozenset(i for i, g in enumerate(elems) if g * v == v * g) for v in elems}
    buckets = {}
    for v in elems:
        if len(cent_of[v]) < len(elems):
            buckets.setdefault(cent_of[v], []).append(v)
    if not buckets:
        raise EmptyGraph("every element is central")
    classes = sorted(
        (sorted(members, key=lambda e: e.key()) for members in buckets.values()),
        key=lambda cls: cls[0].key(),
    )
    class_of = {v: i for i, cls in enumerate(classes) for v in cls}
    adjacency = [
        sorted(j for j, other in enumerate(classes) if j != i and index[other[0]] in cent_of[cls[0]])
        for i, cls in enumerate(classes)
    ]
    return classes, class_of, adjacency


# --- series and cores: every element, every pair ----------------------------


def _closure_with_identity(group, seed):
    return naive_closure(list(seed)) | {group.identity}


def _commutator(a, b):
    return a.inverse() * b.inverse() * a * b


def exhaustive_derived(group, members):
    """<[a, b] : a, b in members> over all pairs."""
    return _closure_with_identity(group, {_commutator(a, b) for a in members for b in members})


def exhaustive_is_soluble(group):
    members = set(group.elements)
    while len(members) > 1:
        nxt = exhaustive_derived(group, members)
        if len(nxt) == len(members):
            return False
        members = nxt
    return True


def exhaustive_is_nilpotent(group):
    """Lower central series, gamma_{i+1} = <[n, g] : n in gamma_i, g in G>."""
    whole = set(group.elements)
    members = whole
    while len(members) > 1:
        nxt = _closure_with_identity(group, {_commutator(n, g) for n in members for g in whole})
        if len(nxt) == len(members):
            return False
        members = nxt
    return True


def exhaustive_normal_closure(group, x):
    """<x^g : g in G> over every element g."""
    return _closure_with_identity(group, {g.inverse() * x * g for g in group.elements})


def _order(x):
    n, acc = 1, x
    while not acc.is_identity():
        acc, n = acc * x, n + 1
    return n


def _is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def exhaustive_p_core(group, p):
    """O_p(G), the largest normal p-subgroup, without any Sylow subgroup.

    x lies in O_p(G) iff its normal closure is a p-group, so O_p(G) is
    generated by those x.
    """
    seed = {
        x for x in group.elements
        if _is_p_power(_order(x), p)
        and _is_p_power(len(exhaustive_normal_closure(group, x)), p)
    }
    return _closure_with_identity(group, seed)


def unfiltered_least_irreducible(p, k, is_irreducible):
    """The lexicographically least monic irreducible of degree k, testing
    every candidate with `is_irreducible` (no pre-filter)."""
    if k == 1:
        return (0, 1)
    for coeffs in itertools.product(range(p), repeat=k):
        cand = list(coeffs) + [1]
        if is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")


# --- the diameter-8 witness: log-space references ---------------------------


class LogTables:
    """Discrete logs of a field's nonzero elements to its canonical primitive
    element, built by repeated multiplication."""

    def __init__(self, spec):
        self.spec = spec
        g = spec.primitive_element()
        self.exp, self.log = [], {}
        acc = spec.one()
        for i in range(spec.size - 1):
            self.exp.append(acc.coeffs)
            self.log[acc.coeffs] = i
            acc = acc * g


def enumerated_fixed_set(tables, mu, twist):
    """{m : mu * m^(q^twist) = m} as coefficient tuples, by scanning every
    nonzero field element in log space (zero always solves)."""
    spec = tables.spec
    n = spec.size - 1
    qi = pow(spec.p, twist % spec.k, n)
    lmu = tables.log[mu.coeffs]
    sols = {(0,) * spec.k}
    for lm in range(n):
        if (lmu + lm * qi) % n == lm:
            sols.add(tables.exp[lm])
    return sols


class LogSpaceD:
    """Diagonal-with-twist 4x4 matrices in log space.

    An element is (twist, l1, l2, l3, l4): the diagonal entries are g^l_i for
    the canonical primitive element g.  Multiplication mirrors the
    MatrixAutElement rule (A, i)(B, j) = (A * beta^{-i}(B), i + j).
    """

    def __init__(self, tables):
        spec = tables.spec
        self.tables = tables
        self.k = spec.k
        self.n = spec.size - 1
        self.qpow = [pow(spec.p, j, self.n) for j in range(self.k)]

    def mul(self, a, b):
        s = self.qpow[(self.k - a[0]) % self.k]
        return ((a[0] + b[0]) % self.k,) + tuple(
            (la + lb * s) % self.n for la, lb in zip(a[1:], b[1:])
        )

    def from_matrix(self, elem):
        """Log form of a diagonal element (raises KeyError otherwise)."""
        assert all(elem.mat[i][j].is_zero() for i in range(4) for j in range(4) if i != j)
        return (elem.twist,) + tuple(self.tables.log[elem.mat[i][i].coeffs] for i in range(4))

    def closure(self, gens):
        """Plain breadth-first closure of gens under mul."""
        ident = (0,) * 5
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for e in frontier:
                for g in gens:
                    h = self.mul(e, g)
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
            frontier = nxt
        return seen

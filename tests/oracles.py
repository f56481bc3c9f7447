"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's own algorithms: closure is a plain
worklist over products, and distances come from an element-level BFS over an
explicitly built adjacency structure.  The diameter-8 references work in
log space: D = <x, c> by closure, and fixed-point equations on F by scanning
every field element.
"""

from collections import deque


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

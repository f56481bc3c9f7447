"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's own algorithms: closure is a plain
worklist over products, and distances come from an element-level BFS over an
explicitly built adjacency structure.  Centralizers, the centre, normalizers
and normality come from scanning products over every element, and the
centralizer classes of the commuting graph from scanning every element
against every element; their adjacency from testing every pair of class
representatives, and their conjugation orbits from conjugating a
representative by every element.  The series and cores run over every
element or every pair of elements of the group, and the cosets of a
quotient are formed by products, which also give the quotient as a
permutation group of degree [G:N], materialized by its own walk.  The
Frobenius tests check every kernel element against every element of the
pool, and project every element of G onto G/K.  Metacyclicity comes from
a search of every cyclic subgroup: each normal one's quotient is built and
scanned for a generator.  The
diameter-8 references work in log space: D = <x, c> by closure, and
fixed-point equations on F by scanning every field element;
centralizers in D are also listed element by element in exponent form,
and C_F(w) is counted entry by entry, summing over the solution sets to
impose x*a = b - d.
Powers, inverses, orders and the Frobenius map of field elements come from
repeated multiplication or a scan of the field, and primality,
factorization and irreducibility from trial division; the irreducibility
test also has its older form by repeated p-th powers and a gcd.  The
powers and order of a group element come from multiplying until the
identity returns, the normal form of an element of D from matrix products,
and the inverse of a symbolic unitriangular matrix from its alternating
series.  Seven library helpers that only the tests call live here too: a
greedy generating set of a subgroup, a subgroup as a group of its own, the
derived subgroup, the Sylow profile of a Frobenius complement, the search
for a complement, polynomial evaluation, and x^n in D's normal form.
The polynomials of the symbolic checks, whose coefficients are ints in
GF(p), have their earlier form here as FieldPoly, whose coefficients are
field elements and whose every term operation is field arithmetic.
"""

import functools
import itertools
import math
from collections import deque
from operator import add
from types import SimpleNamespace

from commgraph.errors import EmptyGraph, NotNormalizing, SpecMismatch, SymbolicFailure
from commgraph.fields import FieldElement, FieldSpec, _poldeg, _polpowmod
from commgraph.groups import (
    GroupHandle,
    PermutationElement,
    SubgroupHandle,
    _commutator_at,
    _compose,
    _index_closure,
    _normal_closure,
    is_normal,
    quotient_group,
    sylow_subgroup,
)
from commgraph.matrices import MatrixAutElement, _diag
from commgraph.primes import factorize


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


def naive_diameter(group):
    """Diameter of the commuting graph: the largest element-level distance
    over every pair of vertices, Infinity when some pair is unreachable."""
    vertices, adj = naive_vertex_adjacency(group)
    dist = naive_all_distances(vertices, adj)
    return max(dist[x].get(y, math.inf) for x in vertices for y in vertices)


def brute_centralizer(group, x):
    return {g for g in group.elements if g * x == x * g}


def brute_center(group):
    """Z(G): the elements that commute with every element."""
    elems = group.elements
    return {g for g in elems if all(g * h == h * g for h in elems)}


def brute_normalizer(group, members):
    """N_G(H): the g with g^-1 h g in H for every member h of H."""
    members = set(members)
    out = set()
    for g in group.elements:
        gi = g.inverse()
        if all(gi * h * g in members for h in members):
            out.add(g)
    return out


def brute_is_normal(group, members):
    """H is normal iff its normalizer is all of G."""
    return len(brute_normalizer(group, members)) == len(group.elements)


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


def brute_centralizer_orbits(group, classes, class_of):
    """The orbits of conjugation on the centralizer classes of the commuting
    graph, as sets of class numbers: C(x)^g = C(x^g), so the orbit of the
    class of x holds the class of g^-1 x g for every element g."""
    orbits, seen = [], set()
    for i, cls in enumerate(classes):
        if i not in seen:
            x = cls[0]
            orbit = {class_of[g.inverse() * x * g] for g in group.elements}
            seen |= orbit
            orbits.append(orbit)
    return orbits


def all_pairs_adjacency(graph):
    """The class adjacency of a built commuting graph: classes i != j are
    adjacent when their representatives commute, one product pair per pair."""
    reps = graph.reps
    return [
        sorted(j for j, y in enumerate(reps) if j != i and x * y == y * x)
        for i, x in enumerate(reps)
    ]


def cyclic_powers(x) -> list:
    """[1, x, x^2, ..., x^(n-1)] for n the order of x."""
    out = [x.identity()]
    acc = x
    while not acc.is_identity():
        out.append(acc)
        acc = acc * x
    return out


def group_element_order(x) -> int:
    """The order of a group element, by multiplying until 1 comes back."""
    return len(cyclic_powers(x))


# --- library helpers that only the tests call -------------------------------


def generator_indices(H):
    """Indices in H's parent of a greedy generating set of the subgroup H:
    each member, in key order, that falls outside the closure of those
    before it."""
    G = H.parent
    gens: list = []
    current = {0}
    for i in G.key_order():
        if i in H.indices() and i not in current:
            gens.append(i)
            current = set(_index_closure(G, gens))
            if len(current) == H.order():
                break
    return gens


def as_group(H):
    """The subgroup H as a group of its own, by a walk over its members.

    The members of a subgroup of an index group are coset numbers, with no
    product of their own, so there the walk is over the permutations by
    which a generating set multiplies H on the right.
    """
    G = H.parent
    if not isinstance(G.identity, int):
        return GroupHandle(list(H.members)).materialize()
    members = sorted(H.indices())
    position = {i: n for n, i in enumerate(members)}
    return GroupHandle([
        PermutationElement([position[_compose(j, G.right_tables(g))] for j in members])
        for g in generator_indices(H) or [0]
    ]).materialize()


def derived_subgroup(G, H=None):
    """G' (or H' for a subgroup H) through the library's normal-closure
    engine, as a subgroup of G: the normal closure in G of the commutators
    of the generators.  H has to be normal in G, since H' is then normal in
    G and equals that closure; the only caller passes G'."""
    gens = generator_indices(H) if H is not None else [G.index_of(g) for g in G.generators]
    comms = [_commutator_at(G, a, b) for a, b in itertools.combinations(gens, 2)]
    return SubgroupHandle(G, _normal_closure(G, comms)[1])


def sylow_profile_cyclic_or_quaternion(H: SubgroupHandle) -> bool:
    """True iff every Sylow subgroup of H is cyclic or generalized quaternion.

    Generalized quaternion means: a 2-group of order >= 8 with a unique
    involution and a cyclic subgroup of index 2.
    """
    Hg = as_group(H)
    for p in factorize(Hg.order()):
        S = sylow_subgroup(Hg, p).indices()
        orders = [Hg.element_order_at(i) for i in S]
        if len(S) in orders:
            continue
        if p != 2 or len(S) < 8 or orders.count(2) != 1 or len(S) // 2 not in orders:
            return False
    return True


def find_frobenius_complement(G: GroupHandle, K: SubgroupHandle, max_order: int = 500):
    """Search for a complement to K: a subgroup H with |H| = [G:K], H cap K = 1.

    Exhaustive over one- and two-generator subgroups, first hit in canonical
    order; diagnostics only, capped at |G| <= max_order.
    """
    if G.order() > max_order:
        return None
    m = G.order() // K.order()
    inside = K.indices()
    singles = [i for i in G.key_order() if i and i not in inside]
    candidates = itertools.chain(
        ([i] for i in singles if m % G.element_order_at(i) == 0),
        itertools.combinations(singles, 2),
    )
    for gens in candidates:
        H = SubgroupHandle(G, _index_closure(G, gens))
        if H.order() == m and len(H.indices() & inside) == 1:
            return H
    return None


def evaluate(poly, values):
    """The evaluation homomorphism of a fields.Poly at a point."""
    if len(values) != poly.nvars:
        raise SpecMismatch("wrong number of evaluation points")
    acc = poly.spec.zero()
    for exps, coeff in poly.terms.items():
        term = coeff
        for v, e in zip(values, exps):
            if e:
                term = term * v ** e
        acc = acc + term
    return acc


# --- series and cores: every element, every pair ----------------------------


def _closure_with_identity(group, seed):
    return naive_closure(list(seed)) | {group.identity}


def _commutator(a, b):
    return a.inverse() * b.inverse() * a * b


def brute_coset_labels(elements, members):
    """(label, reps) of G/N from products, for G's element list and N's
    members: label maps every element to the number of its coset gN, with
    the cosets numbered by their least member's index in the element list,
    and reps[c] is that least member."""
    label, reps = {}, []
    for g in elements:
        if g not in label:
            label.update((g * n, len(reps)) for n in members)
            reps.append(g)
    return label, reps


def permutation_quotient(G, N):
    """(label, perm, P): G/N as the permutation action of G on the cosets of
    N, from products.  label is `brute_coset_labels`'s; perm[c] is coset c
    as a permutation of the coset numbers, sending the number of xN to the
    number of (rep_c x)N, so perm[c] * perm[d] is the permutation of the
    coset cd; P is the degree-[G:N] group of the generators' permutations,
    materialized by its own walk."""
    label, reps = brute_coset_labels(G.elements, N.members)
    perm = [PermutationElement([label[r * s] for s in reps]) for r in reps]
    P = GroupHandle([perm[label[g]] for g in G.generators]).materialize()
    return label, perm, P


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


def _is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def exhaustive_p_core(group, p):
    """O_p(G), the largest normal p-subgroup, without any Sylow subgroup.

    x lies in O_p(G) iff its normal closure is a p-group, so O_p(G) is
    generated by those x.  The normal closure is the same for every member
    of x's class, so it is taken once per class.
    """
    seed, seen = set(), set()
    for x in group.elements:
        if x in seen or not _is_p_power(group_element_order(x), p):
            continue
        seen |= {g.inverse() * x * g for g in group.elements}
        closure = exhaustive_normal_closure(group, x)
        if _is_p_power(len(closure), p):
            seed |= closure
    return _closure_with_identity(group, seed)


def _is_prime_power(n):
    p = next((d for d in range(2, n + 1) if n % d == 0), None)
    return p is None or _is_p_power(n, p)


def exhaustive_fitting(group):
    """F(G), generated by the x whose normal closure is a p-group for some p:
    those x make up the p-cores, and F(G) is their product.  The normal
    closure is the closure of x's class, taken once per class."""
    seed, seen = set(), set()
    for x in group.elements:
        if x in seen:
            continue
        cls = {g.inverse() * x * g for g in group.elements}
        seen |= cls
        if _is_prime_power(len(_closure_with_identity(group, cls))):
            seed |= cls
    return _closure_with_identity(group, seed)


# --- Frobenius and 2-Frobenius: every kernel element, every coset -----------


def _exhaustive_kernel_condition(kernel, pool):
    """C(j) <= kernel for every nonidentity j of the kernel, inside the pool."""
    for j in kernel:
        if j.is_identity():
            continue
        for g in pool:
            if g * j == j * g and g not in kernel:
                return False
    return True


def exhaustive_is_frobenius(group):
    """The set F(G) if G is Frobenius with kernel F(G), else None."""
    J = exhaustive_fitting(group)
    if len(J) in (1, len(group.elements)):
        return None
    return J if _exhaustive_kernel_condition(J, group.elements) else None


def exhaustive_is_two_frobenius(group):
    """(K, L) as sets, K = F(G) and L the preimage of F(G/K), if G is
    2-Frobenius, else None.

    G/K is the permutation action on the cosets of K, and every element of G
    is projected onto it by multiplying it with every coset representative.
    """
    elems = group.elements
    K = exhaustive_fitting(group)
    if len(K) in (1, len(elems)):
        return None
    label, reps = brute_coset_labels(elems, K)
    project = {g: PermutationElement([label[g * r] for r in reps]) for g in elems}
    quotient = SimpleNamespace(elements=list(set(project.values())), identity=project[group.identity])
    FQ = exhaustive_fitting(quotient)
    L = {g for g in elems if project[g] in FQ}
    if not len(K) < len(L) < len(elems):
        return None
    # L Frobenius with kernel K, and G/K Frobenius with kernel L/K
    if not _exhaustive_kernel_condition(K, L):
        return None
    if not _exhaustive_kernel_condition(FQ, quotient.elements):
        return None
    return K, L


def searched_is_metacyclic(G: GroupHandle) -> bool:
    """True iff G has a normal cyclic subgroup with cyclic quotient."""
    seen = set()
    for i in range(G.order()):
        H = SubgroupHandle(G, _index_closure(G, [i]))
        if H.indices() in seen:
            continue
        seen.add(H.indices())
        if not is_normal(G, H):
            continue
        Q = quotient_group(G, H)
        if any(Q.element_order_at(j) == Q.order() for j in range(Q.order())):
            return True
    return False


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


def monic_polynomials(p, d):
    """Every monic polynomial of degree d over GF(p), as a coefficient list
    low degree first."""
    return ([*coeffs, 1] for coeffs in itertools.product(range(p), repeat=d))


def divides(g, f, p):
    """The monic g divides f over GF(p), by long division."""
    r = [c % p for c in f]
    dg = len(g) - 1
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i]
        if c:
            for j in range(dg + 1):
                r[i - dg + j] = (r[i - dg + j] - c * g[j]) % p
    return not any(r[:dg])


def trial_division_is_irreducible(modulus, p):
    """A monic f of degree k >= 1 over GF(p) is irreducible iff no monic
    polynomial of degree 1 .. k/2 divides it."""
    k = len(modulus) - 1
    return k >= 1 and not any(
        divides(g, modulus, p) for d in range(1, k // 2 + 1) for g in monic_polynomials(p, d)
    )


def _polgcd(a, b, p):
    """A gcd of a and b over GF(p), not made monic, by plain remainders."""
    a, b = list(a), list(b)
    while _poldeg(b) >= 0:
        da, db = _poldeg(a), _poldeg(b)
        if da < db:
            a, b = b, a
            continue
        inv = pow(b[db], p - 2, p)
        while _poldeg(a) >= db:
            da = _poldeg(a)
            c = a[da] * inv % p
            for j in range(db + 1):
                a[da - db + j] = (a[da - db + j] - c * b[j]) % p
        a, b = b, a
    return a


def powering_is_irreducible(modulus, p):
    """Rabin's test with X^(p^i) reached by repeated p-th powers and the
    coprimality by a plain gcd: the library's test before it read the
    powers off the Frobenius matrix."""
    k = len(modulus) - 1
    if k == 1:
        return True
    x = [0, 1] + [0] * (k - 2)
    t = list(x)
    for _ in range(k):
        t = _polpowmod(t, p, modulus, p)
    if t != x:
        return False
    for d in factorize(k):
        t = list(x)
        for _ in range(k // d):
            t = _polpowmod(t, p, modulus, p)
        diff = [(t[i] - x[i]) % p for i in range(k)]
        if _poldeg(_polgcd(list(modulus), diff, p)) != 0:
            return False
    return True


# --- GF(p^k): references by repeated multiplication -------------------------


def field_elements(spec):
    """Every element of GF(p^k), in coefficient-lexicographic order."""
    return (spec.element(coeffs) for coeffs in itertools.product(range(spec.p), repeat=spec.k))


def trial_division_is_prime(n):
    """Primality by trial division up to the square root."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def trial_division_factorize(n):
    """Prime factorization by trial division, as {prime: multiplicity}."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@functools.cache
def scanned_inverse(a):
    """The b with a*b = 1, found by scanning the field; kept per element, as
    a scan of GF(11^5) takes about a second."""
    one = a.spec.one()
    return next(b for b in field_elements(a.spec) if a * b == one)


def repeated_power(a, e):
    """a^e by |e| multiplications, by a or, for e < 0, by its inverse."""
    base = a if e >= 0 else scanned_inverse(a)
    acc = a.spec.one()
    for _ in range(abs(e)):
        acc = acc * base
    return acc


def repeated_order(a):
    """Least n >= 1 with a^n = 1, by multiplying until 1 comes back."""
    one = a.spec.one()
    n, acc = 1, a
    while acc != one:
        acc = acc * a
        n += 1
    return n


def repeated_frobenius(a, i):
    """Frob^i(a) as the p-th power taken i mod k times, each by p
    multiplications (Frob^k is the identity)."""
    for _ in range(i % a.spec.k):
        a = repeated_power(a, a.spec.p)
    return a


def power_scan_primitive_element(spec):
    """The least primitive element in coefficient order, testing every
    candidate a by a^((p^k - 1)/l) != 1 for each prime l of p^k - 1, with
    the primes from trial division."""
    n = spec.size - 1
    one = spec.one()
    primes = list(trial_division_factorize(n))
    for a in field_elements(spec):
        if not a.is_zero() and all(a ** (n // ell) != one for ell in primes):
            return a
    raise AssertionError("no primitive element")


# --- the diameter-8 witness: log-space references ---------------------------


class LogTables:
    """Discrete logs of a field's nonzero elements to its least primitive
    element, found by `power_scan_primitive_element`, built by repeated
    multiplication."""

    def __init__(self, spec):
        self.spec = spec
        g = power_scan_primitive_element(spec)
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


def scanned_count_with_relation(s_a, s_x, s_b, s_d, s_c):
    """|{(a, b, c, d, x) : x*a = b - d}| with each coordinate in its listed
    set, by testing every (a, x, b, d); c is in no equation, so each solution
    counts once per element of s_c."""
    return len(s_c) * sum(
        1 for a, x, b, d in itertools.product(s_a, s_x, s_b, s_d) if x * a == b - d
    )


# (row, col, coordinate, sign): the matrix entry at (row, col) is sign*coord
_F_POSITIONS = (
    (1, 0, "a", 1),
    (2, 0, "b", 1),
    (2, 1, "x", 1),
    (3, 0, "c", 1),
    (3, 1, "d", 1),
    (3, 2, "a", -1),
)


def entrywise_fixed_points_in_F(eg, w):
    """C_F(w) for a diagonal-with-twist w, entry by entry: one solution set
    per matrix entry of F, the two entries of a intersected, and the
    relation x*a = b - d imposed by summing over the solution sets."""
    from commgraph.diameter8 import ALL, FixedPointReport, _fixed_set, _is_diagonal
    from commgraph.fields import frobenius_map

    spec = eg.spec
    if w.is_identity():
        raise NotNormalizing("fixed points of the identity are all of F")
    if not _is_diagonal(w):
        raise NotNormalizing("w must be diagonal to normalize F entry-wise")
    lam = [w.mat[i][i] for i in range(4)]
    entry_sets = {
        (row, col): _fixed_set(spec, frobenius_map(lam[col] / lam[row], w.twist), w.twist)
        for row, col, _, _ in _F_POSITIONS
    }

    s_a = _intersect(entry_sets[(1, 0)], entry_sets[(3, 2)])
    s_b = entry_sets[(2, 0)]
    s_x = entry_sets[(2, 1)]
    s_c = entry_sets[(3, 0)]
    s_d = entry_sets[(3, 1)]

    count = intersected_count_with_relation(spec, s_a, s_x, s_b, s_d, s_c)
    sizes = {
        name: (spec.size if s is ALL else len(s))
        for name, s in (("a", s_a), ("b", s_b), ("x", s_x), ("d", s_d), ("c", s_c))
    }
    free = [name for name, s in (("a", s_a), ("b", s_b), ("x", s_x), ("d", s_d), ("c", s_c)) if s is ALL]
    return FixedPointReport(count=count, coord_sizes=sizes, free_coords=free)


def _intersect(s1, s2):
    from commgraph.diameter8 import ALL

    if s1 is ALL:
        return s2
    if s2 is ALL:
        return s1
    return s1 & s2


def intersected_count_with_relation(spec, s_a, s_x, s_b, s_d, s_c) -> int:
    """|{(a,b,c,d,x) in the per-entry sets : x*a = b - d}|."""
    from commgraph.diameter8 import ALL

    size = spec.size
    c_factor = size if s_c is ALL else len(s_c)

    def pairs_with_difference(rhs):
        # pairs (b, d) with b - d = rhs
        if s_b is ALL and s_d is ALL:
            return size
        if s_b is ALL:
            return len(s_d)
        if s_d is ALL:
            return len(s_b)
        return sum(1 for d in s_d if d + rhs in s_b)

    if s_a is ALL and s_x is ALL:
        raise NotNormalizing("both a and x unconstrained: count not supported")
    if s_x is ALL:
        s_a, s_x = s_x, s_a  # x*a symmetric
    total = 0
    for xv in s_x:
        if xv.is_zero():
            n_a = size if s_a is ALL else len(s_a)
            total += n_a * pairs_with_difference(xv)
        elif s_a is ALL:
            # a -> x*a is a bijection of the field: sum over all differences
            nb = size if s_b is ALL else len(s_b)
            nd = size if s_d is ALL else len(s_d)
            total += nb * nd
        else:
            for av in s_a:
                total += pairs_with_difference(xv * av)
    return total * c_factor


class LogSpaceD:
    """Diagonal-with-twist 4x4 matrices in log space.

    An element is (twist, l1, l2, l3, l4): the diagonal entries are g^l_i for
    the least primitive element g.  Multiplication mirrors the
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


def listed_centralizer_in_D(q, order_x, t, w):
    """C_D(w) for w = x^a c^b, listed as the pairs (i, j) of x^i c^j.

    x^i c^j commutes with w iff j(q^a - 1) = b(q^i - 1) mod t, solved for
    each i < ord(x); t = ord(c) is prime, so j is unique unless q^a = 1.
    """
    a, b = w
    lhs = (pow(q, a, t) - 1) % t
    out = []
    for i in range(order_x):
        rhs = b * (pow(q, i, t) - 1) % t
        if lhs:
            out.append((i, rhs * pow(lhs, -1, t) % t))
        elif not rhs:
            out.extend((i, j) for j in range(t))
    return out


# --- the diameter-8 witness: power forms and the matrix commutator chain ----


def power_form_u_v(spec, r):
    """The first pair (u, v) of elements of order r^2, in coefficient order,
    with {u^r, u^-r, v^r, v^-r} a 4-set: the candidates h^k, gcd(k, r) = 1,
    each taken as a power of the canonical element h of order r^2."""
    from commgraph.fields import element_of_order

    h = element_of_order(spec, r * r)
    cands = sorted((h ** k for k in range(1, r * r) if k % r), key=lambda e: e.coeffs)
    for u in cands:
        for v in cands:
            if len({(u ** r).coeffs, (u ** -r).coeffs, (v ** r).coeffs, (v ** -r).coeffs}) == 4:
                return u, v
    return None


def power_form_mul(ctx, a, b):
    """(i, h)(k, h') = (i + k, h^(q^k) h') in D's normal form, by a power."""
    q = ctx.spec.p
    return (a[0] + b[0]) % ctx.order_x, a[1] ** (q ** b[0]) * b[1]


def power_form_centralizer(ctx, w, all_marker):
    """C_D(w) as `_NormalForm.centralizer` describes it, with the right side
    g^(q^i - 1) of h^(q^a - 1) = g^(q^i - 1) taken as a power at every i."""
    a, g = w
    q, t = ctx.spec.p, ctx.order_c
    lhs = (pow(q, a, t) - 1) % t
    out = []
    for i in range(ctx.order_x):
        rhs = g ** ((pow(q, i, t) - 1) % t)
        if lhs:
            out.append((i, rhs ** pow(lhs, -1, t)))
        elif rhs == ctx.spec.one():
            out.append((i, all_marker))
    return out


def x_power(ctx, n):
    """x^n in D's normal form `ctx`, as (x^r)^m x^j for n = m r + j with
    j < r, x^j built from its diagonal and twist j: one matrix product."""
    m, j = divmod(n % ctx.order_x, ctx.spec.k)
    zero = ctx.spec.zero()
    xr_m = [ctx.xr.mat[i][i] ** m for i in range(ctx.xr.dim)]
    x_j = MatrixAutElement(ctx.spec, _diag(zero, ctx.x_powers[j]), j)
    return MatrixAutElement(ctx.spec, _diag(zero, xr_m), 0) * x_j


def product_form_from_matrix(ctx, elem):
    """The normal form (i, h) of elem in D, or None: x^-i elem tried by
    matrix products for every i < ord(x) with elem's twist, until it is
    some c_h with h^t = 1."""
    for i in range(elem.twist, ctx.order_x, ctx.spec.k):
        rest = x_power(ctx, -i) * elem
        h = rest.mat[0][0]
        if h ** ctx.order_c == ctx.one and rest == ctx.c_matrix(h):
            return (i, h)
    return None


def _p_mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _p_unitriangular_inverse(spec, m):
    """Inverse of I + L with L strictly lower triangular: I - L + L^2 - L^3."""
    from commgraph.diameter8 import _p_identity, _p_mat_mul

    nvars = m[0][0].nvars
    ident = _p_identity(spec, nvars)
    L = _p_mat_sub(m, ident)
    for i in range(4):
        for j in range(i, 4):
            if not L[i][j].is_zero():
                raise SymbolicFailure("matrix is not lower unitriangular")
    L2 = _p_mat_mul(L, L)
    L3 = _p_mat_mul(L2, L)
    out = []
    for i in range(4):
        row = []
        for j in range(4):
            row.append(ident[i][j] - L[i][j] + L2[i][j] - L3[i][j])
        out.append(tuple(row))
    return tuple(out)


def matrix_commutator(spec, a, b):
    """[a, b] = a^-1 b^-1 a b of two symbolic F matrices, by matrix products
    and unitriangular inverses."""
    from commgraph.diameter8 import _p_mat_mul

    ainv = _p_unitriangular_inverse(spec, a)
    binv = _p_unitriangular_inverse(spec, b)
    return _p_mat_mul(_p_mat_mul(ainv, binv), _p_mat_mul(a, b))


def matrix_separation_families(spec, g):
    """C_F(c) = {I + a(E21 - E43)} on variable a, and its conjugate by the F
    matrix g on variable b, as matrices over the polynomials in (a, b)."""
    from commgraph.diameter8 import _f_rows
    from commgraph.fields import Poly
    from commgraph.matrices import _mat_mul

    one, zero = Poly.constant(spec, 1, 2), Poly.zero(spec, 2)
    fam_a, fam_b = (
        _f_rows(one, zero, Poly.variable(spec, i, 2), zero, zero, zero, zero) for i in range(2)
    )
    return fam_a, _mat_mul(zero, _mat_mul(zero, g.inverse().mat, fam_b), g.mat)


def matrix_commutator_chain(spec, nvars):
    """The left-normed commutators [m0, m1], [[m0, m1], m2] and
    [[[m0, m1], m2], m3] of generic F matrices on nvars = 16 variables, each
    as a^-1 b^-1 a b by symbolic matrix products."""
    from commgraph.diameter8 import generic_f_matrix

    ms = [generic_f_matrix(spec, nvars, 4 * i) for i in range(4)]
    chain = [matrix_commutator(spec, ms[0], ms[1])]
    for m in ms[2:]:
        chain.append(matrix_commutator(spec, chain[-1], m))
    return chain


# --- symbolic checks: polynomials with field-element coefficients -----------
#
# fields.Poly as it was while its coefficients were elements of GF(p^k):
# every term operation goes through FieldElement arithmetic.  The symbolic
# objects of paper-verify built with it must equal fields.Poly's term by
# term.


class FieldPoly:
    """Polynomial in `nvars` commuting indeterminates over a FieldSpec.

    Terms map exponent tuples to nonzero FieldElements; the zero polynomial
    has an empty term map.
    """

    __slots__ = ("spec", "nvars", "terms")

    def __init__(self, spec: FieldSpec, nvars: int, terms: dict | None = None):
        self.spec = spec
        self.nvars = nvars
        self.terms = {}
        if terms:
            for exps, coeff in terms.items():
                if not coeff.is_zero():
                    self.terms[tuple(exps)] = coeff

    @classmethod
    def zero(cls, spec, nvars=2):
        return cls(spec, nvars)

    @classmethod
    def constant(cls, spec, value, nvars=2):
        if isinstance(value, int):
            value = spec.element(value)
        return cls(spec, nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, spec, index, nvars=2):
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(spec, nvars, {exps: spec.one()})

    def _check(self, other):
        if self.spec != other.spec:
            raise SpecMismatch("polynomials over different fields")
        if self.nvars != other.nvars:
            raise SpecMismatch("polynomials in different numbers of variables")

    def _coerce(self, other):
        if isinstance(other, FieldPoly):
            self._check(other)
            return other
        if isinstance(other, (FieldElement, int)):
            return FieldPoly.constant(self.spec, other, self.nvars)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            acc = terms.get(exps)
            s = c if acc is None else acc + c
            if s.is_zero():
                terms.pop(exps, None)
            else:
                terms[exps] = s
        return _field_poly(self.spec, self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return _field_poly(self.spec, self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                acc = terms.get(e)
                s = c if acc is None else acc + c
                if s.is_zero():
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return _field_poly(self.spec, self.nvars, terms)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def monomial_certificate(self):
        """If this is a single term c * prod(x_i^e_i), return (coeff, exps)."""
        if len(self.terms) != 1:
            return None
        ((exps, coeff),) = self.terms.items()
        return coeff, exps

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        names = "abcdefghijklmnopqrstuvwxyz"
        parts = []
        for exps in sorted(self.terms):
            coeff = self.terms[exps]
            mono = "".join(
                (names[i % 26] if e == 1 else f"{names[i % 26]}^{e}")
                for i, e in enumerate(exps)
                if e
            )
            parts.append(f"{coeff!r}*{mono}" if mono else repr(coeff))
        return "Poly(" + " + ".join(parts) + ")"


def _field_poly(spec: FieldSpec, nvars: int, terms: dict) -> FieldPoly:
    """Wrap a term map whose keys are exponent tuples and whose
    coefficients are nonzero, skipping the filtering."""
    out = FieldPoly.__new__(FieldPoly)
    out.spec = spec
    out.nvars = nvars
    out.terms = terms
    return out

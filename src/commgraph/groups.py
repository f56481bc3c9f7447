"""Structure algorithms on materialized groups.

Everything here reads the tables of the materialization walk in `walk`:
right multiplication by e_r is e_r's Schreier word looked up in them, a
table built along the tree gives left multiplication or the conjugates of
one element by all of G, and subgroups are index sets.  Closures, normal
closures, the series, centralizers, normalizers, Sylow subgroups, p-cores
and F(G) are read off the tables, in G's key order where a choice is made;
the handle keeps F(G), so it is computed once per group.  A quotient G/N
is an index group whose element c is coset number c: its Schreier tree
and tables are G's, read through the coset labels, so it needs no walk.
Whether a Frobenius quotient G/K with kernel L/K is metacyclic is read off
the element orders of L, with no quotient at all.  Everything is meant for
desk-scale groups.  Every breadth-first closure and worklist here uses the
materialization walk's queue: a list that grows while it is iterated.

The walk's names, and the matrix backend `MatrixAutElement`, are
re-exported here for the code that reads them from this module; the class
is resolved on first access, so analysis of a permutation group compiles
no matrix code.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from .errors import NotNormal
from .primes import factorize, is_prime
from .walk import GroupHandle, PermutationElement, SubgroupHandle, _compose  # noqa: F401


def __getattr__(name):
    if name == "MatrixAutElement":
        from .matrices import MatrixAutElement

        return MatrixAutElement
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _index_closure(G: GroupHandle, gens: Sequence[int]) -> list[int]:
    """Indices of the subgroup of G generated by the elements at `gens`,
    closed breadth-first by right multiplication over G's tables."""
    words = [G.right_tables(g) for g in gens]
    members, seen = [0], {0}
    for i in members:
        for tables in words:
            j = _compose(i, tables)
            if j not in seen:
                seen.add(j)
                members.append(j)
    return members


# ---------------------------------------------------------------------------
# centralizers, centre, series


def centralizer(G: GroupHandle, x) -> SubgroupHandle:
    r = G.index_of(x)
    img = G.conjugation_images(r)
    return SubgroupHandle(G, [i for i, j in enumerate(img) if j == r])


def center(G: GroupHandle) -> SubgroupHandle:
    # fixed by conjugation with every generator is central
    conj = G.conjugation_tables()
    return SubgroupHandle(G, [i for i in range(G.order()) if all(t[i] == i for t in conj)])


def _commutator_at(G: GroupHandle, a: int, b: int) -> int:
    """The index of [e_a, e_b] = e_a^-1 e_b^-1 e_a e_b, looked up along the
    Schreier words of the four factors."""
    factors = (G.inverse_at(a), G.inverse_at(b), a, b)
    return _compose(0, [t for r in factors for t in G.right_tables(r)])


def _normal_closure(G: GroupHandle, seeds: Iterable[int]) -> tuple[list, set]:
    """Generators and members (as indices) of the normal closure in G of the
    elements at `seeds`.

    Worklist: a queued index outside the current closure becomes a new
    generator, the closure is regenerated over G's tables, and the
    generator's conjugates by G's generators (one lookup each in the
    conjugation tables) are queued.  Once the queue is empty, every
    generator's conjugates lie in the closure, so it is normal in G.  The
    identity alone gives ([], {0}).
    """
    conj = G.conjugation_tables()
    gens: list = []
    members = {0}
    queue = list(seeds)
    for x in queue:
        if x not in members:
            gens.append(x)
            members = set(_index_closure(G, gens))
            queue.extend(t[x] for t in conj)
    return gens, members


def is_soluble(G: GroupHandle) -> bool:
    """Whether the derived series of G reaches 1."""
    gens, order = [G.index_of(g) for g in G.generators], G.order()
    while order > 1:
        # G^(i+1) is characteristic in G^(i), which is normal in G, so it is
        # the normal closure in G of the commutators of G^(i)'s generators
        gens, members = _normal_closure(
            G, [_commutator_at(G, a, b) for a, b in itertools.combinations(gens, 2)])
        if len(members) == order:
            return False
        order = len(members)
    return True


# ---------------------------------------------------------------------------
# normality, Sylow machinery, Fitting subgroup


def is_normal(G: GroupHandle, H: SubgroupHandle) -> bool:
    inside = H.indices()
    return all(t[i] in inside for t in G.conjugation_tables() for i in inside)


def normal_closure(G: GroupHandle, x) -> SubgroupHandle:
    return SubgroupHandle(G, _normal_closure(G, [G.index_of(x)])[1])


def sylow_subgroup(G: GroupHandle, p: int) -> SubgroupHandle:
    """A Sylow p-subgroup by greedy normalizer extension.

    Start from a p-element; while the current p-subgroup P is smaller than
    the full p-part of |G|, some p-element of N_G(P) lies outside P and
    extends P.  Scans run in G's key order, so the result is deterministic.
    P's generators are the elements chosen, N_G(P) is read off their
    conjugation images, element orders come from the right-multiplication
    tables, and P is closed over them: no element product.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = G.order()
    p_part = 1
    while n % (p_part * p) == 0:
        p_part *= p
    if p_part == 1:
        return G.trivial_subgroup()

    def is_p_element(i):
        o = G.element_order_at(i)
        while o % p == 0:
            o //= p
        return o == 1

    order = G.key_order()
    gens = [next(i for i in order if i and is_p_element(i))]
    images = []
    members = _index_closure(G, gens)
    while len(members) < p_part:
        inside = set(members)
        images.append(G.conjugation_images(gens[-1]))
        gens.append(next(
            i for i in order
            if i not in inside and all(img[i] in inside for img in images) and is_p_element(i)
        ))
        members = _index_closure(G, gens)
    return SubgroupHandle(G, members)


def p_core(G: GroupHandle, p: int) -> SubgroupHandle:
    """O_p(G) for a Sylow p-subgroup P.

    C <- C cap C^g over G's generators g, starting from C = P, until C stops
    shrinking; C^g is C mapped through g's conjugation table.  The fixed
    point lies in P, is normalized by every generator, and contains
    core_G(P) = O_p(G) at every step, so it is O_p(G).
    """
    conj = G.conjugation_tables()
    core = set(sylow_subgroup(G, p).indices())
    while len(core) > 1:
        shrunk = set(core)
        for t in conj:
            shrunk &= {t[h] for h in core}
        if len(shrunk) == len(core):
            break
        core = shrunk
    return SubgroupHandle(G, core)


def fitting_subgroup(G: GroupHandle) -> SubgroupHandle:
    """F(G) as the product of the p-cores over primes dividing |G|; this
    module keeps it on the handle as `_fitting`, so it is built once per group.

    The p-cores are normal with pairwise coprime orders, so their product is
    the set of products a*c, all distinct; a*c is a looked up along c's
    Schreier word, one word per member of F.
    """
    F = G.__dict__.get("_fitting")
    if F is None:
        members = [0]
        for p in factorize(G.order()):
            words = [G.right_tables(c) for c in p_core(G, p).indices()]
            if len(words) > 1:
                members = [_compose(a, w) for a in members for w in words]
        F = G._fitting = SubgroupHandle(G, members)
    return F


# ---------------------------------------------------------------------------
# quotients


def quotient_group(G: GroupHandle, N: SubgroupHandle) -> GroupHandle:
    """G/N as an index group whose element c is coset number c.

    One sweep of G's index order gives a new number to the first index
    rep_c outside every numbered coset, and numbers its coset by lookups
    along the Schreier words of N's members, so coset 0 is N.  N is normal,
    so xN * g = xgN, and Q's Schreier tree and right tables are G's read at
    each rep_c through the labels; rep_c is the least index of its coset,
    so its tree parent lies in an earlier coset.  Q's key order is its index
    order.  The returned handle carries `coset_index_of`, the coset number
    of every element index of G.
    """
    if not is_normal(G, N):
        raise NotNormal("quotient by a non-normal subgroup")
    words = [G.right_tables(n) for n in N.indices()]
    label: list = [None] * G.order()
    reps = []
    for i in range(G.order()):
        if label[i] is None:
            for w in words:
                label[_compose(i, w)] = len(reps)
            reps.append(i)
    parent, via = G.schreier_tree()
    Q = GroupHandle([label[G.index_of(g)] for g in G.generators], cap=G.cap, name=f"{G.name}/N")
    Q._elements = Q._key_order = list(range(len(reps)))
    Q._index = {c: c for c in Q._elements}
    Q._parent = [-1] + [label[parent[r]] for r in reps[1:]]
    Q._via = [via[r] for r in reps]
    Q._right = [[label[t[r]] for r in reps] for t in G._right]
    Q.coset_index_of = label
    return Q


# ---------------------------------------------------------------------------
# structural predicates


def is_metacyclic(G: GroupHandle, K: SubgroupHandle, L: SubgroupHandle) -> bool:
    """Whether G/K is metacyclic, where G/K is Frobenius with kernel L/K and
    |L:K| is prime to |K|.

    In a Frobenius group Q with kernel N, a normal cyclic M with cyclic
    quotient contains Q'.  Q' contains N, because n -> [n, h] is injective
    on N for 1 != h in a complement; so N is cyclic.  Conversely, a cyclic N
    makes the complement embed in the abelian Aut(N).  An abelian Frobenius
    complement is cyclic, so Q/N is cyclic and M = N works.  So G/K is
    metacyclic iff L/K is cyclic.  Since |L:K| is prime to |K|, that holds
    iff L has an element of order |L:K|.
    """
    index = L.order() // K.order()
    return any(G.element_order_at(i) == index for i in L.indices())

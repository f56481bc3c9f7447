"""Finite group backends and generic structure algorithms.

Two element backends: permutations (image tuples; an element is its own
key) and matrices over GF(p^k) carrying a Frobenius twist
(`matrices.MatrixAutElement`).  Groups are handles around a generating set
and are materialized by breadth-first closure before any structural query
runs.  The field layer loads only when a matrix group file is parsed, so a
permutation group never compiles it.

Only materialization walks multiply elements.  A walk keeps its Schreier
tree (each element is its parent times one generator) and its products, as
one right-multiplication table per generator; everything after it is set
operations on element indices.  Right multiplication by e_r is e_r's
Schreier word looked up in those tables, and a table built along the tree
gives left multiplication by one element, or the conjugates of one element
by all of G, at one lookup per entry.  Subgroups are index sets: closures,
normal closures, the series, centralizers, normalizers, Sylow subgroups,
p-cores and F(G) are read off the tables, in G's key order where a choice
is made; the handle keeps F(G), so it is computed once per group.  A
quotient G/N is an index group whose element c is coset number c: its
Schreier tree and tables are G's, read through the coset labels, so it
needs no walk.  Whether a Frobenius quotient G/K with kernel L/K is
metacyclic is read off the element orders of L, with no quotient at all.
Everything is meant for desk-scale groups.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Iterable, Sequence
from functools import cached_property

from . import fields
from .errors import (
    BackendMismatch,
    CapExceeded,
    NotMember,
    NotNormal,
    json_field,
    json_int,
    json_list,
)
from .matrices import MatrixAutElement, _mat_inv
from .primes import factorize, is_prime

DEFAULT_GROUP_CAP = 200000


class PermutationElement(tuple):
    """A permutation of {0..n-1} stored as its image tuple; an element is its
    own key.  It equals, and hashes and sorts as, the plain tuple of its
    images.  The degree-0 permutation is the empty tuple, which is falsy, so
    no code may test an element's truth value."""

    __slots__ = ()

    def __new__(cls, images: Iterable[int]):
        self = tuple.__new__(cls, images)
        if sorted(self) != list(range(len(self))):
            raise ValueError(f"not a permutation: {images}")
        return self

    def __mul__(self, other: "PermutationElement") -> "PermutationElement":
        # (a*b)(i) = a(b(i)): right factor acts first
        return _trusted_perm(map(self.__getitem__, other))

    def inverse(self) -> "PermutationElement":
        # position j of the inverse holds the i with self[i] = j
        return _trusted_perm(sorted(range(len(self)), key=self.__getitem__))

    def identity(self) -> "PermutationElement":
        return _trusted_perm(range(len(self)))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self))

    def key(self):
        return self

    def ambient(self):
        return ("perm", len(self))

    def to_json(self):
        return list(self)

    def __repr__(self):
        return "Perm" + tuple.__repr__(self)


def _trusted_perm(images: Iterable[int]) -> PermutationElement:
    """An image sequence known to be a permutation, skipping the check."""
    return tuple.__new__(PermutationElement, images)


# ---------------------------------------------------------------------------


def _schreier_tree(generators: Sequence, cap: int) -> tuple[list, dict, list, list, list]:
    """Breadth-first closure of a generating set, with its Schreier tree.

    Returns (elements, index, parent, via, right): elements[0] is the
    identity, and elements[i] = elements[parent[i]] * generators[via[i]] for
    i > 0; index maps every element to its position and is the walk's seen
    set; right[v][i] is the index of elements[i] * generators[v], the product
    the walk makes anyway.  Order is deterministic: identity first, then
    discovery order (BFS level, frontier position, generator position).
    Raises CapExceeded as soon as more than `cap` elements are seen.
    """
    ambient = generators[0].ambient()
    for g in generators[1:]:
        if g.ambient() != ambient:
            raise BackendMismatch("generators live in different ambient groups")
    ordered = [generators[0].identity()]
    index = {ordered[0]: 0}
    parent, via = [-1], [-1]
    right: list[list] = [[] for _ in generators]
    # the list grows while it is walked, so it is the BFS queue
    for p, e in enumerate(ordered):
        for v, g in enumerate(generators):
            h = e * g
            i = index.get(h)
            if i is None:
                if len(ordered) >= cap:
                    raise CapExceeded(f"closure exceeds cap {cap}")
                i = index[h] = len(ordered)
                ordered.append(h)
                parent.append(p)
                via.append(v)
            right[v].append(i)
    return ordered, index, parent, via, right


def _compose(i: int, tables: Sequence) -> int:
    """i looked up in each table in turn."""
    for t in tables:
        i = t[i]
    return i


class GroupHandle:
    """A finite group given by generators, with a lazily materialized element
    list, its Schreier tree and right-multiplication tables, and lazily built
    conjugation tables, key order, element orders and Fitting subgroup."""

    def __init__(self, generators: Sequence, cap: int = DEFAULT_GROUP_CAP, name: str = ""):
        if not generators:
            raise ValueError("a group handle needs at least one generator")
        self.generators = list(generators)
        self.cap = cap
        self.name = name
        self._elements: list | None = None
        self._index: dict | None = None
        self._parent: list | None = None
        self._via: list | None = None
        self._right: list | None = None
        self._conj: list | None = None
        self._key_order: list | None = None
        self._orders: dict = {}
        self._fitting: SubgroupHandle | None = None

    def materialize(self) -> "GroupHandle":
        if self._elements is None:
            (self._elements, self._index, self._parent, self._via,
             self._right) = _schreier_tree(self.generators, self.cap)
        return self

    def schreier_tree(self) -> tuple[list, list]:
        """(parent, via) with elements[i] = elements[parent[i]] *
        generators[via[i]] for every i > 0."""
        self.materialize()
        return self._parent, self._via

    def _along_tree(self, start: int, tables: Sequence[list]) -> list:
        """out[0] = start and out[i] = tables[via[i]][out[parent[i]]]: a map
        that follows the Schreier tree, at one lookup per element."""
        parent, via = self.schreier_tree()
        out = [start] * len(parent)
        for i in range(1, len(out)):
            out[i] = tables[via[i]][out[parent[i]]]
        return out

    def left_table(self, a: int) -> list:
        """left[i] = the index of e_a * e_i, over all of G.

        e_a e_i = (e_a e_parent) * g_via, so each entry is one lookup in the
        right-multiplication tables.
        """
        return self._along_tree(a, self.materialize()._right)

    def conjugation_tables(self) -> list[list]:
        """conj[g][i] = the index of e_i^g = g^-1 e_i g, one table per generator.

        Built once with no product: g^-1 e_i is g^-1's left table, and
        e_i^g = (g^-1 e_i) * g is one more lookup.
        """
        if self._conj is None:
            self.materialize()
            self._conj = [
                [right_g[j] for j in self.left_table(self.inverse_at(self.index_of(g)))]
                for g, right_g in zip(self.generators, self._right)
            ]
        return self._conj

    def conjugation_images(self, r: int) -> list:
        """img[i] = the index of x^(e_i) for x = elements[r], over all of G.

        x^(e_parent g) = (x^e_parent)^g, so each entry is one lookup in the
        conjugation tables.  The fibres give x's class (the distinct values)
        and C(x) (the i with img[i] = r).
        """
        return self._along_tree(r, self.conjugation_tables())

    def right_tables(self, r: int) -> list[list]:
        """The right-multiplication tables along the Schreier word of e_r.

        e_r = e_parent * g_via, so e_i * e_r is i looked up in each returned
        table in turn (`_compose`): one lookup per letter, no product.
        """
        parent, via = self.schreier_tree()
        word = []
        while r:
            word.append(self._right[via[r]])
            r = parent[r]
        word.reverse()
        return word

    def key_order(self) -> list[int]:
        """Element indices sorted by element key: the canonical scan order."""
        if self._key_order is None:
            elements = self.elements
            self._key_order = sorted(range(len(elements)), key=lambda i: elements[i].key())
        return self._key_order

    def element_order_at(self, r: int) -> int:
        """The order of e_r, by right multiplication over the tables; cached."""
        n = self._orders.get(r)
        if n is None:
            tables = self.right_tables(r)
            n, i = 1, r
            while i:
                i = _compose(i, tables)
                n += 1
            self._orders[r] = n
        return n

    def inverse_at(self, r: int) -> int:
        """The index of e_r^-1 = e_r^(n-1) for n the order of e_r, looked up
        along n - 1 copies of e_r's Schreier word."""
        return _compose(0, self.right_tables(r) * (self.element_order_at(r) - 1))

    @property
    def elements(self) -> list:
        self.materialize()
        return self._elements

    @property
    def identity(self):
        return self.elements[0]

    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        self.materialize()
        return x in self._index

    def index_of(self, x) -> int:
        self.materialize()
        try:
            return self._index[x]
        except KeyError:
            raise NotMember(f"{x!r} is not an element of this group") from None

    def subgroup(self, members: Iterable) -> "SubgroupHandle":
        """The subgroup whose members are given as elements of G; raises
        NotMember for an element outside G."""
        return SubgroupHandle(self, [self.index_of(x) for x in members])

    def whole(self) -> "SubgroupHandle":
        return SubgroupHandle(self, range(self.order()))

    def trivial_subgroup(self) -> "SubgroupHandle":
        return SubgroupHandle(self, [0])

    # -- group file format

    def to_json(self) -> dict:
        g0 = self.generators[0]
        if isinstance(g0, PermutationElement):
            return {
                "type": "permutation",
                "degree": len(g0),
                "generators": [g.to_json() for g in self.generators],
            }
        return {
            "type": "matrix",
            "field": g0.spec.to_json(),
            "dim": g0.dim,
            "aut_order": g0.spec.k,
            "generators": [g.to_json() for g in self.generators],
        }

    @classmethod
    def from_json(cls, obj: dict, cap: int = DEFAULT_GROUP_CAP, name: str = "") -> "GroupHandle":
        """The group a group file describes.  A file of the wrong shape (not
        an object, a field missing, or a list that is something else) is a
        ValueError that names the field."""
        kind = json_field(obj, "type", "group file")
        if kind == "permutation":
            degree = json_int(json_field(obj, "degree", "group file"), "degree")
            gens = []
            for images in json_list(json_field(obj, "generators", "group file"), "generators"):
                if len(json_list(images, "generator")) != degree:
                    raise ValueError("generator degree mismatch")
                gens.append(PermutationElement([json_int(i, "permutation image") for i in images]))
            return cls(gens, cap=cap, name=name)
        if kind == "matrix":
            spec = fields.FieldSpec.from_json(json_field(obj, "field", "group file"))
            if json_int(obj.get("aut_order", spec.k), "aut_order") != spec.k:
                raise ValueError("aut_order must equal the field extension degree")
            dim = json_int(json_field(obj, "dim", "group file"), "dim")
            if dim < 1:
                raise ValueError("dim must be at least 1")
            gens = []
            for gen in json_list(json_field(obj, "generators", "group file"), "generators"):
                rows = json_list(json_field(gen, "matrix", "generator"), "matrix")
                if len(rows) != dim or any(len(json_list(r, "matrix row")) != dim for r in rows):
                    raise ValueError("matrix shape mismatch")
                mat = tuple(
                    tuple(
                        spec.element(
                            [json_int(c, "matrix entry") for c in e] if isinstance(e, list)
                            else json_int(e, "matrix entry")
                        )
                        for e in row
                    )
                    for row in rows
                )
                elem = MatrixAutElement(spec, mat, json_int(gen.get("twist", 0), "twist"))
                _mat_inv(spec, elem.mat)  # reject singular generators
                gens.append(elem)
            return cls(gens, cap=cap, name=name)
        raise ValueError(f"unknown group file type {kind!r}")

    def __repr__(self):
        n = len(self._elements) if self._elements is not None else "?"
        label = self.name or "group"
        return f"GroupHandle({label}, order={n})"


class SubgroupHandle:
    """A subgroup of a materialized parent, stored as the set of its
    members' indices in the parent.  The members themselves, in key order,
    are built only when read."""

    def __init__(self, parent: GroupHandle, indices: Iterable[int]):
        self.parent = parent.materialize()
        self._indices = frozenset(indices)

    def indices(self) -> frozenset:
        """The indices of the members in the parent's element list."""
        return self._indices

    @cached_property
    def members(self) -> tuple:
        elements = self.parent.elements
        return tuple(elements[i] for i in self.parent.key_order() if i in self._indices)

    @cached_property
    def member_set(self) -> frozenset:
        return frozenset(self.members)

    def order(self) -> int:
        return len(self._indices)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, x) -> bool:
        return self.parent._index.get(x) in self._indices

    def __eq__(self, other):
        return isinstance(other, SubgroupHandle) and (self.parent, self._indices) == (
            other.parent, other._indices)

    def __hash__(self):
        return hash(self._indices)

    def is_trivial(self) -> bool:
        return len(self._indices) == 1

    def __repr__(self):
        return f"Subgroup(order={len(self._indices)})"


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
    queue = deque(seeds)
    while queue:
        x = queue.popleft()
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


def _normalizes(images: Sequence[list], inside, i: int) -> bool:
    """e_i conjugates into `inside` every element whose conjugation images
    are listed."""
    return all(img[i] in inside for img in images)


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
            if i not in inside and _normalizes(images, inside, i) and is_p_element(i)
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
    """F(G) as the product of the p-cores over primes dividing |G|; kept on
    the handle.

    The p-cores are normal with pairwise coprime orders, so their product is
    the set of products a*c, all distinct; a*c is a looked up along c's
    Schreier word, one word per member of F.
    """
    if G._fitting is None:
        members = [0]
        for p in factorize(G.order()):
            words = [G.right_tables(c) for c in p_core(G, p).indices()]
            if len(words) > 1:
                members = [_compose(a, w) for a in members for w in words]
        G._fitting = SubgroupHandle(G, members)
    return G._fitting


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

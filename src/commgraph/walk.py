"""Group elements, the materialization walk and its tables.

Two element backends: permutations (image tuples; an element is its own
key) and matrices over GF(p^k) carrying a Frobenius twist
(`matrices.MatrixAutElement`).  Groups are handles around a generating set
and are materialized by breadth-first closure before any structural query
runs; subgroups are index sets into that closure.  The structure
algorithms that read the tables live in `groups`.

Only materialization walks multiply elements.  A walk keeps its Schreier
tree (each element is its parent times one generator) and its products, as
one right-multiplication table per generator; everything after it is set
operations on element indices.  Right multiplication by e_r is e_r's
Schreier word looked up in those tables, and a table built along the tree
gives left multiplication by one element, or the conjugates of one element
by all of G, at one lookup per entry.

`matrices` is reached through the package's lazy module, and only when
`GroupHandle.from_json` reads a matrix group file, so a permutation group
file compiles neither `matrices`, `fields` nor `primes`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property

from . import fields, matrices
from .errors import BackendMismatch, CapExceeded, NotMember, json_field, json_int, json_list

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
    conjugation tables, key order and element orders."""

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
                elem = matrices.MatrixAutElement(spec, mat, json_int(gen.get("twist", 0), "twist"))
                elem.inverse()  # reject singular generators
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

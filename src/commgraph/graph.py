"""Commuting graphs with centralizer-class compression.

Vertices are the non-central elements of a group; two distinct vertices are
adjacent iff they commute.  Elements sharing a centralizer pairwise commute
(each lies in the other's centralizer), so the graph is a blow-up of its
quotient by centralizer-equality classes: BFS runs on the class graph and
distances lift back losslessly, with the one special case that two distinct
elements of the same class are at distance 1.

Centralizers are sets of element indices.  C(rep) is read once per
conjugacy class off the group's conjugation tables, and every other member
of the class gets C(w^g) = C(w)^g by table lookups, so after the
materialization walk the build makes no element product.  C(w)^g depends
only on C(w) and g, so each centralizer class is mapped once per
generator, and every vertex with that centralizer, in whichever conjugacy
class, takes the kept image.  The build costs about 2|G| lookups per
conjugacy class it walks (the class's conjugation images and C(rep)),
|C| per (centralizer class C, generator) pair, one per (vertex, generator)
and one per generator for a central element, plus G's key order (sorted
once and cached on G); the neighbours of a centralizer class are the
classes of the members of its centralizer, one lookup each.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import EmptyGraph, NotAVertex
from .walk import GroupHandle

DistanceReport = namedtuple("DistanceReport", "source target distance path")


class CommutingGraph:
    """Quotient-compressed commuting graph of a materialized group."""

    def __init__(self, group: GroupHandle, classes, class_of, adjacency, sources):
        self.group = group
        self.classes = classes          # list of element lists
        self.class_of = class_of        # element -> class index
        self.adjacency = adjacency     # class index -> sorted list of class indices
        self.sources = sources          # class indices, one per conjugation orbit
        self.reps = [cls[0] for cls in classes]

    @property
    def vertex_count(self) -> int:
        return sum(len(c) for c in self.classes)

    def class_index(self, x) -> int:
        try:
            return self.class_of[x]
        except KeyError:
            raise NotAVertex(f"{x!r} is not a vertex (central or not a member)") from None

    def adjacent(self, x, y) -> bool:
        """The adjacency rule: distinct commuting non-central elements."""
        cx, cy = self.class_index(x), self.class_index(y)
        if x == y:
            return False
        return cx == cy or cy in self.adjacency[cx]

    def to_json(self) -> dict:
        res = diameter_and_components(self)
        diam = res["diameter"]
        return {
            "classes": [
                {"size": len(cls), "rep": rep.to_json()}
                for cls, rep in zip(self.classes, self.reps)
            ],
            "edges": [[i, j] for i in range(len(self.classes)) for j in self.adjacency[i] if i < j],
            "diameter": None if diam == math.inf else diam,
            "components": len(res["components"]),
        }


def build_graph(G: GroupHandle) -> CommutingGraph:
    """Group the non-central elements by centralizer equality and link classes.

    Centralizers are sets of element indices and come one conjugacy class at
    a time: C(rep) is a fibre of `GroupHandle.conjugation_images`, and the
    class is walked under the generators' conjugation tables with
    C(w^g) = C(w)^g, so no element product is made; C(w)^g is built once
    per (centralizer class, generator) and kept.  A central element,
    fixed by every generator's conjugation table, is skipped before its
    images are read.  A walk assigns the whole orbit of C(rep) under
    conjugation, so the centralizer class of a representative whose C(rep)
    no earlier walk assigned is a BFS source, one per orbit of the
    conjugation action on centralizer classes.
    """
    elements = G.elements
    conj = G.conjugation_tables()
    # centralizer by element index, None until the element's class is walked
    # and for a central element
    cent_of: list = [None] * len(elements)
    # every centralizer set met so far, mapped to itself: equal centralizers share one set
    assigned: dict = {}
    # (C, t) -> C^t for generator number t: each centralizer is mapped once per generator
    images: dict = {}
    source_reps = []
    for r in range(len(elements)):
        # skip r once its class has been walked, or if every generator's
        # table fixes it: then r is central
        if cent_of[r] is not None or all(table[r] == r for table in conj):
            continue
        img = G.conjugation_images(r)
        cent = frozenset(i for i, j in enumerate(img) if j == r)
        if cent not in assigned:
            source_reps.append(r)
        cent_of[r] = assigned.setdefault(cent, cent)
        queue = [r]
        for w in queue:
            for t, table in enumerate(conj):
                v = table[w]
                if cent_of[v] is None:
                    key = (cent_of[w], t)
                    image = images.get(key)
                    if image is None:
                        image = frozenset(table[c] for c in key[0])
                        image = images[key] = assigned.setdefault(image, image)
                    cent_of[v] = image
                    queue.append(v)
    if not assigned:
        raise EmptyGraph("every element is central")

    # swept in key order, the buckets and their members come out sorted by key
    buckets: dict[frozenset, list] = {}
    for v in G.key_order():
        if cent_of[v] is not None:
            buckets.setdefault(cent_of[v], []).append(v)
    # class number by element index, None for a central element; class i's
    # neighbours are the classes met in its centralizer
    number = [None] * len(elements)
    class_of = {}
    for i, members in enumerate(buckets.values()):
        for v in members:
            number[v] = i
            class_of[elements[v]] = i
    adjacency = [sorted({number[c] for c in cent} - {None, i}) for i, cent in enumerate(buckets)]
    sources = sorted(number[r] for r in source_reps)
    classes = [[elements[v] for v in members] for members in buckets.values()]
    return CommutingGraph(G, classes, class_of, adjacency, sources)


def _class_bfs(graph: CommutingGraph, start: int):
    """Distances and BFS parents from one class over the class graph."""
    dist = {start: 0}
    parent = {start: None}
    queue = [start]
    for c in queue:
        for n in graph.adjacency[c]:
            if n not in dist:
                dist[n] = dist[c] + 1
                parent[n] = c
                queue.append(n)
    return dist, parent


def distance(graph: CommutingGraph, x, y) -> DistanceReport:
    """BFS distance between two vertices, with a commuting witness path."""
    cx, cy = graph.class_index(x), graph.class_index(y)
    if x == y:
        return DistanceReport(x, y, 0, [x])
    if cx == cy or cy in graph.adjacency[cx]:
        # same centralizer class, or adjacent classes: the elements commute
        return DistanceReport(x, y, 1, [x, y])
    dist, parent = _class_bfs(graph, cx)
    if cy not in dist:
        return DistanceReport(x, y, math.inf, [])
    chain = []
    c = cy
    while c is not None:
        chain.append(c)
        c = parent[c]
    chain.reverse()
    path = [x] + [graph.reps[c] for c in chain[1:-1]] + [y]
    return DistanceReport(x, y, dist[cy], path)


def diameter_and_components(graph: CommutingGraph) -> dict:
    """Connected components (as class-index sets) and the diameter.

    The diameter is the maximum class eccentricity when the graph is
    connected and Infinity otherwise.  Conjugation is a graph automorphism,
    so the eccentricity is constant on each orbit of classes, and the BFS
    runs only from the graph's sources, one class per orbit.  Components
    come in one sweep over the class indices, each from the least class no
    earlier component holds.
    """
    seen: set = set()
    components = []
    for start in range(len(graph.classes)):
        if start not in seen:
            comp = sorted(_class_bfs(graph, start)[0])
            seen.update(comp)
            components.append(comp)
    if len(components) > 1:
        return {"components": components, "diameter": math.inf}
    diam = max(max(_class_bfs(graph, c)[0].values()) for c in graph.sources)
    return {"components": components, "diameter": diam}

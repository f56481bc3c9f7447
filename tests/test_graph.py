import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from extra_groups import AGAML1_9, EXTRA_GROUPS, oracle_group
from oracles import (
    all_pairs_adjacency,
    brute_centralizer,
    brute_centralizer_orbits,
    naive_all_distances,
    naive_diameter,
    naive_vertex_adjacency,
    scan_centralizer_classes,
)

from commgraph.corpus import list_corpus
from commgraph.errors import EmptyGraph, NotAVertex
from commgraph.graph import _class_bfs, build_graph, diameter_and_components, distance
from commgraph.groups import GroupHandle, PermutationElement, center
from commgraph.primes import is_prime


def P(*images):
    return PermutationElement(images)


@pytest.fixture(scope="module")
def sym3_graph():
    return build_graph(GroupHandle([P(1, 0, 2), P(1, 2, 0)]).materialize())


@pytest.fixture(scope="module")
def s3xs3_graph(corpus):
    return build_graph(corpus["s3xs3"])


def test_sym3_structure(sym3_graph):
    # three singleton transposition classes plus one rotation class of size 2
    assert sym3_graph.vertex_count == 5
    assert sorted(len(c) for c in sym3_graph.classes) == [1, 1, 1, 2]
    assert all(not neigh for neigh in sym3_graph.adjacency)


def test_abelian_group_has_empty_graph():
    c6 = GroupHandle([P(1, 2, 3, 4, 5, 0)]).materialize()
    with pytest.raises(EmptyGraph):
        build_graph(c6)


def test_sym4_vertex_count(corpus):
    g = build_graph(corpus["sym4"])
    assert g.vertex_count == 23  # 24 less the trivial centre


def _c6_x_s3():
    return GroupHandle([
        P(1, 2, 3, 4, 5, 0, 6, 7, 8), P(0, 1, 2, 3, 4, 5, 7, 6, 8), P(0, 1, 2, 3, 4, 5, 7, 8, 6),
    ]).materialize()


@pytest.mark.parametrize("name", ["q8", "c6xs3"])
def test_build_graph_reads_no_central_elements_images(monkeypatch, corpus, name):
    # a central element is skipped by the generators' conjugation tables,
    # before its |G|-long images are read
    G = corpus["q8"] if name == "q8" else _c6_x_s3()
    central = center(G).indices()
    assert len(central) == {"q8": 2, "c6xs3": 6}[name]
    read = []
    real = GroupHandle.conjugation_images

    def recorded(self, r):
        read.append(r)
        return real(self, r)

    monkeypatch.setattr(GroupHandle, "conjugation_images", recorded)
    graph = build_graph(G)
    assert read and not central & set(read)
    assert graph.vertex_count == G.order() - len(central)


def test_distance_reflexive_and_adjacent(sym3_graph):
    rot = P(1, 2, 0)
    rep = distance(sym3_graph, rot, rot)
    assert rep.distance == 0 and rep.path == [rot]
    other = P(2, 0, 1)
    rep = distance(sym3_graph, rot, other)
    assert rep.distance == 1 and rep.path == [rot, other]


def test_distance_s3xs3_example(s3xs3_graph):
    x = P(1, 0, 2, 4, 3, 5)  # swap in both coordinates
    y = P(2, 1, 0, 3, 5, 4)
    rep = distance(s3xs3_graph, x, y)
    assert rep.distance == 3
    assert rep.path[0] == x and rep.path[-1] == y
    assert len(rep.path) == 4
    for a, b in zip(rep.path, rep.path[1:]):
        assert a * b == b * a and a != b


def test_distance_not_a_vertex(s3xs3_graph):
    ident = P(0, 1, 2, 3, 4, 5)
    with pytest.raises(NotAVertex):
        distance(s3xs3_graph, ident, P(1, 0, 2, 3, 4, 5))


def test_alt4_components(corpus):
    g = build_graph(corpus["alt4"])
    res = diameter_and_components(g)
    assert len(res["components"]) == 5
    assert res["diameter"] == math.inf


def test_sym4_disconnected(corpus):
    res = diameter_and_components(build_graph(corpus["sym4"]))
    assert res["diameter"] == math.inf
    assert len(res["components"]) > 1


def test_s3xs3_connected_diameter_3(s3xs3_graph):
    res = diameter_and_components(s3xs3_graph)
    assert len(res["components"]) == 1
    assert res["diameter"] == 3


@pytest.mark.parametrize("name", ["sym3", "sym4", "alt4", "d10", "s3xs3", "q8"])
def test_quotient_bfs_matches_naive_bfs(corpus, name):
    group = corpus[name]
    graph = build_graph(group)
    vertices, adj = naive_vertex_adjacency(group)
    oracle = naive_all_distances(vertices, adj)
    assert set(vertices) == set(graph.class_of)
    for x in vertices:
        for y in vertices:
            got = distance(graph, x, y).distance
            want = oracle[x].get(y, math.inf)
            assert got == want, (name, x, y)


def test_adjacency_symmetric_irreflexive(s3xs3_graph):
    verts = list(s3xs3_graph.class_of)
    for x in verts[::5]:
        assert not s3xs3_graph.adjacent(x, x)
        for y in verts[::7]:
            assert s3xs3_graph.adjacent(x, y) == s3xs3_graph.adjacent(y, x)


def test_witness_paths_are_commuting_walks(s3xs3_graph, corpus):
    graph = s3xs3_graph
    verts = list(graph.class_of)
    for x in verts[::6]:
        for y in verts[::11]:
            rep = distance(graph, x, y)
            if rep.distance == math.inf:
                continue
            assert len(rep.path) == rep.distance + 1
            for a, b in zip(rep.path, rep.path[1:]):
                assert a * b == b * a and a != b


def test_graph_export_shape(sym3_graph):
    payload = sym3_graph.to_json()
    assert payload["components"] == 4
    assert payload["diameter"] is None
    assert payload["edges"] == []
    assert sorted(c["size"] for c in payload["classes"]) == [1, 1, 1, 2]


# --- class-driven centralizers against the per-element scan -----------------


def _assert_graph_matches_scan(G):
    try:
        want = scan_centralizer_classes(G)
    except EmptyGraph:
        with pytest.raises(EmptyGraph):
            build_graph(G)
        return
    graph = build_graph(G)
    assert graph.classes == want[0]
    assert graph.class_of == want[1]
    assert graph.adjacency == want[2]
    # one BFS source in every conjugation orbit of centralizer classes,
    # and the BFS from those sources against every pair
    orbits = brute_centralizer_orbits(G, want[0], want[1])
    assert len(graph.sources) == len(orbits)
    assert all(len(orbit & set(graph.sources)) == 1 for orbit in orbits)
    assert diameter_and_components(graph)["diameter"] == naive_diameter(G)


@pytest.mark.parametrize("name", list_corpus() + sorted(EXTRA_GROUPS) + ["agaml1_9"])
def test_build_graph_matches_scan_oracle(corpus, name):
    if name == "agaml1_9":
        G = GroupHandle.from_json(AGAML1_9, name=name).materialize()
        assert G.order() == 144
    else:
        G = oracle_group(corpus, name)
    _assert_graph_matches_scan(G)


@settings(max_examples=20, deadline=None)
@given(st.permutations(range(6)), st.permutations(range(6)))
@example([0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5])  # trivial: no vertex
@example([1, 2, 3, 4, 5, 0], [5, 4, 3, 2, 1, 0])  # dihedral of order 12
def test_conjugacy_classes_and_graph_on_s6_subgroups(a, b):
    G = GroupHandle([PermutationElement(a), PermutationElement(b)]).materialize()
    # the scan oracle costs 2|G|^2 products; A6 and S6 would take seconds each
    assume(G.order() <= 120)
    # the classes, read off the conjugation images, partition G and obey
    # the class equation |x^G| |C(x)| = |G|
    seen = set()
    for r, x in enumerate(G.elements):
        if r not in seen:
            cls = set(G.conjugation_images(r))
            assert not cls & seen
            assert len(cls) * len(brute_centralizer(G, x)) == G.order()
            seen |= cls
    assert len(seen) == G.order()
    _assert_graph_matches_scan(G)


# --- adjacency by class lookups against the all-pairs test ------------------


def _assert_adjacency_matches_all_pairs(G):
    try:
        graph = build_graph(G)
    except EmptyGraph:
        return
    assert graph.adjacency == all_pairs_adjacency(graph)


@pytest.mark.parametrize("name", list_corpus())
def test_adjacency_matches_all_pairs_test_on_corpus(corpus, name):
    _assert_adjacency_matches_all_pairs(corpus[name])


@settings(max_examples=25, deadline=None)
@given(st.permutations(range(6)), st.permutations(range(6)))
@example([1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5])  # S6
@example([1, 0, 3, 2, 4, 5], [0, 1, 2, 3, 5, 4])  # elementary abelian: no vertex
def test_adjacency_matches_all_pairs_test_on_s6_subgroups(a, b):
    G = GroupHandle([PermutationElement(a), PermutationElement(b)]).materialize()
    _assert_adjacency_matches_all_pairs(G)


# --- no element products after materialization ------------------------------


@pytest.mark.parametrize("name", ["agl1_13", "s3cubed"])
def test_build_graph_product_budget(monkeypatch, name):
    G = GroupHandle(EXTRA_GROUPS[name](), name=name)
    products = []
    real = PermutationElement.__mul__

    def counted(a, b):
        products.append(1)
        return real(a, b)

    monkeypatch.setattr(PermutationElement, "__mul__", counted)
    build_graph(G)
    # the breadth-first walk multiplies every element by every generator;
    # the conjugation tables are read off those products, so the graph
    # build makes none of its own
    assert len(products) == len(G.generators) * G.order()


def _cycle(points, degree):
    images = list(range(degree))
    for i, j in zip(points, points[1:] + points[:1]):
        images[i] = j
    return PermutationElement(images)


def symmetric_group(n):
    """S_n from the transposition (0 1) and the n-cycle (0 1 ... n-1)."""
    return GroupHandle([_cycle([0, 1], n), _cycle(list(range(n)), n)])


def alternating_group(n):
    """A_n from (0 1 2) and an even cycle: (0 1 ... n-1) for odd n, (1 2 ... n-1) for even n."""
    return GroupHandle([_cycle([0, 1, 2], n), _cycle(list(range(n % 2 == 0, n)), n)])


def cyclic_p_subgroups(n, p):
    """How many subgroups <c> of S_n a p-cycle c generates: C(n, p)(p - 1)!
    p-cycles, p - 1 in each.  All of them lie in A_n for odd p."""
    return math.comb(n, p) * math.factorial(p - 2)


@pytest.mark.parametrize("family, n, components", [
    ("S", 5, 7), ("S", 6, 37), ("S", 7, 121), ("S", 8, 961), ("A", 7, 247), ("A", 8, 961),
])
def test_symmetric_and_alternating_component_counts(family, n, components):
    """Iranmanesh and Jafarzadeh (J. Algebra Appl. 7, 2008): the commuting
    graph of S_n is connected iff neither n nor n - 1 is prime, and that of
    A_n iff none of n, n - 1, n - 2 is.  For such a prime p a p-cycle c has
    centralizer <c>: it fixes at most one point in S_n, and in A_n at most
    two, whose transposition is odd.  So each <c> without 1 is a component
    of its own, and here the rest of the graph is one more component."""
    G = (symmetric_group if family == "S" else alternating_group)(n).materialize()
    assert G.order() == math.factorial(n) // (1 if family == "S" else 2)
    primes = [p for p in range(n - (1 if family == "S" else 2), n + 1) if is_prime(p)]
    report = diameter_and_components(build_graph(G))
    assert len(report["components"]) == 1 + sum(cyclic_p_subgroups(n, p) for p in primes)
    assert len(report["components"]) == components
    assert report["diameter"] == math.inf


def test_a6_components_pinned_as_measured():
    # the count above gives 37 for A6, 1 + its 36 five-cycle subgroups, but
    # A6 has 47 components: a Sylow 3-subgroup <(0 1 2), (3 4 5)> is the
    # centralizer in A6 of each of its 8 elements other than 1, so its 10
    # conjugates are components too, though 3 = n - 3 is not among the
    # primes the count looks at; 36 + 10 + 1
    G = alternating_group(6).materialize()
    assert G.order() == 360
    report = diameter_and_components(build_graph(G))
    assert 1 + cyclic_p_subgroups(6, 5) == 37
    assert len(report["components"]) == 47


@pytest.mark.parametrize("family, n, diameter", [
    ("S", 5, 5), ("S", 6, 4), ("S", 7, 5), ("S", 8, 4), ("A", 6, 6), ("A", 7, 5), ("A", 8, 4),
])
def test_symmetric_and_alternating_component_diameters(family, n, diameter):
    """Morgan and Parker (J. Algebra 393, 2013): when G has a trivial centre,
    every component of its commuting graph has diameter at most 10.  Here
    one component has several centralizer classes; conjugation permutes the
    components, so it maps that one to itself, and every orbit of classes
    meeting it has its BFS source inside.  Every other component is one
    class of at least two elements, which commute: diameter 1.  The large
    component's diameter is pinned as measured."""
    G = (symmetric_group if family == "S" else alternating_group)(n).materialize()
    assert center(G).is_trivial()
    graph = build_graph(G)
    components = diameter_and_components(graph)["components"]
    (big,) = [comp for comp in components if len(comp) > 1]
    inside = set(big)

    def eccentricity(c):
        return max(_class_bfs(graph, c)[0].values())

    big_diameter = max(eccentricity(c) for c in graph.sources if c in inside)
    if len(big) <= 100:  # S5, A6: the sources give what every class gives
        assert big_diameter == max(eccentricity(c) for c in big)
    lone = [graph.classes[c] for comp in components if len(comp) == 1 for c in comp]
    assert len(lone) == len(components) - 1 and all(len(cls) >= 2 for cls in lone)
    assert big_diameter == diameter <= 10

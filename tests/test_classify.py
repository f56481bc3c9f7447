import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from extra_groups import AGAML1_9, EXTRA_GROUPS, oracle_group
from oracles import (
    as_group,
    exhaustive_is_frobenius,
    exhaustive_is_nilpotent,
    exhaustive_is_two_frobenius,
    find_frobenius_complement,
    group_element_order,
    searched_is_metacyclic,
    sylow_profile_cyclic_or_quaternion,
)

from commgraph import classify, groups
from commgraph.classify import (
    KIND_CONNECTED,
    KIND_FROBENIUS,
    KIND_HAS_CENTRE,
    KIND_NOT_SOLUBLE,
    KIND_TWO_FROBENIUS,
    classify_group,
    is_frobenius,
    is_two_frobenius,
)
from commgraph.corpus import list_corpus
from commgraph.graph import build_graph, diameter_and_components
from commgraph.groups import (
    GroupHandle,
    PermutationElement,
    center,
    fitting_subgroup,
    is_metacyclic,
    is_soluble,
    quotient_group,
)
from commgraph.primes import factorize

V4 = {
    PermutationElement([0, 1, 2, 3]),
    PermutationElement([1, 0, 3, 2]),
    PermutationElement([2, 3, 0, 1]),
    PermutationElement([3, 2, 1, 0]),
}


def test_is_frobenius_examples(corpus):
    kernel = is_frobenius(corpus["alt4"])
    assert kernel is not None and kernel.member_set == V4
    kernel = is_frobenius(corpus["sym3"])
    assert kernel is not None and kernel.order() == 3
    assert is_frobenius(corpus["sym4"]) is None


def test_frobenius_kernel_is_fitting(corpus):
    for name in ("alt4", "sym3", "c5c4", "c7c3", "d10"):
        kernel = is_frobenius(corpus[name])
        assert kernel is not None
        assert kernel.member_set == fitting_subgroup(corpus[name]).member_set


def test_is_two_frobenius_examples(corpus):
    got = is_two_frobenius(corpus["sym4"])
    assert got is not None
    K, L = got
    assert K.member_set == V4 and L.order() == 12
    assert is_two_frobenius(corpus["alt4"]) is None  # A4/V4 is cyclic
    assert is_two_frobenius(corpus["s3xs3"]) is None


def test_classify_verdicts(corpus):
    assert classify_group(corpus["d08"]).kind == KIND_HAS_CENTRE
    assert classify_group(corpus["q8"]).kind == KIND_HAS_CENTRE
    assert classify_group(corpus["alt5"]).kind == KIND_NOT_SOLUBLE

    v = classify_group(corpus["sym4"])
    assert v.kind == KIND_TWO_FROBENIUS
    assert v.K.order() == 4 and v.L.order() == 12
    assert v.gk_metacyclic is True
    assert v.to_json()["K_order"] == 4

    v = classify_group(corpus["s3xs3"])
    assert v.kind == KIND_CONNECTED and v.diameter == 3


def test_frobenius_not_reported_two_frobenius(corpus):
    # verdict priority: a Frobenius group never reaches the 2-Frobenius branch
    v = classify_group(corpus["c5c4"])
    assert v.kind == KIND_FROBENIUS and v.K is None


def _soluble_trivial_centre(corpus):
    out = {}
    for name, g in corpus.items():
        if center(g).is_trivial() and is_soluble(g):
            out[name] = g
    return out


def test_disconnection_dichotomy_on_corpus(corpus):
    pool = _soluble_trivial_centre(corpus)
    assert len(pool) >= 8
    for name, g in pool.items():
        verdict = classify_group(g)
        res = diameter_and_components(build_graph(g))
        disconnected = res["diameter"] == math.inf
        assert verdict.kind != "DisconnectedOther", name  # sentinel must not fire
        assert disconnected == (verdict.kind in (KIND_FROBENIUS, KIND_TWO_FROBENIUS)), name
        if not disconnected:
            assert verdict.diameter == res["diameter"] <= 8, name


def test_complement_profiles(corpus):
    # Frobenius complements have cyclic-or-quaternion Sylow structure
    for name, g in _soluble_trivial_centre(corpus).items():
        kernel = is_frobenius(g)
        if kernel is None or g.order() > 500:
            continue
        complement = find_frobenius_complement(g, kernel)
        assert complement is not None, name
        assert complement.order() * kernel.order() == g.order()
        assert sylow_profile_cyclic_or_quaternion(complement), name


def test_thompson_property(corpus):
    # prime-order complement acts fixed-point-freely, so the kernel is nilpotent
    checked = 0
    for name, g in _soluble_trivial_centre(corpus).items():
        kernel = is_frobenius(g)
        if kernel is None:
            continue
        index = g.order() // kernel.order()
        if _is_prime(index):
            assert exhaustive_is_nilpotent(as_group(kernel)), name
            checked += 1
    assert checked >= 5


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_complement_vertices_stay_in_complement(corpus):
    # the component through a complement element stays inside the complement
    for name in ("sym3", "alt4", "c5c4", "c7c3"):
        g = corpus[name]
        kernel = is_frobenius(g)
        complement = find_frobenius_complement(g, kernel)
        graph = build_graph(g)
        res = diameter_and_components(graph)
        comp_elements = {m for m in complement if not m.is_identity()}
        for comp in res["components"]:
            members = {v for ci in comp for v in graph.classes[ci]}
            if members & comp_elements:
                assert members <= comp_elements, name


def test_verdict_json_fields(corpus):
    payload = classify_group(corpus["alt4"]).to_json()
    assert payload == {"kind": "Frobenius", "order": 12, "kernel_order": 4}
    payload = classify_group(corpus["d08"]).to_json()
    assert payload == {"kind": "HasCentre", "order": 8}


# --- class-driven Frobenius tests against the element-by-element oracles ----


# AGammaL(1, 8) as [[a, b], [0, 1]] over GF(8) = GF(2)[X] / (X^3 + X + 1), an
# entry a0 + a1 X + a2 X^2 written [a0, a1, a2]: multiplication by X,
# translation by 1, and the Frobenius twist
AGAML1_8 = {
    "type": "matrix",
    "field": {"p": 2, "k": 3, "modulus": [1, 1, 0, 1]},
    "dim": 2,
    "aut_order": 3,
    "generators": [
        {"twist": 0, "matrix": [[[0, 1, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0]]]},
        {"twist": 0, "matrix": [[[1, 0, 0], [1, 0, 0]], [[0, 0, 0], [1, 0, 0]]]},
        {"twist": 1, "matrix": [[[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0]]]},
    ],
}

# S4 as the rotations of the cube, signed permutation matrices over GF(3).
# Its least element in key order is odd, so the coset of K = V4 does not get
# label 0 in G/K.
CUBE_GF3 = {
    "type": "matrix",
    "field": {"p": 3, "k": 1, "modulus": [0, 1]},
    "dim": 3,
    "aut_order": 1,
    "generators": [
        {"twist": 0, "matrix": [[0, 0, 1], [1, 0, 0], [0, 1, 0]]},
        {"twist": 0, "matrix": [[0, 2, 0], [1, 0, 0], [0, 0, 1]]},
    ],
}


def _affine_gf3(f):
    """The permutation of GF(3)^2 induced by f, the point (x, y) numbered x + 3y."""
    points = [f(i % 3, i // 3) for i in range(9)]
    return PermutationElement([x % 3 + 3 * (y % 3) for x, y in points])


# (C3 x C5) : C4 of order 60: a 3-cycle, a 5-cycle, and an element of order 4
# that inverts the 3-cycle and acts fixed-point-freely on the 5-cycle
C15C4 = [[1, 2, 0, 3, 4, 5, 6, 7], [0, 1, 2, 4, 5, 6, 7, 3], [0, 2, 1, 3, 5, 7, 4, 6]]

# name -> (group, |G|, is_frobenius kernel order, is_two_frobenius (|K|, |L|))
FROBENIUS_CASES = {
    "agaml1_8": (lambda: GroupHandle.from_json(AGAML1_8), 168, None, (8, 56)),
    "cube_gf3": (lambda: GroupHandle.from_json(CUBE_GF3), 24, None, (4, 12)),
    # {(s, t) in S4 x S3 : sign s = sign t}: G/K = S3 is Frobenius, but the
    # 3-cycles of S4 centralize the C3 in K = V4 x C3, so L is not
    "s4s3_even": (
        lambda: GroupHandle([
            PermutationElement(g) for g in
            ([1, 0, 2, 3, 5, 4, 6], [0, 2, 3, 1, 4, 5, 6], [0, 1, 2, 3, 5, 6, 4])
        ]),
        72, None, None,
    ),
    # ASL(2, 3): L = K : Q8 is Frobenius, but G/K = SL(2, 3) has a centre
    "asl2_3": (
        lambda: GroupHandle([
            _affine_gf3(lambda x, y: (x + 1, y)),
            _affine_gf3(lambda x, y: (x + y, y)),
            _affine_gf3(lambda x, y: (-y, x)),
        ]),
        216, None, None,
    ),
}


def _assert_frobenius_tests_match_oracles(G):
    kernel = is_frobenius(G)
    assert (None if kernel is None else kernel.member_set) == exhaustive_is_frobenius(G)
    two = is_two_frobenius(G)
    got = None if two is None else (two[0].member_set, two[1].member_set)
    assert got == exhaustive_is_two_frobenius(G)
    return kernel, two


@pytest.mark.parametrize("name", list_corpus() + sorted(EXTRA_GROUPS))
def test_frobenius_tests_match_oracles(corpus, name):
    _assert_frobenius_tests_match_oracles(oracle_group(corpus, name))


@pytest.mark.parametrize("name", sorted(FROBENIUS_CASES))
def test_frobenius_tests_match_oracles_on_built_groups(name):
    build, order, kernel_order, two_orders = FROBENIUS_CASES[name]
    G = build().materialize()
    assert G.order() == order
    kernel, two = _assert_frobenius_tests_match_oracles(G)
    assert (None if kernel is None else kernel.order()) == kernel_order
    assert (None if two is None else (two[0].order(), two[1].order())) == two_orders


def test_every_kernel_class_is_tested():
    # the first nontrivial class of F(G) = C15 (order 5) passes the kernel
    # test and the second (order 3) fails it, so G is not Frobenius
    G = GroupHandle([PermutationElement(g) for g in C15C4], name="c15c4").materialize()
    F = fitting_subgroup(G)
    assert G.order() == 60 and F.order() == 15
    # the first member of each nontrivial G-class of F, in key order
    reps, seen = [], {0}
    for x in F.members:
        i = G.index_of(x)
        if i not in seen:
            seen.update(G.conjugation_images(i))
            reps.append(x)
    commutes_outside = [
        any(g * rep == rep * g for g in G.elements if g not in F) for rep in reps[:2]
    ]
    assert [group_element_order(rep) for rep in reps[:2]] == [5, 3]
    assert commutes_outside == [False, True]
    _assert_frobenius_tests_match_oracles(G)
    v = classify_group(G)
    assert (v.kind, v.diameter) == (KIND_CONNECTED, 4)


@settings(max_examples=20, deadline=None)
@given(st.permutations(range(6)), st.permutations(range(6)))
@example([1, 0, 2, 3, 4, 5], [1, 2, 3, 0, 4, 5])  # S4, 2-Frobenius
@example([1, 2, 3, 4, 0, 5], [0, 2, 4, 1, 3, 5])  # AGL(1, 5), Frobenius
def test_frobenius_tests_match_oracles_on_s6_subgroups(a, b):
    G = GroupHandle([PermutationElement(a), PermutationElement(b)]).materialize()
    # the oracles take a normal closure of every element; keep |G| small
    assume(G.order() <= 120)
    _assert_frobenius_tests_match_oracles(G)


# --- element products made by the classification ----------------------------


def _gf2_mul(a, b, modulus):
    """Product in GF(2^k) = GF(2)[X] / (modulus), an element a0 + a1 X + ...
    written as the bits a0 + 2 a1 + ..., and the modulus as the bits of its
    coefficients, X^k included."""
    top = 1 << (modulus.bit_length() - 1)
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= modulus
    return out


def _affine_gf2(modulus, frobenius):
    """AGL(1, 2^k) on the points of GF(2^k) = GF(2)[X] / (modulus), for X
    primitive: translation by 1 and multiplication by X; with the Frobenius
    map x -> x^2 as well, AGammaL(1, 2^k)."""
    n = 1 << (modulus.bit_length() - 1)
    gens = [[x ^ 1 for x in range(n)], [_gf2_mul(2, x, modulus) for x in range(n)]]
    if frobenius:
        gens.append([_gf2_mul(x, x, modulus) for x in range(n)])
    return gens


# AGammaL(1, 8) on the 8 points of GF(8) = GF(2)[X] / (X^3 + X + 1): order
# 168, 2-Frobenius
AGAML1_8_PERM = _affine_gf2(0b1011, frobenius=True)

BUDGET_CASES = {
    "agl1_13": (lambda: EXTRA_GROUPS["agl1_13"](), KIND_FROBENIUS),
    "agaml1_8_perm": (lambda: [PermutationElement(g) for g in AGAML1_8_PERM], KIND_TWO_FROBENIUS),
    "s4xs3": (lambda: EXTRA_GROUPS["s4xs3"](), KIND_CONNECTED),
}


@pytest.mark.parametrize("name", sorted(BUDGET_CASES))
def test_classify_group_product_budget(monkeypatch, name):
    gens, kind = BUDGET_CASES[name]
    G = GroupHandle(gens(), name=name).materialize()
    products, quotients, cores = [], [], []
    real_mul, real_quotient, real_core = (
        PermutationElement.__mul__, groups.quotient_group, groups.p_core)

    def counted(a, b):
        products.append(1)
        return real_mul(a, b)

    def recorded(*args):
        quotients.append(real_quotient(*args))
        return quotients[-1]

    def recorded_core(X, p):
        cores.append((X, p))
        return real_core(X, p)

    monkeypatch.setattr(PermutationElement, "__mul__", counted)
    monkeypatch.setattr(groups, "p_core", recorded_core)
    monkeypatch.setattr(groups, "quotient_group", recorded)
    monkeypatch.setattr(classify, "quotient_group", recorded)
    assert classify_group(G).kind == kind
    # after materialization nothing multiplies: the series, F(G), the
    # quotient G/F(G), which reads its tree and tables off G's, the kernel
    # tests, the metacyclic test and the graph are table lookups; G/F(G) is
    # the one quotient, and a Frobenius G needs none
    assert len(quotients) == (0 if name == "agl1_13" else 1)
    assert not products
    # is_frobenius(G) and is_two_frobenius(G) both start from F(G), which the
    # handle keeps: one p-core per prime of |G|, then one per prime of |G/K|
    assert cores == [(X, p) for X in [G, *quotients] for p in factorize(X.order())]


# --- whether G/K is metacyclic, against a search of its cyclic subgroups -----


def _perm_group(gens):
    return GroupHandle([PermutationElement(g) for g in gens])


# name -> (group, whether G/K is metacyclic, None where G is neither Frobenius
# nor 2-Frobenius)
METACYCLIC_CASES = {
    "agl1_8": (lambda: _perm_group(_affine_gf2(0b1011, frobenius=False)), False),
    # AGL(1, 9) is AGammaL(1, 9) without its Frobenius twist
    "agl1_9": (lambda: GroupHandle.from_json(
        {**AGAML1_9, "generators": AGAML1_9["generators"][:2]}), False),
    "agl1_16": (lambda: _perm_group(_affine_gf2(0b10011, frobenius=False)), False),
    # C3^2 : Q8, for Q8 = <i, j> in SL(2, 3) acting fixed-point-freely on GF(3)^2
    "c3sq_q8": (lambda: GroupHandle([
        _affine_gf3(lambda x, y: (x + 1, y)),
        _affine_gf3(lambda x, y: (-y, x)),
        _affine_gf3(lambda x, y: (x + y, x - y)),
    ]), False),
    # G/K = C31 : C5
    "agaml1_32": (lambda: _perm_group(_affine_gf2(0b100101, frobenius=True)), True),
    # G/K = C7 : C3
    "agaml1_8_perm": (lambda: _perm_group(AGAML1_8_PERM), True),
    # G/K = GammaL(1, 9) is a 2-group, so not Frobenius
    "agaml1_9": (lambda: GroupHandle.from_json(AGAML1_9), None),
}


def _metacyclic_and_searched(G):
    """is_metacyclic(G, K, L) and the search on G/K, for K = 1 and L = F(G)
    when G is Frobenius and for is_two_frobenius's (K, L) when G is
    2-Frobenius; None otherwise."""
    kernel = is_frobenius(G)
    if kernel is not None:
        return is_metacyclic(G, G.trivial_subgroup(), kernel), searched_is_metacyclic(G)
    two = is_two_frobenius(G)
    if two is None:
        return None
    K, L = two
    return is_metacyclic(G, K, L), searched_is_metacyclic(quotient_group(G, K))


def test_is_metacyclic_matches_the_search(corpus):
    answers = set()
    for name in list_corpus() + sorted(EXTRA_GROUPS):
        both = _metacyclic_and_searched(oracle_group(corpus, name))
        if both is not None:
            assert both[0] == both[1], name
            answers.add(both[0])
    for name, (build, expected) in METACYCLIC_CASES.items():
        both = _metacyclic_and_searched(build().materialize())
        assert both == (None if expected is None else (expected, expected)), name
        answers.add(expected)
    assert answers >= {True, False}

import json
import random
import re

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from extra_groups import AGAML1_9, EXTRA_GROUPS, LADDER, oracle_group
from oracles import (
    as_group,
    brute_center,
    brute_centralizer,
    brute_is_normal,
    conjugate,
    derived_subgroup,
    exhaustive_derived,
    exhaustive_fitting,
    exhaustive_is_nilpotent,
    exhaustive_is_soluble,
    exhaustive_normal_closure,
    exhaustive_p_core,
    find_frobenius_complement,
    generator_indices,
    group_element_order,
    naive_closure,
    permutation_quotient,
    searched_is_metacyclic,
    sylow_profile_cyclic_or_quaternion,
    WrappedPermutation,
)

from commgraph.classify import is_frobenius
from commgraph.corpus import list_corpus, load_corpus_group
from commgraph.errors import BackendMismatch, CapExceeded, NotMember, NotNormal
from commgraph.fields import factorize, field_create, frobenius_map
from commgraph.groups import (
    GroupHandle,
    MatrixAutElement,
    PermutationElement,
    center,
    centralizer,
    fitting_subgroup,
    is_normal,
    is_soluble,
    normal_closure,
    p_core,
    quotient_group,
    sylow_subgroup,
)
from commgraph.groups import _compose
from commgraph.matrices import _mat_frob, _mat_mul


def P(*images):
    return PermutationElement(images)


@pytest.fixture(scope="module")
def sym3():
    return GroupHandle([P(1, 0, 2), P(1, 2, 0)], name="sym3").materialize()


@pytest.fixture(scope="module")
def sym4():
    return GroupHandle([P(1, 0, 2, 3), P(1, 2, 3, 0)], name="sym4").materialize()


@pytest.fixture(scope="module")
def c6():
    return GroupHandle([P(1, 2, 3, 4, 5, 0)], name="c6").materialize()


def test_generate_three_cycle():
    elems = GroupHandle([P(1, 2, 0)], cap=10).elements
    assert len(elems) == 3
    assert elems[0].is_identity()


def test_generate_sym4_matches_naive_closure(sym4):
    oracle = naive_closure([P(1, 0, 2, 3), P(1, 2, 3, 0)])
    assert len(oracle) == 24
    assert set(sym4.elements) == oracle
    # idempotent under re-closure
    assert set(GroupHandle(sym4.elements, cap=100).elements) == oracle


def test_generate_cap_exceeded():
    with pytest.raises(CapExceeded):
        GroupHandle([P(1, 0, 2, 3), P(1, 2, 3, 0)], cap=10).materialize()


def test_generate_backend_mismatch():
    with pytest.raises(BackendMismatch):
        GroupHandle([P(1, 0), P(1, 2, 0)], cap=10).materialize()


def test_generation_deterministic(sym4):
    again = GroupHandle(sym4.generators).materialize()
    assert again.elements == sym4.elements


def test_centralizer_of_identity(sym4):
    assert centralizer(sym4, sym4.identity).member_set == set(sym4.elements)


def test_centralizer_sym3_rotation(sym3):
    rot = P(1, 2, 0)
    got = centralizer(sym3, rot)
    assert got.member_set == {P(0, 1, 2), P(1, 2, 0), P(2, 0, 1)}


def test_centralizer_double_transposition(sym4):
    x = P(1, 0, 3, 2)
    got = centralizer(sym4, x)
    assert got.member_set == brute_centralizer(sym4, x)
    assert got.order() == 8


def test_centralizer_requires_membership(sym4):
    with pytest.raises(NotMember):
        centralizer(sym4, P(0, 1, 2, 3, 4))


def test_center(sym4, c6):
    assert center(c6).order() == 6  # abelian
    assert center(sym4).is_trivial()
    d8 = GroupHandle([P(1, 2, 3, 0), P(3, 2, 1, 0)]).materialize()
    assert center(d8).order() == 2


def test_is_soluble(sym4, c6):
    assert is_soluble(c6)
    assert is_soluble(sym4)  # S4 > A4 > V4 > 1
    a5 = GroupHandle([P(1, 2, 3, 4, 0), P(1, 2, 0, 3, 4)]).materialize()
    assert not is_soluble(a5)


def test_is_nilpotent(sym3, c6):
    assert exhaustive_is_nilpotent(c6)
    d8 = GroupHandle([P(1, 2, 3, 0), P(3, 2, 1, 0)]).materialize()
    assert exhaustive_is_nilpotent(d8)  # a 2-group
    assert not exhaustive_is_nilpotent(sym3)


def test_sylow_subgroups(sym4):
    d8 = GroupHandle([P(1, 2, 3, 0), P(3, 2, 1, 0)]).materialize()
    assert sylow_subgroup(d8, 2).order() == 8  # whole p-group
    assert sylow_subgroup(sym4, 2).order() == 8  # 2-part of 24
    assert sylow_subgroup(sym4, 3).order() == 3
    assert sylow_subgroup(sym4, 5).is_trivial()  # 5 does not divide 24


def test_sylow_is_deterministic_subgroup(sym4):
    s1 = sylow_subgroup(sym4, 2)
    s2 = sylow_subgroup(sym4, 2)
    assert s1.member_set == s2.member_set
    assert naive_closure(s1.members) == s1.member_set


V4 = {P(0, 1, 2, 3), P(1, 0, 3, 2), P(2, 3, 0, 1), P(3, 2, 1, 0)}


def test_p_core(sym4):
    assert p_core(sym4, 2).member_set == V4
    assert p_core(sym4, 3).is_trivial()
    c4 = GroupHandle([P(1, 2, 3, 0)]).materialize()
    assert p_core(c4, 2).order() == 4  # abelian p-group


def test_fitting(sym3, sym4):
    d8 = GroupHandle([P(1, 2, 3, 0), P(3, 2, 1, 0)]).materialize()
    assert fitting_subgroup(d8).order() == 8  # nilpotent group is its own Fitting
    assert fitting_subgroup(sym4).member_set == V4
    f3 = fitting_subgroup(sym3)
    assert f3.order() == 3 and all(group_element_order(g) in (1, 3) for g in f3)


def test_fitting_is_nilpotent_normal(sym3, sym4):
    for G in (sym3, sym4):
        F = fitting_subgroup(G)
        assert exhaustive_is_nilpotent(as_group(F))
        assert is_normal(G, F)


def test_quotient_group(sym4):
    whole = sym4.whole()
    assert quotient_group(sym4, whole).order() == 1
    assert quotient_group(sym4, sym4.trivial_subgroup()).order() == 24
    q = quotient_group(sym4, sym4.subgroup(V4))
    assert q.order() == 6
    assert center(q).is_trivial()  # S3, so non-abelian
    assert q.whole().members == tuple(range(6))  # coset numbers, in key order
    assert q.order() * 4 == sym4.order()


def test_quotient_requires_normal(sym4):
    H = sym4.subgroup([sym4.identity, P(1, 0, 2, 3)])
    with pytest.raises(NotNormal):
        quotient_group(sym4, H)


def test_subgroup_rejects_non_member(c6):
    with pytest.raises(NotMember):
        c6.subgroup([c6.identity, P(1, 0, 2, 3, 4, 5)])


@settings(max_examples=20, deadline=None)
@given(st.permutations(range(6)), st.permutations(range(6)), st.integers(min_value=0, max_value=119))
@example([1, 0, 2, 3, 4, 5], [1, 2, 3, 0, 4, 5], 0)  # S4 by 1
@example([1, 0, 2, 3, 4, 5], [1, 2, 3, 0, 4, 5], 3)  # S4 by A4
@example([1, 0, 2, 3, 4, 5], [1, 2, 3, 0, 4, 5], 5)  # S4 by V4
def test_quotient_labels_match_oracle_on_s6_subgroups(a, b, k):
    G = GroupHandle([PermutationElement(a), PermutationElement(b)]).materialize()
    # the oracle forms |G| |N| products; A6 and S6 would take seconds
    assume(G.order() <= 120)
    N = normal_closure(G, G.elements[k % G.order()])
    _assert_quotient_matches_permutation_quotient(G, N)


@pytest.mark.parametrize("name", list_corpus())
def test_quotient_matches_permutation_quotient_on_corpus(corpus, name):
    G = corpus[name]
    normals = {G.trivial_subgroup(), center(G), fitting_subgroup(G), G.whole()}
    normals |= {normal_closure(G, g) for g in G.generators}
    for N in normals:
        _assert_quotient_matches_permutation_quotient(G, N)


def _assert_quotient_matches_permutation_quotient(G, N):
    Q = quotient_group(G, N)
    label, perm, P = permutation_quotient(G, N)
    assert Q.coset_index_of == [label[g] for g in G.elements]
    assert Q.order() * N.order() == G.order() == P.order() * N.order()
    number = {p: c for c, p in enumerate(perm)}
    assert Q.generators == [number[g] for g in P.generators]
    # right multiplication by each generator, the Schreier tree, orders and
    # inverses of Q against products of the permutations
    for q in Q.generators:
        assert [_compose(c, Q.right_tables(q)) for c in range(Q.order())] == [
            number[p * perm[q]] for p in perm]
    parent, via = Q.schreier_tree()
    for c in range(1, Q.order()):
        assert perm[c] == perm[parent[c]] * P.generators[via[c]]
    assert [Q.element_order_at(c) for c in range(Q.order())] == [group_element_order(p) for p in perm]
    assert [Q.inverse_at(c) for c in range(Q.order())] == [number[p.inverse()] for p in perm]
    # the structure the classification reads off Q
    assert fitting_subgroup(Q).order() == fitting_subgroup(P).order()
    kernel_orders = [None if k is None else k.order()
                     for k in (is_frobenius(Q), is_frobenius(P))]
    assert kernel_orders[0] == kernel_orders[1]
    assert searched_is_metacyclic(Q) == searched_is_metacyclic(P)
    # subgroups of Q viewed as groups of their own (their elements are coset
    # numbers, with no product of their own), against the same subgroups of P
    for H in (fitting_subgroup(Q), Q.whole()):
        K = P.subgroup(perm[c] for c in H.indices())
        assert sylow_profile_cyclic_or_quaternion(H) == sylow_profile_cyclic_or_quaternion(K)


@pytest.mark.parametrize("name", list_corpus())
def test_as_group_matches_a_walk_of_its_own(corpus, name):
    # the tests view a subgroup as a group by a walk over its members; a walk
    # over the greedy generating set that `derived_subgroup` takes builds the
    # same group, with the parent's element orders
    G = corpus[name]
    for H in (G.trivial_subgroup(), center(G), fitting_subgroup(G), sylow_subgroup(G, 2),
              G.whole()):
        view = as_group(H)
        gens = [G.elements[i] for i in generator_indices(H)] or [G.identity]
        walked = GroupHandle(gens).materialize()
        assert set(view.elements) == set(walked.elements) == H.member_set
        orders = {g: G.element_order_at(G.index_of(g)) for g in H.members}
        assert {g: view.element_order_at(view.index_of(g)) for g in view.elements} == orders


@pytest.mark.parametrize("name", ["agl1_13", "s4xs3"])
def test_series_closures_and_fitting_make_no_product(monkeypatch, name):
    G = GroupHandle(EXTRA_GROUPS[name](), name=name).materialize()
    products = []
    real = PermutationElement.__mul__

    def counted(a, b):
        products.append(1)
        return real(a, b)

    monkeypatch.setattr(PermutationElement, "__mul__", counted)
    assert is_soluble(G)
    F = fitting_subgroup(G)
    for g in G.generators:
        normal_closure(G, g)
    # G/F(G) reads its tree and tables off G's, so it needs no walk
    quotient_group(G, F)
    assert not products


def test_sylow_profile(sym4, corpus):
    q8 = corpus["q8"]
    assert sylow_profile_cyclic_or_quaternion(q8.whole())
    assert not sylow_profile_cyclic_or_quaternion(sym4.subgroup(V4))
    f20 = corpus["c5c4"]
    complement = f20.subgroup(naive_closure([PermutationElement([0, 2, 4, 1, 3])]))
    assert complement.order() == 4
    assert sylow_profile_cyclic_or_quaternion(complement)


def test_is_metacyclic(sym3, sym4):
    assert searched_is_metacyclic(sym3)
    assert not searched_is_metacyclic(GroupHandle([P(1, 2, 0, 3), P(0, 2, 3, 1)]).materialize())  # A4


def test_find_frobenius_complement(sym3):
    K = fitting_subgroup(sym3)
    H = find_frobenius_complement(sym3, K)
    assert H is not None and H.order() == 2
    assert len(H.member_set & K.member_set) == 1


def test_matrix_backend_q8(corpus):
    q8 = corpus["q8"]
    assert q8.order() == 8
    i, j = q8.generators
    minus_one = i * i
    assert minus_one == j * j
    assert not minus_one.is_identity() and (minus_one * minus_one).is_identity()
    assert j.inverse() * i * j == i.inverse()
    assert center(q8).member_set == {q8.identity, minus_one}


def test_group_json_roundtrip(sym4, corpus, tmp_path):
    import json

    from commgraph.corpus import load_group_file

    for handle in (sym4, corpus["q8"]):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(handle.to_json()))
        again = load_group_file(path)
        assert again.materialize().order() == handle.order()
        assert set(again.elements) == set(handle.elements)


def test_normal_closure_and_conjugate(sym4):
    nc = normal_closure(sym4, P(1, 0, 3, 2))
    assert nc.member_set == V4
    g = P(1, 2, 3, 0)
    assert conjugate(P(1, 0, 3, 2), g) in nc


# --- generator-driven series and cores against the exhaustive oracles -------


def _assert_matches_oracles(G, closure_points):
    soluble = is_soluble(G)
    assert soluble == exhaustive_is_soluble(G)
    derived = derived_subgroup(G)
    assert derived.member_set == exhaustive_derived(G, G.elements)
    assert derived_subgroup(G, derived).member_set == exhaustive_derived(G, derived.members)
    for x in closure_points:
        assert normal_closure(G, x).member_set == exhaustive_normal_closure(G, x)
    for p in factorize(G.order()):
        assert p_core(G, p).member_set == exhaustive_p_core(G, p), p
    return soluble


@pytest.mark.parametrize("name", list_corpus() + sorted(EXTRA_GROUPS))
def test_series_and_cores_match_oracles(corpus, name):
    G = oracle_group(corpus, name)
    soluble = _assert_matches_oracles(G, G.elements)
    assert soluble == (name != "alt5")


@settings(max_examples=20, deadline=None)
@given(st.permutations(range(6)), st.permutations(range(6)))
# S5 and a group of order 72: O_2 needs more than one round of intersections
@example([0, 3, 4, 1, 2, 5], [2, 4, 3, 0, 1, 5])
@example([5, 0, 4, 3, 2, 1], [4, 2, 5, 1, 0, 3])
def test_series_and_cores_match_oracles_on_s6_subgroups(a, b):
    a, b = PermutationElement(a), PermutationElement(b)
    G = GroupHandle([a, b]).materialize()
    # the oracles cost |G|^2 products; A6 and S6 would take minutes each
    assume(G.order() <= 120)
    _assert_matches_oracles(G, [a, b, a * b])


# --- the Schreier tree and the conjugation tables ---------------------------


def _assert_tree_and_tables(G):
    elements, gens = G.elements, G.generators
    parent, via = G.schreier_tree()
    assert elements[0].is_identity() and len(parent) == len(via) == len(elements)
    for i in range(1, len(elements)):
        assert elements[parent[i]] * gens[via[i]] == elements[i]
    tables = G.conjugation_tables()
    assert len(tables) == len(gens)
    for g, table in zip(gens, tables):
        gi = g.inverse()
        assert table == [G.index_of(gi * e * g) for e in elements]
        assert G.left_table(G.index_of(g)) == [G.index_of(g * e) for e in elements]
    for x in elements:
        assert centralizer(G, x).member_set == brute_centralizer(G, x)
    assert [G.inverse_at(i) for i in range(len(elements))] == [
        G.index_of(x.inverse()) for x in elements]


def _table_group(corpus, name):
    if name == "agaml1_9":
        return GroupHandle.from_json(AGAML1_9, name=name).materialize()
    return oracle_group(corpus, name)


TABLE_GROUPS = list_corpus() + sorted(EXTRA_GROUPS) + ["agaml1_9"]


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_schreier_tree_and_conjugation_tables(corpus, name):
    _assert_tree_and_tables(_table_group(corpus, name))


@settings(max_examples=20, deadline=None)
@given(st.permutations(range(6)), st.permutations(range(6)))
@example([0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5])  # trivial: one element
def test_schreier_tree_and_conjugation_tables_on_s6_subgroups(a, b):
    G = GroupHandle([PermutationElement(a), PermutationElement(b)]).materialize()
    # the brute centralizers cost 2|G|^2 products; A6 and S6 would take seconds
    assume(G.order() <= 120)
    _assert_tree_and_tables(G)


# --- a permutation is its image tuple --------------------------------------


def test_permutation_is_its_image_tuple():
    a = P(1, 0, 2)
    assert isinstance(a, tuple)
    assert a == (1, 0, 2) and (1, 0, 2) == a and hash(a) == hash((1, 0, 2))
    assert {a: 1}[(1, 0, 2)] == 1
    assert len(a) == 3 and len(P()) == 0
    assert repr(a) == "Perm(1, 0, 2)" and repr(P(0)) == "Perm(0,)"
    assert a.key() is a and a.to_json() == [1, 0, 2] and a.ambient() == ("perm", 3)


@pytest.mark.parametrize("images", [[0, 0, 1], [1, 2], [0, 3, 1], [-1, 0]])
def test_permutation_rejects_a_non_permutation(images):
    with pytest.raises(ValueError, match=re.escape(f"not a permutation: {images}")):
        PermutationElement(images)


def test_permutation_product_inverse_and_identity(sym4):
    # against the permutation wrapped around its image tuple, over all of S4
    wrapped = {x: WrappedPermutation(x) for x in sym4.elements}
    for a in sym4.elements:
        inv = a.inverse()
        assert type(inv) is PermutationElement and inv == wrapped[a].inverse().images
        assert a * inv == inv * a == a.identity() == (0, 1, 2, 3)
        assert a.is_identity() == (a == (0, 1, 2, 3)) == wrapped[a].is_identity()
        for b in sym4.elements:
            ab = a * b
            # (a*b)(i) = a(b(i)): the right factor acts first
            assert type(ab) is PermutationElement and ab == tuple(a[b[i]] for i in range(4))
            assert ab == (wrapped[a] * wrapped[b]).images
    empty = P()
    assert empty.identity() == empty * empty == empty.inverse() == ()
    assert empty.is_identity() and P(0).is_identity() and not P(1, 0).is_identity()


PERMUTATION_RUNGS = {
    r.name: r for r in LADDER.ANALYZE_RUNGS + LADDER.GRAPH_RUNGS
    if r.name not in ("gl2_3", "agaml1_9_mat")
}
WALK_GROUPS = [
    *(n for n in list_corpus()
      if isinstance(load_corpus_group(n).generators[0], PermutationElement)),
    *(f"ladder_{n}" for n in PERMUTATION_RUNGS),
    "s3wrc2",
    "s4xs3",
]


def _walk_generators(name, directory):
    """Image lists of the generators of a corpus permutation group, a seed-1
    ladder rung written into `directory`, S3 wr C2 or S4 x S3."""
    if name.startswith("ladder_"):
        rung = PERMUTATION_RUNGS[name.removeprefix("ladder_")]
        (path,) = LADDER.write_rungs([rung], 1, directory)
        payload = json.loads(path.read_text())
        assert payload["type"] == "permutation"
        return payload["generators"]
    if name == "s3wrc2":
        return LADDER.wreath_s3_c2()
    gens = EXTRA_GROUPS[name]() if name in EXTRA_GROUPS else load_corpus_group(name).generators
    return [list(g) for g in gens]


@pytest.mark.parametrize("name", WALK_GROUPS)
def test_walk_matches_the_wrapped_permutation_walk(tmp_path, name):
    # the walk over tuples makes the same elements, tree, right tables,
    # conjugation tables and key order as one over wrapped image tuples
    gens = _walk_generators(name, tmp_path)
    G = GroupHandle([PermutationElement(g) for g in gens]).materialize()
    W = GroupHandle([WrappedPermutation(g) for g in gens]).materialize()
    assert [tuple(e) for e in G.elements] == [w.images for w in W.elements]
    assert G.schreier_tree() == W.schreier_tree()
    assert G._right == W._right
    assert G.conjugation_tables() == W.conjugation_tables()
    assert G.key_order() == W.key_order()


# --- the Frobenius twist on matrix entries ----------------------------------


@pytest.mark.parametrize("k", [2, 5])
def test_mat_frob_matches_entrywise_frobenius(k):
    spec = field_create(3, k)
    rng = random.Random(k)

    def entry():
        # zero, a GF(3) entry or any entry, each a third of the time
        keep = rng.choice([0, 1, k])
        return spec.element([rng.randrange(3) for _ in range(keep)] + [0] * (k - keep))

    def entrywise(mat, i):
        return tuple(tuple(frobenius_map(e, i) for e in row) for row in mat)

    for _ in range(20):
        a, b = (MatrixAutElement(spec, [[entry() for _ in range(4)] for _ in range(4)], rng.randrange(k))
                for _ in range(2))
        for i in range(-k, 2 * k):
            assert _mat_frob(spec, a.mat, i) == entrywise(a.mat, i)
        assert (a * b).mat == _mat_mul(spec.zero(), a.mat, entrywise(b.mat, -a.twist))
        assert (a * b).twist == (a.twist + b.twist) % k


# --- centre, normalizers, Sylow subgroups, p-cores and F(G) by table reads --


def _assert_table_reads_match_oracles(G):
    Z = center(G)
    assert Z.member_set == brute_center(G)
    F = fitting_subgroup(G)
    assert F.member_set == exhaustive_fitting(G)
    subgroups = [Z, F] + [G.subgroup(GroupHandle([g]).elements) for g in G.generators]
    for p in factorize(G.order()):
        P = sylow_subgroup(G, p)
        p_part = p
        while G.order() % (p_part * p) == 0:
            p_part *= p
        assert P.order() == p_part
        assert naive_closure(P.members) == P.member_set
        core = p_core(G, p)
        assert core.member_set == exhaustive_p_core(G, p), p
        subgroups += [P, core]
    for H in subgroups:
        assert is_normal(G, H) == brute_is_normal(G, H.members)


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_table_reads_match_oracles(corpus, name):
    _assert_table_reads_match_oracles(_table_group(corpus, name))


@settings(max_examples=20, deadline=None)
@given(st.permutations(range(6)), st.permutations(range(6)))
@example([0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5])  # trivial: one element
@example([1, 0, 2, 3, 4, 5], [1, 2, 3, 0, 4, 5])  # S4
def test_table_reads_match_oracles_on_s6_subgroups(a, b):
    G = GroupHandle([PermutationElement(a), PermutationElement(b)]).materialize()
    # the oracles cost |G|^2 products and more; A6 and S6 would take minutes
    assume(G.order() <= 120)
    _assert_table_reads_match_oracles(G)

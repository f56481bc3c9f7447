"""Property-based checks with hypothesis.

The acceptance suite re-runs the same properties with explicit seeded loops
of 1000 instances; here hypothesis explores the space more adaptively.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from oracles import (
    evaluate,
    group_element_order,
    repeated_frobenius,
    repeated_order,
    repeated_power,
    scanned_inverse,
)

from commgraph.errors import DivisionByZero
from commgraph.fields import element_of_order, element_order, field_create, frobenius_map
from commgraph.graph import build_graph, distance
from commgraph.groups import (
    GroupHandle,
    centralizer,
    center,
    is_normal,
    normal_closure,
    quotient_group,
)

FIELD_POOL = [
    field_create(2, 1),
    field_create(3, 1),
    field_create(11, 1),
    field_create(13, 1),
    field_create(2, 4),
    field_create(3, 3),
    field_create(11, 2),
]

DEFAULT = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.data_too_large])


@st.composite
def field_and_elements(draw, count=2, nonzero=False):
    spec = draw(st.sampled_from(FIELD_POOL))
    elems = []
    for _ in range(count):
        coeffs = draw(st.lists(st.integers(0, spec.p - 1), min_size=spec.k, max_size=spec.k))
        if nonzero and not any(coeffs):
            coeffs[0] = 1
        elems.append(spec.element(coeffs))
    return spec, elems


@DEFAULT
@given(field_and_elements(count=3))
def test_field_axioms(data):
    spec, (a, b, c) = data
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    assert a + spec.zero() == a and a * spec.one() == a
    assert a + (-a) == spec.zero()


@DEFAULT
@given(field_and_elements(count=1, nonzero=True))
def test_multiplicative_inverse(data):
    spec, (a,) = data
    assert a * a.inverse() == spec.one()


@DEFAULT
@given(field_and_elements(count=1, nonzero=True))
def test_order_divides_group_order(data):
    spec, (a,) = data
    assert (spec.size - 1) % element_order(a, spec.size - 1) == 0


@DEFAULT
@given(field_and_elements(count=2))
def test_frobenius_is_ring_homomorphism(data):
    spec, (a, b) = data
    assert frobenius_map(a + b) == frobenius_map(a) + frobenius_map(b)
    assert frobenius_map(a * b) == frobenius_map(a) * frobenius_map(b)


@DEFAULT
@given(field_and_elements(count=2), st.data())
def test_field_layer_matches_slow_oracles(data, draw):
    spec, (a, b) = data
    zero, one = spec.zero(), spec.one()
    e = draw.draw(st.integers(-2 * spec.size, 2 * spec.size))
    i = draw.draw(st.integers(-spec.k, 2 * spec.k - 1))
    assert zero ** 0 == one
    assert zero ** draw.draw(st.integers(1, 2 * spec.size)) == zero
    with pytest.raises(DivisionByZero):
        zero ** -1
    results = [a + b, a - b, -a, a * b, 1 - a, frobenius_map(a, i)]
    assert results[-1] == repeated_frobenius(a, i)
    if not a.is_zero():
        results += [a ** e, a.inverse(), b / a]
        assert a ** e == repeated_power(a, e)
        assert a.inverse() == scanned_inverse(a)
        assert element_order(a, spec.size - 1) == repeated_order(a)
    for r in results:
        # operators build results without a second reduction mod p
        assert len(r.coeffs) == spec.k and all(c in range(spec.p) for c in r.coeffs)


@DEFAULT
@given(st.sampled_from(FIELD_POOL), st.data())
def test_element_of_order_is_exact(spec, data):
    n = spec.size - 1
    divisors = sorted(d for d in range(1, n + 1) if n % d == 0)
    target = data.draw(st.sampled_from(divisors))
    e = element_of_order(spec, target)
    assert element_order(e, spec.size - 1) == target


@DEFAULT
@given(field_and_elements(count=4))
def test_poly_evaluation_homomorphism(data):
    from commgraph.fields import Poly

    spec, (a, b, pa, pb) = data
    # the coefficients lie in GF(p), one an element of spec and one an int;
    # the evaluation point ranges over all of GF(p^k)
    a, b = spec.element(a.coeffs[0]), b.coeffs[0]
    v = Poly.variable(spec, 1)
    f = Poly.variable(spec, 0) * Poly.constant(spec, a) + v * v
    g = Poly.variable(spec, 1) * Poly.constant(spec, b) + 1
    pt = [pa, pb]
    assert evaluate(f * g, pt) == evaluate(f, pt) * evaluate(g, pt)
    assert evaluate(f + g, pt) == evaluate(f, pt) + evaluate(g, pt)


# --- group-level properties over the corpus pool ---------------------------


def _corpus_pool(corpus):
    return [corpus[n] for n in sorted(corpus) if corpus[n].order() <= 60]


@DEFAULT
@given(st.data())
def test_generated_subgroup_contains_generator_orders(corpus, data):
    g = data.draw(st.sampled_from(_corpus_pool(corpus)))
    x = data.draw(st.sampled_from(g.elements))
    H = GroupHandle([x])
    assert H.order() == group_element_order(x)
    assert g.identity in H


@DEFAULT
@given(st.data())
def test_centralizer_contains_powers_and_centre(corpus, data):
    g = data.draw(st.sampled_from(_corpus_pool(corpus)))
    x = data.draw(st.sampled_from(g.elements))
    C = centralizer(g, x)
    assert set(GroupHandle([x]).elements) <= C.member_set
    assert center(g).member_set <= C.member_set


_QUOTIENT_CACHE = {}


@DEFAULT
@given(st.data())
def test_quotient_order_multiplicativity(corpus, data):
    g = data.draw(st.sampled_from(_corpus_pool(corpus)))
    x = data.draw(st.sampled_from(g.elements))
    key = (id(g), x)
    if key not in _QUOTIENT_CACHE:
        N = normal_closure(g, x)
        assert is_normal(g, N)
        _QUOTIENT_CACHE[key] = (quotient_group(g, N).order(), N.order())
    q_order, n_order = _QUOTIENT_CACHE[key]
    assert q_order * n_order == g.order()


GRAPH_NAMES = ["sym3", "sym4", "alt4", "d10", "d14", "s3xs3", "c5c4", "c7c3", "q8", "d08"]


_GRAPH_CACHE = {}


def _cached_graph(corpus, name):
    if name not in _GRAPH_CACHE:
        _GRAPH_CACHE[name] = build_graph(corpus[name])
    return _GRAPH_CACHE[name]


@DEFAULT
@given(st.data())
def test_path_closure_property(corpus, data):
    name = data.draw(st.sampled_from(GRAPH_NAMES))
    graph = _cached_graph(corpus, name)
    verts = list(graph.class_of)
    b = data.draw(st.sampled_from(verts))
    neighbours = [v for v in verts if v != b and v * b == b * v]
    if not neighbours:
        return
    a = data.draw(st.sampled_from(neighbours))
    c = data.draw(st.sampled_from(neighbours))
    n = data.draw(st.integers(1, 12))
    bn = b
    for _ in range(n - 1):
        bn = bn * b
    if bn.is_identity():
        return
    # a ~ b ~ c forces a ~ b^n ~ c whenever b^n != 1
    assert a * bn == bn * a
    assert c * bn == bn * c


@DEFAULT
@given(st.data())
def test_distance_symmetry(corpus, data):
    name = data.draw(st.sampled_from(["sym3", "s3xs3", "alt4"]))
    graph = _cached_graph(corpus, name)
    verts = list(graph.class_of)
    x = data.draw(st.sampled_from(verts))
    y = data.draw(st.sampled_from(verts))
    assert distance(graph, x, y).distance == distance(graph, y, x).distance

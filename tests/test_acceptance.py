"""Acceptance suite.

One test per criterion (criterion 4 is split into named sub-checks); each
prints a PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`
to see the lines as they happen.

Criteria 4f and 4i assert centralizer cardinalities that the construction
provably does not have (the one-parameter family C_F(c) ranges over the
whole field GF(q^r), so it has q^r = 161051 members rather than q = 11, and
|C_G(c)| follows suit); they are kept as stated and fail honestly.  Every
other criterion passes.
"""

import math
import random
import time

from oracles import naive_all_distances, naive_vertex_adjacency

from commgraph.classify import (
    KIND_FROBENIUS,
    KIND_TWO_FROBENIUS,
    classify_group,
)
from commgraph.diameter8 import (
    ParamTriple,
    centralizer_in_G,
    example_group_order,
    find_params,
    first_failing_check,
    fixed_points_in_F,
    run_all_checks,
    verify_f_class3,
    verify_family_separation,
    verify_symplectic,
    witness_path8,
)
from commgraph.errors import EmptyGraph
from commgraph.fields import field_create, frobenius_map
from commgraph.graph import build_graph, diameter_and_components, distance
from commgraph.groups import (
    center,
    is_normal,
    is_soluble,
    normal_closure,
    quotient_group,
)


def report(cid, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {cid} {name}: {status}{suffix}", flush=True)
    assert ok, f"criterion {cid} {name} {detail}"


def soluble_trivial_centre(corpus):
    return {
        name: g
        for name, g in corpus.items()
        if center(g).is_trivial() and is_soluble(g)
    }


# --- criterion 1 -----------------------------------------------------------


def test_criterion_1_dichotomy_suite(corpus):
    t0 = time.monotonic()
    pool = soluble_trivial_centre(corpus)
    ok = len(pool) >= 8 and all(g.order() <= 200 for g in pool.values())
    failures = []
    for name, g in sorted(pool.items()):
        verdict = classify_group(g)
        res = diameter_and_components(build_graph(g))
        disconnected = res["diameter"] == math.inf
        frob_like = verdict.kind in (KIND_FROBENIUS, KIND_TWO_FROBENIUS)
        if disconnected != frob_like:
            failures.append(f"{name}: equivalence")
        if not disconnected and not (verdict.diameter == res["diameter"] <= 8):
            failures.append(f"{name}: diameter {res['diameter']}")
    elapsed = time.monotonic() - t0
    report(
        1,
        "disconnection dichotomy suite",
        ok and not failures and elapsed < 30,
        f"{len(pool)} groups, {elapsed:.2f}s" + ("; " + "; ".join(failures) if failures else ""),
    )


# --- criterion 2 -----------------------------------------------------------


def test_criterion_2_sym4_alt4(corpus):
    t0 = time.monotonic()
    v4 = classify_group(corpus["sym4"])
    va = classify_group(corpus["alt4"])
    res4 = diameter_and_components(build_graph(corpus["sym4"]))
    resa = diameter_and_components(build_graph(corpus["alt4"]))
    elapsed = time.monotonic() - t0
    ok = (
        v4.kind == KIND_TWO_FROBENIUS
        and v4.K.order() == 4
        and v4.L.order() == 12
        and va.kind == KIND_FROBENIUS
        and va.kernel.order() == 4
        and res4["diameter"] == math.inf
        and resa["diameter"] == math.inf
        and len(resa["components"]) == 5
        and elapsed < 1
    )
    report(2, "Sym(4)/Alt(4) exact classification", ok, f"{elapsed:.2f}s")


# --- criterion 3 -----------------------------------------------------------


def test_criterion_3_quotient_bfs_equals_naive(corpus):
    t0 = time.monotonic()
    mismatches = 0
    for name, group in sorted(corpus.items()):
        try:
            graph = build_graph(group)
        except EmptyGraph:
            continue  # abelian corpus entries would have no graph (none bundled)
        vertices, adj = naive_vertex_adjacency(group)
        oracle = naive_all_distances(vertices, adj)
        for x in vertices:
            row = oracle[x]
            for y in vertices:
                got = distance(graph, x, y).distance
                want = row.get(y, math.inf)
                if got != want:
                    mismatches += 1
    elapsed = time.monotonic() - t0
    report(
        3,
        "quotient BFS equals naive BFS on all corpus pairs",
        mismatches == 0 and elapsed < 60,
        f"{len(corpus)} groups, {elapsed:.2f}s",
    )


# --- criterion 4 -----------------------------------------------------------


def test_criterion_4a_d_order(example_group):
    report(4, "(a) |D| = 80525", len(example_group.d_elements) == 80525)


def test_criterion_4b_x_orders(example_group):
    def order_of(e):
        n, acc = 1, e
        while not acc.is_identity():
            acc = acc * e
            n += 1
        return n

    report(
        4,
        "(b) x has order 25, x^r order 5",
        order_of(example_group.x) == 25 and order_of(example_group.xr) == 5,
    )


def test_criterion_4c_conjugation(example_group):
    eg = example_group
    acc = eg.c
    for _ in range(10):
        acc = acc * eg.c
    report(4, "(c) c^x = c^11", eg.x.inverse() * eg.c * eg.x == acc)


def test_criterion_4d_symplectic(example_group):
    report(4, "(d) z, c and generic F symplectic", verify_symplectic(example_group))


def test_criterion_4e_trivial_fixed_points(example_group):
    eg = example_group
    zr = eg.xr
    fz = fixed_points_in_F(eg, zr)
    fx = fixed_points_in_F(eg, eg.x)
    report(
        4,
        "(e) C_F(z^r) and C_F(x) trivial",
        fz.count == 1 and fx.count == 1,
    )


def test_criterion_4f_cfc_order(example_group):
    # stated expectation: |C_F(c)| = 11.  The computed family is
    # {I + a(E21 - E43) : a in GF(11^5)} whose parameter runs over the whole
    # field, so the honest count is 11^5 = 161051 and this check fails.
    fc = fixed_points_in_F(example_group, example_group.c)
    report(4, "(f) |C_F(c)| = 11", fc.count == 11, f"computed {fc.count}")


def test_criterion_4g_centralizer_x(example_group):
    eg = example_group
    rep = centralizer_in_G(eg, eg.x)
    x_powers = set(eg.ctx.powers(eg.x.d))
    report(
        4,
        "(g) C_G(x) = <x> of order 25",
        rep.order == 25 and set(rep.d_part) == x_powers,
    )


def test_criterion_4h_centralizer_xr(example_group):
    rep = centralizer_in_G(example_group, example_group.xr)
    report(
        4,
        "(h) C_G(x^r) = D",
        rep.d_part_order == 80525 and rep.f_part.count == 1 and rep.order == 80525,
    )


def test_criterion_4i_centralizer_c_order(example_group):
    # stated expectation: |C_G(c)| = 177155 = 5 * 3221 * 11.  The F-part has
    # order 161051 rather than 11 (see 4f), so the honest order is
    # 5 * 3221 * 161051 = 2593726355 and this check fails.
    rep = centralizer_in_G(example_group, example_group.c)
    report(4, "(i) C_G(c) of order 177155", rep.order == 177155, f"computed {rep.order}")


def test_criterion_4j_separation_certificate(example_group):
    rep = verify_family_separation(example_group)
    report(
        4,
        "(j) centralizer-family separation certificate",
        rep.entry == (3, 0),
        f"entry {rep.entry}: {rep.monomial}",
    )


def test_criterion_4k_path8(example_group):
    rep = witness_path8(example_group)
    edges_commute = all(
        a * b == b * a for a, b in zip(rep.elements, rep.elements[1:])
    )
    report(
        4,
        "(k) explicit 8-edge path verified",
        len(rep) == 8 and edges_commute and len(set(rep.elements)) == 9,
    )


def test_criterion_4l_group_order(example_group):
    total = example_group_order(example_group.params)
    report(
        4,
        "(l) group order exact",
        total == 54173193341944394740910525,
        str(total),
    )


def test_criterion_4m_runtime():
    t0 = time.monotonic()
    rep = run_all_checks(11, 5, 3221)
    elapsed = time.monotonic() - t0
    report(
        4,
        "(m) full verification suite under 120 s",
        first_failing_check(rep) is None and elapsed < 120,
        f"{elapsed:.2f}s",
    )


# --- criterion 5 -----------------------------------------------------------


def test_criterion_5_param_search():
    t0 = time.monotonic()
    eleven = find_params(11)
    seven = find_params(7)
    elapsed = time.monotonic() - t0
    ok = eleven == [ParamTriple(11, 5, 3221)] and seven == [] and elapsed < 5
    report(5, "parameter search", ok, f"{elapsed:.2f}s")


# --- criterion 6 -----------------------------------------------------------


def test_criterion_6_nilpotency_class(example_group):
    t0 = time.monotonic()
    rep = verify_f_class3(example_group)
    elapsed = time.monotonic() - t0
    report(
        6,
        "F has nilpotency class exactly 3 (symbolic)",
        rep.ok and elapsed < 60,
        f"{elapsed:.2f}s",
    )


# --- criterion 7 -----------------------------------------------------------


FIELDS = None


def _fields():
    global FIELDS
    if FIELDS is None:
        FIELDS = [
            field_create(3, 1),
            field_create(11, 1),
            field_create(2, 4),
            field_create(3, 3),
            field_create(11, 2),
        ]
    return FIELDS


def test_criterion_7a_field_axioms():
    rng = random.Random(20240501)
    failures = 0
    for _ in range(1000):
        spec = rng.choice(_fields())
        a = spec.element(tuple(rng.randrange(spec.p) for _ in range(spec.k)))
        b = spec.element(tuple(rng.randrange(spec.p) for _ in range(spec.k)))
        if a * b != b * a or a + b != b + a or a * (b + 1) != a * b + a:
            failures += 1
            continue
        if not a.is_zero() and a * a.inverse() != spec.one():
            failures += 1
    report(7, "(a) field axioms x1000", failures == 0)


def test_criterion_7b_frobenius_homomorphism():
    rng = random.Random(20240502)
    failures = 0
    for _ in range(1000):
        spec = rng.choice(_fields())
        a = spec.element(tuple(rng.randrange(spec.p) for _ in range(spec.k)))
        b = spec.element(tuple(rng.randrange(spec.p) for _ in range(spec.k)))
        if frobenius_map(a + b) != frobenius_map(a) + frobenius_map(b):
            failures += 1
            continue
        if frobenius_map(a * b) != frobenius_map(a) * frobenius_map(b):
            failures += 1
    report(7, "(b) Frobenius homomorphism x1000", failures == 0)


def test_criterion_7c_quotient_multiplicativity(corpus):
    rng = random.Random(20240503)
    pool = [g for g in corpus.values() if g.order() <= 60]
    cache = {}
    failures = 0
    for _ in range(1000):
        g = rng.choice(pool)
        x = rng.choice(g.elements)
        key = (id(g), x)
        if key not in cache:
            N = normal_closure(g, x)
            if not is_normal(g, N):
                failures += 1
                continue
            cache[key] = quotient_group(g, N).order() * N.order()
        if cache[key] != g.order():
            failures += 1
    report(7, "(c) quotient order multiplicativity x1000", failures == 0)


def test_criterion_7d_path_closure(corpus):
    rng = random.Random(20240504)
    names = ["sym3", "sym4", "alt4", "d10", "d14", "s3xs3", "c5c4", "c7c3", "q8"]
    graphs = {n: build_graph(corpus[n]) for n in names}
    checked = 0
    failures = 0
    while checked < 1000:
        graph = graphs[rng.choice(names)]
        verts = list(graph.class_of)
        b = rng.choice(verts)
        neighbours = [v for v in verts if v != b and v * b == b * v]
        if not neighbours:
            continue
        a = rng.choice(neighbours)
        c = rng.choice(neighbours)
        n = rng.randrange(1, 13)
        bn = b
        for _ in range(n - 1):
            bn = bn * b
        if bn.is_identity():
            continue
        checked += 1
        if a * bn != bn * a or c * bn != bn * c:
            failures += 1
    report(7, "(d) path-closure property x1000", failures == 0)

import itertools
import math
import random

import pytest
from oracles import (
    LogSpaceD,
    LogTables,
    FieldPoly,
    c_matrix,
    conjugate,
    cyclic_powers,
    d_matrix,
    entrywise_fixed_points_in_F,
    enumerated_fixed_set,
    evaluate,
    f_matrix,
    field_elements,
    from_matrix,
    g_matrix,
    group_element_order,
    intersected_count_with_relation,
    listed_centralizer_in_D,
    matrix_centralizer_in_G,
    matrix_commutator,
    matrix_commutator_chain,
    matrix_path8,
    matrix_separation_families,
    power_form_centralizer,
    power_form_mul,
    power_form_u_v,
    product_form_from_matrix,
    scanned_count_with_relation,
    trial_division_factorize,
    x_matrix,
    x_power,
)

from commgraph import diameter8
from commgraph.diameter8 import (
    ALL,
    FCoords,
    GElement,
    ParamTriple,
    _NormalForm,
    _diagonal_fixed_points,
    _f_commutator,
    _f_inv,
    _f_mul,
    _f_rows,
    _fixed_set,
    _separation_families,
    build_example,
    centralizer_in_G,
    example_group_order,
    find_params,
    first_failing_check,
    fixed_points_in_F,
    generic_f_coords,
    generic_f_matrix,
    run_all_checks,
    solved_fixed_points,
    validate_params,
    verify_d_structure,
    verify_f_class3,
    verify_family_separation,
    verify_not_frobenius_structure,
    verify_symplectic,
    witness_path8,
)
from commgraph.errors import (
    CapExceeded,
    NoSuchOrder,
    NoSuchParams,
    NotInD,
    NotNormalizing,
    PathBroken,
    SymbolicFailure,
)
from commgraph.fields import (
    FIELD_CAP,
    FieldElement,
    Poly,
    element_of_order,
    element_order,
    factorize,
    field_create,
    frobenius_map,
    is_prime,
)
from commgraph.groups import GroupHandle, MatrixAutElement
from commgraph.matrices import _diag, _mat_mul


def log_d_powers(log_d, e, n):
    out = [(0,) * 5]
    for _ in range(n - 1):
        out.append(log_d.mul(out[-1], e))
    return out


def expanded(ctx, description):
    """The normal forms (i, h) that a description of a subset of D stands for."""
    c_part = [h for _, h in ctx.powers(ctx.c)]
    return [(i, g) for i, h in description for g in (c_part if h is ALL else [h])]


def as_exponents(ctx, elements):
    """Normal forms (i, h) as exponent pairs (i, j) with h = f^j."""
    exponent = {h: j for j, (_, h) in enumerate(ctx.powers(ctx.c))}
    return [(i, exponent[h]) for i, h in elements]


@pytest.fixture(scope="module")
def log_tables(example_group):
    return LogTables(example_group.spec)


@pytest.fixture(scope="module")
def log_d(log_tables):
    return LogSpaceD(log_tables)


@pytest.fixture(scope="module")
def log_image(example_group, log_d, log_tables):
    """Map from the normal form (i, h) of x^i c_h to its log form."""
    x = log_d.from_matrix(g_matrix(example_group.x))
    xs = log_d_powers(log_d, x, example_group.ctx.order_x)
    n = log_d.n

    def image(e):
        lh = log_tables.log[e[1].coeffs]  # c_h = diag(h, h, h^-1, h^-1)
        return log_d.mul(xs[e[0]], (0, lh, lh, -lh % n, -lh % n))

    return image


@pytest.fixture(scope="module")
def log_closure(example_group, log_d):
    eg = example_group
    return log_d.closure([log_d.from_matrix(g_matrix(eg.x)), log_d.from_matrix(g_matrix(eg.c))])


# --- parameter search ------------------------------------------------------


def test_find_params_base_case():
    assert find_params(11) == [ParamTriple(11, 5, 3221)]


def test_find_params_small_q_empty():
    # q in {3, 5, 7}: q - 1 has no prime divisor >= 5
    assert find_params(7) == []
    assert find_params(3) == []


def test_find_params_q31():
    # oracle: (31^5 - 1)/30 = 954305 = 5 * 11 * 17351; least prime not dividing 30 is 11
    quotient = (31 ** 5 - 1) // 30
    assert quotient == 954305
    assert factorize(quotient) == {5: 1, 11: 1, 17351: 1}
    triples = find_params(31)
    assert ParamTriple(31, 5, 11) in triples
    assert triples[0] == ParamTriple(11, 5, 3221)


def test_find_params_q79(monkeypatch):
    from commgraph import params

    triples = find_params(79)
    assert [(p.q, p.r, p.t) for p in triples] == [
        (11, 5, 3221), (23, 11, 3937230404603), (29, 7, 88009573), (31, 5, 11),
        (41, 5, 579281), (43, 7, 5839), (47, 23, 6630274723), (53, 13, 3297113),
        (59, 29, 80986039), (61, 5, 131), (67, 11, 89), (71, 5, 11), (71, 7, 883),
        (79, 13, 8346157),
    ]
    for p in triples:
        quotient = (p.q ** p.r - 1) // (p.q - 1)
        assert is_prime(p.t) and quotient % p.t == 0 and (p.q - 1) % p.t != 0
    monkeypatch.setattr(params, "factorize", trial_division_factorize)
    assert find_params(43) == triples[:6]


def test_find_params_excludes_small_r():
    assert all(p.r >= 5 for p in find_params(31))


def test_param_invariants():
    # the rules validate_params enforces, and what they imply: ord(x), a
    # divisor of r(q - 1), is prime to ord(c), a divisor of t, so
    # |D| = ord(x) ord(c)
    triples = find_params(79)
    assert len(triples) == 14
    for p in triples:
        assert (p.q - 1) % p.r == 0 and (p.q - 1) % (p.r * p.r) != 0
        assert ((p.q ** p.r - 1) // (p.q - 1)) % p.t == 0
        assert (p.q - 1) % p.t != 0
        assert math.gcd(p.r * (p.q - 1), p.t) == 1


def test_validate_params_rejections():
    assert validate_params(11, 3, 7)  # r too small
    assert validate_params(13, 5, 7)  # 5 does not divide 12
    assert validate_params(11, 5, 5)  # t divides q-1
    assert not validate_params(11, 5, 3221)


def test_validate_params_quotient_rule_matches_full_quotient():
    # the residue of (q^r-1)/(q-1) mod t is taken from q^r mod t(q-1); the
    # full quotient decides the same rule wherever it is small enough to form;
    # each triple that passes every rule has r(q - 1) prime to t
    seen, valid = 0, 0
    for q in (p for p in range(11, 200, 2) if is_prime(p)):
        for r in (p for p in range(5, q) if is_prime(p) and (q - 1) % p == 0):
            if (q - 1) % (r * r) == 0:
                continue
            quotient = (q ** r - 1) // (q - 1)
            for t in (p for p in range(2, 120) if is_prime(p)):
                problems = validate_params(q, r, t)
                flagged = any("must divide (q^r-1)" in m for m in problems)
                assert flagged == (quotient % t != 0), (q, r, t)
                seen += not flagged
                if not problems:
                    valid += 1
                    assert math.gcd(r * (q - 1), t) == 1, (q, r, t)
    assert seen >= 5  # some triples pass the rule
    assert valid == 10


# --- construction ----------------------------------------------------------


def test_build_rejects_invalid_params():
    with pytest.raises(NoSuchParams):
        build_example(ParamTriple(11, 3, 7))


def test_build_enforces_field_cap():
    # (10061, 5, 41) is arithmetically valid but GF(10061^5) exceeds the
    # 2^50 field cap, beyond which the primitive-element scan runs away
    assert not validate_params(10061, 5, 41)
    with pytest.raises(CapExceeded):
        build_example(ParamTriple(10061, 5, 41))


def test_over_cap_triple_fails_at_build():
    report = run_all_checks(10061, 5, 41)
    assert first_failing_check(report) == "build"
    build = report["checks"][1]
    assert build["status"] == "fail"
    assert build["detail"] == "10061^5 exceeds field cap 1125899906842624"


def test_build_example_basics(example_group):
    eg = example_group
    assert len(eg.d_elements) == 80525  # r^2 * t
    n = eg.spec.size - 1
    assert element_order(eg.u, n) == 25 and element_order(eg.v, n) == 25
    assert element_order(eg.f, n) == 3221
    # the 4-set condition
    four = {(eg.u ** 5).coeffs, (eg.u ** -5).coeffs, (eg.v ** 5).coeffs, (eg.v ** -5).coeffs}
    assert len(four) == 4
    assert eg.f_order() == 11 ** 20  # formula only, F is never enumerated


def test_build_is_deterministic(example_group):
    again = build_example(ParamTriple(11, 5, 3221))
    assert again.u == example_group.u and again.v == example_group.v
    assert again.f == example_group.f
    assert again.d_elements == example_group.d_elements


def test_normal_form_checks_its_product_and_action(example_group, monkeypatch):
    # D is checked at construction against the twisted matrices: a z with
    # lam_0 lam_3 != lam_1 lam_2 does not normalize F, and a product or an
    # action whose twist runs the wrong way is refused
    eg = example_group
    u, v, _, u_inv = eg.z
    with pytest.raises(NotNormalizing, match="not the matrix conjugation"):
        _NormalForm(eg.spec, (u, v, v, u_inv), eg.f, eg.params.t)

    def backwards_mul(self, a, b):
        return ((a[0] + b[0]) % self.order_x, frobenius_map(a[1], -b[0]) * b[1])

    with monkeypatch.context() as mp:
        mp.setattr(_NormalForm, "mul", backwards_mul)
        with pytest.raises(NoSuchParams, match="x\\^\\{-1\\} c x != c\\^q"):
            _NormalForm(eg.spec, eg.z, eg.f, eg.params.t)
    real = diameter8._multipliers
    monkeypatch.setattr(diameter8, "_multipliers", lambda lam, twist: real(lam, -twist))
    with pytest.raises(NotNormalizing, match="not the matrix conjugation"):
        _NormalForm(eg.spec, eg.z, eg.f, eg.params.t)


@pytest.mark.parametrize("triple", ["example_group", "example_31"])
def test_u_v_match_the_power_form_choice(request, triple):
    # the running products of h pick the same canonical (u, v) as powers
    eg = request.getfixturevalue(triple)
    assert (eg.u, eg.v) == power_form_u_v(eg.spec, eg.params.r)


def test_u_v_by_congruence_match_the_pairwise_search():
    # u is the first candidate and v the first h^l with l != +-k_u mod r,
    # the pair the search over every pair of candidates, each a power of h,
    # picks at each triple of find_params(79) within the field cap; and
    # {u^r, u^-r, v^r, v^-r} has four elements.  For h of order r^2,
    # (h^k)^(+-r) = h^(+-k r mod r^2) depends only on +-k mod r, and for r
    # odd every pair of residues the congruence admits gives four exponents.
    for r in (p for p in range(5, 100) if is_prime(p)):
        n = r * r
        assert all(k * r % n == k % r * r for k in range(-n, n))
        for ku, kv in itertools.product(range(1, r), repeat=2):
            if (kv - ku) % r and (kv + ku) % r:
                assert len({k * r % n for k in (ku, -ku, kv, -kv)}) == 4, (r, ku, kv)
    triples = [p for p in find_params(79) if p.q ** p.r <= FIELD_CAP]
    assert len(triples) == 9
    assert ParamTriple(11, 5, 3221) in triples and ParamTriple(31, 5, 11) in triples
    for params in triples:
        eg = build_example(params)
        assert (eg.u, eg.v) == power_form_u_v(eg.spec, params.r), params
        four = {(e ** s).coeffs for e in (eg.u, eg.v) for s in (params.r, -params.r)}
        assert len(four) == 4, params


def test_x_orders(example_group):
    eg = example_group
    assert eg.ctx.diagonal(eg.x.d)[1] == 1
    assert g_matrix(eg.x) == x_matrix(eg)
    assert group_element_order(x_matrix(eg)) == eg.ctx.order_x == 25
    assert group_element_order(g_matrix(eg.xr)) == 5


@pytest.mark.parametrize("params", [
    ParamTriple(11, 5, 3221), ParamTriple(31, 5, 11), ParamTriple(43, 7, 5839),
    ParamTriple(23, 11, 3937230404603),
], ids=str)
def test_x_powers_match_the_oracle(params):
    # ord(x) = r * ord(x^r) and x^n = (x^r)^m x^j, against the powers of x
    # multiplied out until the identity returns
    eg = build_example(params)
    ctx = eg.ctx
    powers = cyclic_powers(x_matrix(eg))
    assert ctx.order_x == len(powers) == params.r * params.r
    assert [x_power(ctx, n) for n in range(ctx.order_x)] == powers
    assert x_power(ctx, -1) == powers[-1] and x_power(ctx, ctx.order_x) == powers[0]
    assert g_matrix(eg.xr) == powers[params.r]


def test_powers_stop_after_the_order_of_D(monkeypatch, example_31):
    # a law whose products never return to the identity ends in a named
    # error after |D| steps, not in a hang
    ctx = example_31.ctx
    monkeypatch.setattr(type(ctx), "mul", lambda self, a, b: (a[0] + b[0], a[1] * b[1]))
    with pytest.raises(NoSuchOrder):
        ctx.powers(ctx.x)


def test_z_generates_25_elements(example_group):
    spec = example_group.spec
    z = MatrixAutElement(spec, _diag(spec.zero(), example_group.z), 0)
    elems = GroupHandle([z], cap=100).elements
    assert len(elems) == 25


def test_group_order_formula():
    params = ParamTriple(11, 5, 3221)
    assert example_group_order(params) == 54173193341944394740910525
    assert example_group_order(params) == 11 ** 20 * 5 ** 2 * 3221


# --- symplectic relations --------------------------------------------------


def test_symplectic(example_group):
    assert verify_symplectic(example_group)


def test_fcoords_relation(example_group):
    spec = example_group.spec
    one, zero = spec.one(), spec.zero()
    with pytest.raises(ValueError):
        FCoords(a=one, b=zero, c=zero, d=zero, x=one)  # x*a != b - d
    mat = f_matrix(spec, FCoords(a=one, b=one, c=zero, d=zero, x=one))
    from commgraph.diameter8 import _form_matrix, _is_symplectic

    assert _is_symplectic(spec.zero(), _form_matrix(spec), mat.mat)


def test_numeric_times_symbolic_matches_lifted_product(example_group):
    # verify_symplectic and the separation families multiply numeric
    # matrices into symbolic ones without lifting them to constant Polys
    from commgraph.diameter8 import _form_matrix

    spec = example_group.spec
    zero = Poly.zero(spec, 4)
    generic = generic_f_matrix(spec, 4, 0)
    g = f_matrix(spec, example_group.g.f)
    for numeric in (g.mat, g.inverse().mat, _form_matrix(spec)):
        lifted = tuple(tuple(Poly.constant(spec, e, 4) for e in row) for row in numeric)
        assert _mat_mul(zero, numeric, generic) == _mat_mul(zero, lifted, generic)
        assert _mat_mul(zero, generic, numeric) == _mat_mul(zero, generic, lifted)


def _random_element(spec, rng):
    return spec.element([rng.randrange(spec.p) for _ in range(spec.k)])


def _evaluate(rows, point):
    return tuple(tuple(evaluate(e, point) for e in row) for row in rows)


def test_generic_f_matrix_evaluates_to_fcoords(example_group):
    spec = example_group.spec
    rng = random.Random(5)
    generic = generic_f_matrix(spec, 4, 0)
    for _ in range(4):
        a, x, d, c = (_random_element(spec, rng) for _ in range(4))
        expected = f_matrix(spec, FCoords(a, d + x * a, c, d, x)).mat
        assert _evaluate(generic, [a, x, d, c]) == expected


# --- structure of D --------------------------------------------------------


def test_d_structure(example_group):
    report = verify_d_structure(example_group)
    assert report["exponent_sum"] == 1 + 11 + 121 + 1331 + 14641 == 16105
    assert report["exponent_sum"] % 25 == 5
    assert report["xr_order"] == 5
    assert report["d_order"] == 80525
    assert report["centre_order"] == 5


def test_d_structure_exponent_identity(example_group):
    # u has order 25, so u^16105 = u^5 which has order 5
    eg = example_group
    assert eg.u ** 16105 == eg.u ** 5
    assert element_order(eg.u ** 16105, eg.spec.size - 1) == 5


def test_conjugation_of_c_by_x(example_group):
    # c^x = c^q, computed against the honest 11-fold product, in coordinates
    # and as matrices
    eg = example_group
    acc = eg.c
    for _ in range(10):
        acc = acc * eg.c
    assert eg.x.inverse() * eg.c * eg.x == acc
    assert acc != eg.c
    assert conjugate(g_matrix(eg.c), x_matrix(eg)) == g_matrix(acc)


def test_d_is_metacyclic_shape(example_group):
    # <c> is normal in D with cyclic quotient generated by x
    eg = example_group
    ctx = eg.ctx
    xc, cc = eg.x.d, eg.c.d
    c_powers = set(ctx.powers(cc))
    assert len(c_powers) == 3221
    xinv = eg.x.inverse().d
    conj = ctx.mul(ctx.mul(xinv, cc), xc)
    assert conj in c_powers


def test_normal_form_product_matches_matrices(example_group, log_d, log_image):
    eg = example_group
    ctx = eg.ctx
    rng = random.Random(3221)
    one, f = eg.spec.one(), eg.f
    sample = [(1, one), (0, f), (5, one)] + [
        (rng.randrange(ctx.order_x), f ** rng.randrange(ctx.order_c)) for _ in range(9)
    ]
    for a, b in zip(sample, sample[1:] + sample[:1]):
        assert d_matrix(ctx, ctx.mul(a, b)) == d_matrix(ctx, a) * d_matrix(ctx, b)
        assert d_matrix(ctx, ctx.inverse(a)) == d_matrix(ctx, a).inverse()
    for a in sample:
        mat = d_matrix(ctx, a)
        assert from_matrix(ctx, mat) == a
        assert log_d.from_matrix(mat) == log_image(a)
        lam, twist = ctx.diagonal(a)
        assert mat == MatrixAutElement(eg.spec, _diag(eg.spec.zero(), lam), twist)
    assert d_matrix(ctx, ctx.x) == x_matrix(eg) == g_matrix(eg.x)


def test_g_product_matches_the_matrix_product(example_31):
    # every element f d with d in D and f in {1, w, u, g}: its product with
    # a seeded partner and its inverse, against the matrices; equality and
    # hashing tell the 1100 elements apart, and only 1 is the identity
    eg = example_31
    spec, ctx = eg.spec, eg.ctx
    one, zero = spec.one(), spec.zero()
    fs = [(zero,) * 5, (one, zero, zero, zero, zero), (zero, zero, one, zero, zero), eg.g.f]
    elements = [GElement(f, d, ctx) for d in eg.d_elements for f in fs]
    matrices = [g_matrix(e) for e in elements]
    assert len(set(elements)) == len(set(matrices)) == 1100
    assert [e.is_identity() for e in elements] == [m.is_identity() for m in matrices]
    assert sum(e.is_identity() for e in elements) == 1
    rng = random.Random(31)
    for e, m in zip(elements, matrices):
        k = rng.randrange(len(elements))
        assert g_matrix(e * elements[k]) == m * matrices[k], (e, elements[k])
        assert g_matrix(e.inverse()) == m.inverse(), e


def test_normal_form_is_a_bijection_onto_log_space_closure(example_group, log_image, log_closure):
    images = {log_image(e) for e in example_group.d_elements}
    assert len(images) == len(example_group.d_elements) == example_group.ctx.order == 80525
    assert images == log_closure


def test_centralizers_in_D_match_log_space_scan(example_group, log_d, log_image, log_closure):
    eg = example_group
    ctx = eg.ctx
    brute = {}
    for name in ("x", "xr", "c"):
        w = log_d.from_matrix(g_matrix(getattr(eg, name)))
        brute[name] = {d for d in log_closure if log_d.mul(d, w) == log_d.mul(w, d)}
        described = ctx.centralizer(getattr(eg, name).d)
        got = expanded(ctx, described)
        assert ctx.count(described) == len(got) == len(brute[name])
        assert {log_image(e) for e in got} == brute[name]
    assert [len(brute[n]) for n in ("x", "xr", "c")] == [25, 80525, 16105]
    assert {log_image(e) for e in expanded(ctx, eg.d_centre)} == brute["x"] & brute["c"]


@pytest.fixture(scope="module")
def example_31():
    return build_example(ParamTriple(31, 5, 11))


@pytest.mark.parametrize("triple", ["example_group", "example_31"])
def test_centralizer_description_matches_listed_oracle(request, triple):
    eg = request.getfixturevalue(triple)
    ctx = eg.ctx
    q, t = eg.params.q, eg.params.t
    rng = random.Random(q * t)
    ws = [w.d for w in (eg.x, eg.xr, eg.c)] + [
        (rng.randrange(ctx.order_x), eg.f ** rng.randrange(t)) for _ in range(8)
    ]
    for w in ws:
        described = ctx.centralizer(w)
        got = as_exponents(ctx, expanded(ctx, described))
        (w_exp,) = as_exponents(ctx, [w])
        listed = listed_centralizer_in_D(q, ctx.order_x, t, w_exp)
        assert sorted(got) == sorted(listed)
        assert ctx.count(described) == len(listed)


@pytest.mark.parametrize("triple", ["example_group", "example_31"])
def test_normal_form_matches_power_forms(request, triple):
    # the product and C_D(w) by Frobenius against h^(q^k) and g^(q^i - 1)
    # as powers: on x, x^r, c and 20 seeded pairs
    eg = request.getfixturevalue(triple)
    ctx = eg.ctx
    rng = random.Random(20 * eg.params.t)
    witness = [w.d for w in (eg.x, eg.xr, eg.c)]
    seeded = [
        (rng.randrange(ctx.order_x), eg.f ** rng.randrange(ctx.order_c)) for _ in range(40)
    ]
    pairs = list(itertools.product(witness, repeat=2)) + list(zip(seeded[::2], seeded[1::2]))
    for a, b in pairs:
        assert ctx.mul(a, b) == power_form_mul(ctx, a, b), (a, b)
    for w in witness + seeded:
        assert ctx.centralizer(w) == power_form_centralizer(ctx, w, ALL), w


# --- fixed points and centralizers ----------------------------------------


def _closed_as_coeffs(spec, sols):
    return {e.coeffs for e in field_elements(spec)} if sols is ALL else {m.coeffs for m in sols}


def test_fixed_set_matches_enumeration_in_toy_field():
    spec = field_create(3, 5)
    tables = LogTables(spec)
    lines = 0
    for mu in field_elements(spec):
        if mu.is_zero():
            continue
        for twist in range(spec.k):
            closed = _fixed_set(spec, mu, twist)
            assert _closed_as_coeffs(spec, closed) == enumerated_fixed_set(tables, mu, twist)
            lines += closed is not ALL and len(closed) == spec.p
    assert lines == 4 * (spec.size - 1) // (spec.p - 1)  # N(mu) = 1, twist != 0


def test_fixed_set_matches_enumeration_on_witness_entries(example_group, log_tables):
    eg = example_group
    spec = eg.spec
    # the six entries of F below the diagonal, (3, 2) holding -a
    entries = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))
    for w in (eg.x, eg.xr, eg.c):
        lam, twist = eg.ctx.diagonal(w.d)
        for row, col in entries:
            mu = frobenius_map(lam[col] / lam[row], twist)
            closed = _fixed_set(spec, mu, twist)
            assert _closed_as_coeffs(spec, closed) == enumerated_fixed_set(log_tables, mu, twist)


def test_count_with_relation_matches_scan_in_gf9():
    # the entrywise oracle's counter against a scan: every mix of the whole
    # field, {0} and a GF(3)-line for a, x, b and d, with the whole field or
    # {0} for c
    spec = field_create(3, 2)
    everything = list(field_elements(spec))
    zero, root = spec.zero(), spec.element((0, 1))
    choices = [ALL, {zero}, {root * m for m in range(3)}]
    counted = refused = 0
    for s_a, s_x, s_b, s_d in itertools.product(choices, repeat=4):
        for s_c in (ALL, {zero}):
            sets = (s_a, s_x, s_b, s_d, s_c)
            if s_a is ALL and s_x is ALL:
                with pytest.raises(NotNormalizing):
                    intersected_count_with_relation(spec, *sets)
                refused += 1
                continue
            listed = [everything if s is ALL else s for s in sets]
            by_oracle = intersected_count_with_relation(spec, *sets)
            assert by_oracle == scanned_count_with_relation(*listed), sets
            counted += 1
    assert (counted, refused) == (144, 18)


def test_fixed_points_zr_trivial(example_group):
    eg = example_group
    report = fixed_points_in_F(eg, eg.xr)
    assert report.count == 1
    assert report.free_coords == []


def test_fixed_points_x_trivial(example_group):
    report = fixed_points_in_F(example_group, example_group.x)
    assert report.count == 1


def test_fixed_points_c_is_single_parameter_family(example_group):
    eg = example_group
    report = fixed_points_in_F(eg, eg.c)
    # the family {I + a(E21 - E43)}: a ranges over the whole field GF(11^5)
    assert report.free_coords == ["a"]
    assert report.count == eg.spec.size == 161051
    assert report.coord_sizes == {"a": 161051, "b": 1, "x": 1, "d": 1, "c": 1}


def test_fixed_points_c_family_commutes(example_group):
    # spot-check: members of the family do commute with c, and a generic
    # F element with b != 0 does not
    eg = example_group
    spec = eg.spec
    one, zero = spec.one(), spec.zero()
    for val in (one, spec.element((3, 1, 4, 1, 5))):
        m = GElement(FCoords(a=val, b=zero, c=zero, d=zero, x=zero), eg.ctx.identity(), eg.ctx)
        assert m * eg.c == eg.c * m
        assert g_matrix(m) * g_matrix(eg.c) == g_matrix(eg.c) * g_matrix(m)
    assert eg.g * eg.c != eg.c * eg.g
    assert g_matrix(eg.g) * g_matrix(eg.c) != g_matrix(eg.c) * g_matrix(eg.g)


def _diagonal(spec, entries, twist=0):
    return MatrixAutElement(spec, _diag(spec.zero(), entries), twist)


def test_fixed_points_rejects_non_normalizing(example_group):
    # g and g x lie outside D, and 1 fixes all of F; diag(1, 1, 1, 2) has
    # lam_0 lam_3 = 2 != 1 = lam_1 lam_2
    eg = example_group
    one = eg.spec.one()
    for w in (eg.g, eg.g * eg.x, eg.x * eg.x.inverse()):
        with pytest.raises(NotNormalizing):
            fixed_points_in_F(eg, w)
    with pytest.raises(NotNormalizing):
        _diagonal_fixed_points(eg.spec, [one, one, one, one + one], 0)


def test_fixed_points_of_minus_one_are_all_of_F(example_group):
    # -1 is central; the entrywise counter refused it, with a and x both free
    eg = example_group
    minus_one = [-eg.spec.one()] * 4
    report = _diagonal_fixed_points(eg.spec, minus_one, 0)
    assert report.count == eg.f_order() == 11 ** 20
    assert report.free_coords == ["a", "b", "x", "d", "c"]
    with pytest.raises(NotNormalizing):
        entrywise_fixed_points_in_F(eg, _diagonal(eg.spec, minus_one))


def test_fixed_points_match_the_entrywise_oracle_on_D(example_31):
    eg = example_31
    ctx = eg.ctx
    f_one = (eg.spec.zero(),) * 5
    elements = [GElement(f_one, e, ctx) for e in eg.d_elements if e != ctx.identity()]
    assert len(elements) == 274
    for w in elements:
        assert fixed_points_in_F(eg, w) == entrywise_fixed_points_in_F(eg, g_matrix(w)), w


@pytest.mark.parametrize("triple", ["example_31", "example_group"])
def test_fixed_points_match_the_entrywise_oracle_on_seeded_diagonals(request, triple):
    # symplectic diagonals diag(al, be, be^-1, al^-1) with a seeded twist;
    # al and be are +-1, z^(q-1) for a seeded z (norm 1, so that a twisted
    # multiplier can give a GF(q)-line) or z itself, so a, x, d and c take
    # the sizes 1, q and q^r in many combinations
    eg = request.getfixturevalue(triple)
    spec = eg.spec
    q, r = eg.params.q, eg.params.r
    one = spec.one()
    rng = random.Random(q * eg.params.t)

    def seeded():
        z = spec.element([rng.randrange(q) for _ in range(r)])
        return one if z.is_zero() else z

    draws = (lambda: one, lambda: -one, lambda: seeded() ** (q - 1), seeded)
    lines, seen = set(), set()
    checked = 0
    while checked < 120:
        al, be = rng.choice(draws)(), rng.choice(draws)()
        twist = rng.randrange(r)
        if twist == 0 and al == be and be * be == one:
            continue  # 1 and -1: C_F is all of F, which the oracle refuses
        lam = [al, be, be.inverse(), al.inverse()]
        report = _diagonal_fixed_points(spec, lam, twist)
        oracle = entrywise_fixed_points_in_F(eg, _diagonal(spec, lam, twist))
        assert report == oracle, (al, be, twist)
        lines.update(name for name, size in report.coord_sizes.items() if size == q)
        seen.update(report.coord_sizes.values())
        checked += 1
    assert {"a", "x", "d", "c"} <= lines
    assert seen == {1, q, q ** r}


def test_centralizer_of_x(example_group):
    eg = example_group
    rep = centralizer_in_G(eg, eg.x)
    assert rep.d_part_order == 25
    assert rep.f_part.count == 1
    assert rep.order == 25
    x_powers = set(eg.ctx.powers(eg.x.d))
    assert set(rep.d_part) == x_powers


def test_centralizer_of_xr_is_whole_D(example_group):
    eg = example_group
    rep = centralizer_in_G(eg, eg.xr)
    assert rep.d_part_order == 80525
    assert rep.f_part.count == 1
    assert rep.order == 80525


def test_centralizer_of_c(example_group, log_d, log_image):
    eg = example_group
    rep = centralizer_in_G(eg, eg.c)
    assert rep.d_part_order == 5 * 3221
    assert rep.f_part.count == 161051
    assert rep.order == 5 * 3221 * 161051 == 2593726355
    sub = log_d.closure([log_d.from_matrix(g_matrix(eg.c)), log_d.from_matrix(g_matrix(eg.xr))])
    assert {log_image(e) for e in expanded(eg.ctx, rep.d_part)} == sub


def test_from_matrix_matches_the_product_form(example_31):
    # the oracle's normal form read off the diagonals, against x^-i elem
    # tried by matrix products, on all of D and on elements of G outside it;
    # diag(h, h, h^-1, h^-1) lies in D only for h in <f>
    eg = example_31
    ctx = eg.ctx
    elements = [d_matrix(ctx, e) for e in eg.d_elements]
    assert len(elements) == 275
    assert [from_matrix(ctx, w) for w in elements] == eg.d_elements
    z = MatrixAutElement(eg.spec, _diag(eg.spec.zero(), eg.z), 0)
    primitive = element_of_order(eg.spec, eg.spec.size - 1)
    outside = [z, g_matrix(eg.g), g_matrix(eg.y), c_matrix(ctx, primitive)]
    for w in elements + outside:
        assert from_matrix(ctx, w) == product_form_from_matrix(ctx, w), w
    assert [from_matrix(ctx, w) for w in outside] == [None] * 4


def test_centralizer_in_G_matches_the_matrix_oracle_on_D(example_31):
    eg = example_31
    f_one = (eg.spec.zero(),) * 5
    elements = [GElement(f_one, e, eg.ctx) for e in eg.d_elements if e != eg.ctx.identity()]
    assert len(elements) == 274
    for w in elements:
        assert centralizer_in_G(eg, w) == matrix_centralizer_in_G(eg, g_matrix(w)), w


def test_centralizer_requires_membership(example_group):
    eg = example_group
    for w in (eg.g, eg.g * eg.x, eg.x * eg.x.inverse()):
        with pytest.raises(NotInD):
            centralizer_in_G(eg, w)


def test_centralizer_consistency_sampled(example_group):
    # brute-force cross-check of C_G(x) inside D * (sampled F elements)
    eg = example_group
    spec = eg.spec
    one, zero = spec.one(), spec.zero()
    samples = [
        FCoords(a=one, b=zero, c=zero, d=zero, x=zero),
        FCoords(a=zero, b=zero, c=zero, d=zero, x=one),
        FCoords(a=zero, b=zero, c=one, d=zero, x=zero),
        FCoords(a=one, b=one + one, c=one, d=one, x=one),
    ]
    x = x_matrix(eg)
    for coords in samples:
        f_elem = GElement(coords, eg.ctx.identity(), eg.ctx)
        assert f_elem * eg.x != eg.x * f_elem  # C_F(x) = 1, none of these commute
        fmat = f_matrix(spec, coords)
        assert fmat * x != x * fmat
    rep = centralizer_in_G(eg, eg.x)
    for compact in rep.d_part[:10]:
        d_elem = GElement((zero,) * 5, compact, eg.ctx)
        assert d_elem * eg.x == eg.x * d_elem
        assert d_matrix(eg.ctx, compact) * x == x * d_matrix(eg.ctx, compact)


# --- symbolic checks -------------------------------------------------------


def test_family_separation_certificate(example_group):
    report = verify_family_separation(example_group)
    assert report.entry == (3, 0)
    assert report.monomial == "2*a^1*b^1"


def test_first_separation_family_is_c_f_of_c(example_group):
    # at seeded points the first family is C_F(c), and the second its
    # conjugate by g, as matrices
    eg = example_group
    spec = eg.spec
    rng = random.Random(3)
    zero = spec.zero()
    w, w_star = _separation_families(spec, eg.g.f)
    g = f_matrix(spec, eg.g.f)
    for _ in range(4):
        a, b = _random_element(spec, rng), _random_element(spec, rng)
        assert tuple(evaluate(e, [a, b]) for e in w) == FCoords(a, zero, zero, zero, zero)
        family_b = conjugate(f_matrix(spec, FCoords(b, zero, zero, zero, zero)), g)
        assert f_matrix(spec, FCoords(*(evaluate(e, [a, b]) for e in w_star))) == family_b


def _coordinate_commutator_rows(spec, h):
    """The commutator of the separation families for the F element of
    coordinates h, taken in F's coordinates, as a matrix over the
    polynomials in (a, b)."""
    one, zero = Poly.constant(spec, 1, 2), Poly.zero(spec, 2)
    return _f_rows(one, zero, *_f_commutator(*_separation_families(spec, h)))


def test_family_commutator_matches_the_matrix_commutator_at_the_witness(example_group):
    spec, h = example_group.spec, example_group.g.f
    comm = _coordinate_commutator_rows(spec, h)
    assert comm == matrix_commutator(spec, *matrix_separation_families(spec, f_matrix(spec, h)))


@pytest.mark.parametrize("q", [11, 29, 31, 41, 43])
def test_family_commutator_is_2ab_at_one_entry(q):
    # g and both families have integer entries, so GF(q) gives the same
    # commutator as GF(q^r); the commutator in coordinates is the symbolic
    # matrix commutator a^-1 b^-1 a b
    spec = field_create(q, 1)
    zero, one = spec.zero(), spec.one()
    h = FCoords(a=zero, b=one, c=zero, d=one, x=one)
    comm = _coordinate_commutator_rows(spec, h)
    assert comm == matrix_commutator(spec, *matrix_separation_families(spec, f_matrix(spec, h)))
    ident = _diag(Poly.zero(spec, 2), [Poly.constant(spec, 1, 2)] * 4)
    two_ab = Poly.variable(spec, 0, 2) * Poly.variable(spec, 1, 2) * 2
    for i in range(4):
        for j in range(4):
            assert comm[i][j] - ident[i][j] == (two_ab if (i, j) == (3, 0) else 0)


def test_family_separation_without_certificate_fails(monkeypatch, example_group):
    monkeypatch.setattr(Poly, "monomial_certificate", lambda self: None)
    with pytest.raises(SymbolicFailure):
        verify_family_separation(example_group)
    monkeypatch.setattr(diameter8, "build_example", lambda params: example_group)
    report = run_all_checks()
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses.pop("family_separation") == "fail"
    assert set(statuses.values()) == {"pass"}


@pytest.mark.parametrize("x_coord, entry", [(0, (3, 0)), (3, (2, 1))])
def test_family_separation_takes_the_first_entry_in_both_families(
        monkeypatch, example_group, x_coord, entry):
    # a commutator (a^2, 0, 2ab, 0, x): a^2 at (1, 0) vanishes only at a = 0
    # but says nothing of b, so it is passed over; the certificate is the
    # first entry in row order that is a monomial in both a and b, the 2ab
    # at (3, 0) unless x = 3ab at (2, 1) comes first
    spec = example_group.spec
    a, b = (Poly.variable(spec, i, 2) for i in range(2))
    zero = Poly.zero(spec, 2)
    comm = (a * a, zero, a * b * 2, zero, a * b * x_coord)
    monkeypatch.setattr(diameter8, "_f_commutator", lambda g, h: comm)
    report = verify_family_separation(example_group)
    assert (report.entry, report.monomial) == (entry, f"{x_coord or 2}*a^1*b^1")


def test_family_separation_numeric_spot_checks(example_group):
    eg = example_group
    spec, ctx = eg.spec, eg.ctx
    one, zero = spec.one(), spec.zero()

    def m_a(val):
        return GElement(FCoords(a=val, b=zero, c=zero, d=zero, x=zero), ctx.identity(), ctx)

    g, gi = eg.g, eg.g.inverse()
    # a = 0: the commutator degenerates to the identity
    w0 = m_a(zero)
    h = gi * m_a(one) * g
    assert (w0.inverse() * h.inverse() * w0 * h).is_identity()
    # a = b = 1: commutator is not the identity
    w1 = m_a(one)
    comm = w1.inverse() * h.inverse() * w1 * h
    assert not comm.is_identity()
    # and matches the certificate entry 2ab at position (4, 1), the c-coordinate
    assert comm.f == (zero, zero, spec.element(2), zero, zero)
    assert g_matrix(comm).mat[3][0] == spec.element(2)


def test_witness_path8(example_group):
    report = witness_path8(example_group)
    assert len(report) == 8
    assert len(report.elements) == 9
    assert report.elements[0] == example_group.x
    assert report.elements[-1] == example_group.y
    assert not any(e.is_identity() for e in report.elements)
    for a, b in zip(report.elements, report.elements[1:]):
        assert a * b == b * a


@pytest.mark.parametrize("triple", ["example_group", "example_31"])
def test_path_matches_the_matrix_path(request, triple):
    # the nine path elements in coordinates are the matrices of the path
    # walked by matrix products, whose eight edges commute as matrices
    eg = request.getfixturevalue(triple)
    report = witness_path8(eg)
    assert [g_matrix(e) for e in report.elements] == matrix_path8(eg)


def test_path8_names_a_broken_edge_an_identity_or_a_repeated_element(example_group):
    # x^r replaced by x breaks the edge from it to c.  c replaced by 1, and
    # x replaced by x^r (which makes the first two vertices equal, and
    # y = (x^r)^g the last two), keep every edge commuting, so the failing
    # clause names no edge
    eg = example_group
    with pytest.raises(PathBroken, match=r"^edge 1: x\^r and c do not commute$"):
        witness_path8(eg._replace(xr=eg.x))
    with pytest.raises(PathBroken, match=r"^edge -1: identity appears on the path$"):
        witness_path8(eg._replace(c=eg.x * eg.x.inverse()))
    with pytest.raises(PathBroken, match=r"^edge -1: path elements are not distinct$"):
        witness_path8(eg._replace(x=eg.xr))


def test_path_edges_satisfy_graph_adjacency_rule(example_group):
    # the commgraph adjacency predicate: distinct commuting elements
    report = witness_path8(example_group)
    for a, b in zip(report.elements, report.elements[1:]):
        assert a != b and a * b == b * a


def test_center_of_F(example_group):
    # Z(F) is the c-line, of order q^r, read off the commutator [g, h] of
    # generic g = (a, b, c, d, x) and h = (a', b', c', d', x') in coordinates
    spec = example_group.spec
    a, x, d, c, a_, x_ = (Poly.variable(spec, i, 8) for i in range(6))
    zero = Poly.zero(spec, 8)
    h = generic_f_coords(spec, 8, 4)
    comm = _f_commutator(generic_f_coords(spec, 8, 0), h)
    # g's c occurs in no coordinate, so the c-line is central
    assert not any(exps[3] for coord in comm for exps in coord.terms)
    # the b-coordinate is x a' - a x', so a central g has a = x = 0 ...
    assert comm[1] == x * a_ - a * x_
    # ... and then [g, h] = (0, 0, 2 d a', 0, 0), so d = 0 as well
    assert _f_commutator((zero, d, c, d, zero), h) == (zero, zero, 2 * d * a_, zero, zero)
    assert spec.size == 11 ** 5 == 161051


def test_center_of_F_numeric_oracle(example_group):
    # elements with only the c-coordinate commute with random F elements
    import random

    eg = example_group
    spec = eg.spec
    rng = random.Random(11)

    def rand_elem():
        pick = lambda: spec.element(tuple(rng.randrange(11) for _ in range(5)))
        a, x, d, c = pick(), pick(), pick(), pick()
        return f_matrix(spec, FCoords(a, d + x * a, c, d, x))

    zero = spec.zero()
    central = f_matrix(spec, FCoords(zero, zero, spec.element((1, 2, 3, 0, 7)), zero, zero))
    witnesses = [rand_elem() for _ in range(8)]
    assert all(central * m == m * central for m in witnesses)
    off_centre = f_matrix(spec, FCoords(spec.one(), zero, zero, zero, zero))
    assert any(off_centre * m != m * off_centre for m in witnesses)


def test_f_has_class_exactly_3(example_group):
    report = verify_f_class3(example_group)
    assert report.derived_nontrivial
    assert report.triple_nontrivial
    assert report.quadruple_trivial
    assert report.ok


def test_f_group_law_matches_matrix_commutator_chain(example_group):
    # the commutators in F's coordinates are the entries of the commutators
    # of generic matrices, each a^-1 b^-1 a b by symbolic matrix products
    spec = example_group.spec
    nvars = 16
    one, zero = Poly.constant(spec, 1, nvars), Poly.zero(spec, nvars)
    gs = [generic_f_coords(spec, nvars, 4 * i) for i in range(4)]
    coords = [_f_commutator(gs[0], gs[1])]
    for g in gs[2:]:
        coords.append(_f_commutator(coords[-1], g))
    chain = matrix_commutator_chain(spec, nvars)
    for level, matrix in zip(coords, chain):
        assert _f_rows(one, zero, *level) == matrix
    ident = _diag(zero, [one] * 4)
    report = verify_f_class3(example_group)
    assert (report.derived_nontrivial, report.triple_nontrivial, report.quadruple_trivial) == (
        chain[0] != ident, chain[1] != ident, chain[2] == ident,
    )


def test_law_and_class3_take_independent_generic_elements(monkeypatch, example_group):
    # a polynomial identity checked on shared variables is checked only on a
    # specialization: the law's two factors, and the elements that
    # [[[g0, g1], g2], g3] = 1 commutes in turn, each have variables of
    # their own
    spec = example_group.spec
    seen = {"_f_mul": [], "_f_commutator": []}

    def recording(name):
        real = getattr(diameter8, name)

        def recorded(g, h):
            seen[name].append((g, h))
            return real(g, h)
        return recorded

    for name in seen:
        monkeypatch.setattr(diameter8, name, recording(name))
    diameter8._check_f_law(spec)
    assert seen["_f_mul"] == [(generic_f_coords(spec, 8, 0), generic_f_coords(spec, 8, 4))]
    assert verify_f_class3(example_group).ok
    assert [h for _, h in seen["_f_commutator"]] == [
        generic_f_coords(spec, 16, 4 * i) for i in (1, 2, 3)
    ]


def _law_without_a1b2(g, h):
    a1, b1, c1, d1, x1 = g
    a2, b2, c2, d2, x2 = h
    return (a1 + a2, b1 + b2 + x1 * a2, c1 + c2 + d1 * a2, d1 + d2 - a1 * x2, x1 + x2)


def _inverse_without_a2x(g):
    a, b, c, d, x = g
    return (-a, x * a - b, a * d - a * b - c, -d - x * a, -x)


@pytest.mark.parametrize("name, mutant", [
    ("_f_mul", _law_without_a1b2), ("_f_inv", _inverse_without_a2x),
])
def test_f_class3_rejects_a_wrong_group_law(monkeypatch, example_group, name, mutant):
    # both checks that take commutators in F's coordinates read the one law
    # check, so both fail; the copies keep no law check cached
    monkeypatch.setattr(diameter8, name, mutant)
    with pytest.raises(SymbolicFailure):
        verify_f_class3(example_group._replace())
    with pytest.raises(SymbolicFailure):
        verify_family_separation(example_group._replace())
    monkeypatch.setattr(diameter8, "build_example", lambda params: example_group._replace())
    statuses = {c["name"]: c["status"] for c in run_all_checks()["checks"]}
    assert statuses.pop("f_class3") == statuses.pop("family_separation") == "fail"
    assert set(statuses.values()) == {"pass"}


def _symbolic_objects(spec):
    """Every polynomial object of paper-verify's symbolic checks over spec,
    built with whatever `diameter8.Poly` is: the generic F matrices, both
    sides of the product and the inverse product that `_check_f_law`
    compares, the class-3 commutator chain and the separation commutator."""
    P = diameter8.Poly
    one, zero = P.constant(spec, 1, 8), P.zero(spec, 8)
    g, h = generic_f_coords(spec, 8, 0), generic_f_coords(spec, 8, 4)
    m1, m2 = generic_f_matrix(spec, 8, 0), generic_f_matrix(spec, 8, 4)
    gs = [generic_f_coords(spec, 16, 4 * i) for i in range(4)]
    chain = [_f_commutator(gs[0], gs[1])]
    for k in gs[2:]:
        chain.append(_f_commutator(chain[-1], k))
    zero_f, one_f = spec.zero(), spec.one()
    witness_g = FCoords(a=zero_f, b=one_f, c=zero_f, d=one_f, x=one_f)
    return {
        "generic": (m1, m2),
        "law product": (_f_rows(one, zero, *_f_mul(g, h)), _mat_mul(zero, m1, m2)),
        "law inverse": _mat_mul(zero, m1, _f_rows(one, zero, *_f_inv(g))),
        "class-3 chain": chain,
        "separation": _f_commutator(*_separation_families(spec, witness_g)),
    }


def _leaves(obj):
    if isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _leaves(item)
    else:
        yield obj


@pytest.mark.parametrize("p, k", [(11, 1), (23, 1), (29, 1), (31, 1), (41, 1), (43, 1), (11, 5)])
def test_symbolic_objects_match_the_field_coefficient_oracle(monkeypatch, p, k):
    # Poly's int coefficients against FieldPoly's elements of GF(p^k), term
    # by term, on every object the symbolic checks build
    spec = field_create(p, k)
    ours = _symbolic_objects(spec)
    monkeypatch.setattr(diameter8, "Poly", FieldPoly)
    theirs = _symbolic_objects(spec)
    assert ours.keys() == theirs.keys()
    for name in ours:
        pairs = list(itertools.zip_longest(_leaves(ours[name]), _leaves(theirs[name])))
        assert pairs, name
        for mine, ref in pairs:
            assert type(mine) is Poly and type(ref) is FieldPoly, name
            assert all(type(c) is int and 0 < c < p for c in mine.terms.values())
            assert all(c.spec == spec and not any(c.coeffs[1:]) for c in ref.terms.values())
            assert mine.terms == {e: c.coeffs[0] for e, c in ref.terms.items()}, name


def test_symbolic_checks_make_no_field_element_operation(monkeypatch, example_group):
    # F's coordinate law and class 3 are polynomial identities over GF(p):
    # their coefficients are ints, so no FieldElement is built or combined
    from commgraph import fields

    eg = example_group._replace()  # the copy keeps no law check cached
    calls = []

    def counting(name, real):
        def counted(*args):
            calls.append(name)
            return real(*args)
        return counted

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
                 "__truediv__", "__pow__", "__eq__", "inverse", "is_zero"):
        monkeypatch.setattr(FieldElement, name, counting(name, getattr(FieldElement, name)))
    monkeypatch.setattr(fields, "_element", counting("_element", fields._element))
    diameter8._check_f_law(eg.spec)
    assert verify_f_class3(eg).ok
    assert calls == []


def test_not_frobenius_structure(example_group):
    assert verify_not_frobenius_structure(example_group)


# --- the driver ------------------------------------------------------------


def test_run_all_checks_passes():
    report = run_all_checks(11, 5, 3221)
    assert first_failing_check(report) is None
    assert report["group_order"] == "54173193341944394740910525"
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "params", "build", "symplectic", "d_structure", "fixed_points",
        "centralizers", "family_separation", "path8", "f_class3", "group_order",
        "not_frobenius",
    ]


@pytest.mark.parametrize("params", find_params(43), ids=str)
def test_run_all_checks_passes_on_every_listed_triple(params):
    report = run_all_checks(params.q, params.r, params.t)
    assert [c["name"] for c in report["checks"] if c["status"] != "pass"] == []
    assert len(report["checks"]) == 11
    assert report["group_order"] == str(example_group_order(params))


def test_each_example_solves_each_fixed_point_set_once(monkeypatch):
    # two examples in one process: each keeps its own C_F(w) reports, and
    # run_all_checks solves C_F(w) once per element it asks about
    solved = []
    real = diameter8.fixed_points_in_F

    def counted(eg, w):
        solved.append((eg.params, w))
        return real(eg, w)

    monkeypatch.setattr(diameter8, "fixed_points_in_F", counted)
    examples = [build_example(ParamTriple(11, 5, 3221)), build_example(ParamTriple(31, 5, 11))]
    for eg in examples:
        for w in (eg.xr, eg.x, eg.c, eg.c):
            assert solved_fixed_points(eg, w) == real(eg, w)
        assert set(eg.f_fixed_points) == {eg.xr, eg.x, eg.c}
        assert eg.f_fixed_points[eg.c].count == eg.spec.size
    assert examples[0].f_fixed_points is not examples[1].f_fixed_points
    assert solved == [(eg.params, w) for eg in examples for w in (eg.xr, eg.x, eg.c)]

    built = []
    real_build = diameter8.build_example

    def recorded(params):
        built.append(real_build(params))
        return built[-1]

    monkeypatch.setattr(diameter8, "build_example", recorded)
    solved.clear()
    for q, r, t in ((11, 5, 3221), (31, 5, 11)):
        assert first_failing_check(run_all_checks(q, r, t)) is None
    assert [len(eg.f_fixed_points) for eg in built] == [3, 3]
    assert solved == [(eg.params, w) for eg in built for w in (eg.xr, eg.x, eg.c)]


def test_run_all_checks_product_budget(monkeypatch):
    # polynomial products of the whole suite at (11, 5, 3221): norms and
    # powers of q through Frobenius, F's commutators in coordinates, each
    # C_F(w) solved once, factors in GF(p) as scalars and Frob^i as Frob
    # after Frob^(i-1) took them from 3050 to 398; the family separation in
    # F's coordinates and the order of x read off x^r, to 334; one solution
    # set per coordinate of F, and each relation of D checked once, to 320;
    # Rabin's test on the Frobenius matrix, and normal forms read off the
    # diagonals with h^t tested only on a match, to 294; element orders
    # from known multiples (r^2, t, q - 1), not from q^r - 1, to 241; norms
    # by doubling, to 222; a norm only for each scanned candidate of
    # element_of_order whose first nonzero coefficient is 1, to 195; the
    # group held in coordinates, to 193, and D's product and action checked
    # once against the twisted matrices, 58 more, to 251.  Matrix products:
    # the 6 of that check (c x x, and both sides of m a = a m' for a = x and
    # a = c x x), since every other element of G is a pair of coordinates
    # and a normal form (the path's conjugates and commuting tests took 28
    # as matrices).  F's law is checked once.
    from commgraph import fields

    counts = {"poly": 0, "matrix": 0, "law": 0}

    def counting(key, real):
        def counted(*args):
            counts[key] += 1
            return real(*args)
        return counted

    monkeypatch.setattr(fields, "_polmulmod", counting("poly", fields._polmulmod))
    monkeypatch.setattr(MatrixAutElement, "__mul__", counting("matrix", MatrixAutElement.__mul__))
    monkeypatch.setattr(diameter8, "_check_f_law", counting("law", diameter8._check_f_law))
    assert first_failing_check(run_all_checks()) is None
    assert counts["poly"] == 251
    assert counts["matrix"] == 6
    assert counts["law"] == 1


def test_witness_never_factors_q_to_the_r_minus_1(monkeypatch):
    # every element order comes from a known multiple: r^2 and t for the
    # elements chosen, t and q - 1 for ord(c) and ord(x^r), and Rabin's test
    # factors r; so each number factored divides r^2 t (q - 1).  q^r - 1
    # does not, except at (11, 5, 3221), where 11^5 - 1 = 2 * 5^2 * 3221, so
    # it is also ruled out by name.  At the default triple and the golden
    # ones within the field cap.
    import sys
    from pathlib import Path

    from commgraph import primes

    seen = []
    real = primes.factorize

    def recording(n):
        seen.append(n)
        return real(n)

    for name, module in list(sys.modules.items()):
        if name.startswith("commgraph") and getattr(module, "factorize", None) is real:
            monkeypatch.setattr(module, "factorize", recording)
    golden = Path(__file__).resolve().parent / "golden"
    triples = {(11, 5, 3221)} | {
        (q, r, t) for q, r, t in (
            tuple(int(v) for v in path.stem.split("_")[2:])
            for path in golden.glob("paper_verify_*.json")
        ) if q ** r <= FIELD_CAP
    }
    assert len(triples) == 9
    for q, r, t in sorted(triples):
        seen.clear()
        assert first_failing_check(run_all_checks(q, r, t)) is None
        assert seen and all(r * r * t * (q - 1) % n == 0 for n in seen), (q, r, t, seen)
        assert q ** r - 1 not in seen


def test_run_all_checks_rejects_bad_params():
    report = run_all_checks(11, 3, 7)
    assert first_failing_check(report) == "params"
    report = run_all_checks(13, 5, 7)
    assert first_failing_check(report) == "params"

import itertools
import json
import math
import operator

import pytest

from oracles import (
    conjugate_product_norm,
    divides,
    evaluate,
    field_elements,
    monic_polynomials,
    norm_per_candidate_element_of_order,
    power_scan_primitive_element,
    powering_is_irreducible,
    repeated_frobenius,
    repeated_order,
    repeated_power,
    trial_division_factorize,
    trial_division_is_irreducible,
    trial_division_is_prime,
    unfiltered_least_irreducible,
)

from commgraph.corpus import load_group_file
from commgraph.errors import (
    CapExceeded,
    DivisionByZero,
    FactorBudgetExceeded,
    NoSuchOrder,
    NotPrime,
    SpecMismatch,
    ZeroElement,
)
from commgraph.fields import (
    FIELD_CAP,
    FieldSpec,
    Poly,
    element_of_order,
    element_order,
    factorize,
    field_create,
    frobenius_map,
    is_prime,
    least_irreducible,
    norm,
)
from commgraph.fields import _is_irreducible, _polinvmod, _polmulmod
from commgraph.params import find_params
from test_properties import FIELD_POOL


def test_field_sizes(gf115):
    assert gf115.size == 161051  # 11^5
    gf2 = field_create(2, 1)
    assert gf2.size == 2
    assert gf2.modulus == (0, 1)  # the identity choice for k = 1


def test_least_irreducible_matches_unfiltered_search():
    # every (p, k) with p^k <= 5000: the root pre-filter keeps the same modulus
    cases = [
        (p, k) for p in range(2, 5001) if is_prime(p)
        for k in range(1, 13) if p ** k <= 5000
    ]
    assert len(cases) == 711
    for p, k in cases:
        assert least_irreducible(p, k) == unfiltered_least_irreducible(p, k, _is_irreducible), (p, k)


# every monic polynomial of degree 2-8 over GF(2), 2-6 over GF(3), 2-4 over
# GF(5) and 2-3 over GF(7), reducible or not
IRREDUCIBILITY_POOL = [
    (p, f) for p, top in ((2, 8), (3, 6), (5, 4), (7, 3))
    for k in range(2, top + 1) for f in monic_polynomials(p, k)
]


def test_is_irreducible_matches_trial_division():
    assert len(IRREDUCIBILITY_POOL) == 2764
    for p, f in IRREDUCIBILITY_POOL:
        assert _is_irreducible(f, p) == trial_division_is_irreducible(f, p), (p, f)
    # degree 1 is irreducible, a constant is not
    assert _is_irreducible([0, 1], 2) and _is_irreducible([3, 1], 5)
    assert not _is_irreducible([1], 3)


@pytest.mark.parametrize("p, k", [(11, 5), (23, 11), (29, 7), (31, 5), (41, 5), (43, 7)])
def test_least_irreducible_matches_the_powering_test(p, k):
    # the fields of the six search-params --q-max 43 triples: every candidate
    # before the modulus fails the powering test, with no root pre-filter; a
    # candidate with constant term 0 has the factor X, so the scan starts at 1
    found = list(least_irreducible(p, k))
    for coeffs in itertools.product(range(1, p), *[range(p)] * (k - 1)):
        cand = [*coeffs, 1]
        if cand == found:
            break
        assert not powering_is_irreducible(cand, p), cand
    assert powering_is_irreducible(found, p)


# the moduli of the fields of the 14 search-params --q-max 79 triples, as
# found with the powering test, as {degree: coefficient}
LISTED_MODULI = {
    (11, 5): {0: 1, 4: 2, 5: 1},
    (23, 11): {0: 1, 9: 1, 10: 22, 11: 1},
    (29, 7): {0: 1, 6: 2, 7: 1},
    (31, 5): {0: 1, 4: 3, 5: 1},
    (41, 5): {0: 1, 4: 2, 5: 1},
    (43, 7): {0: 1, 5: 1, 6: 2, 7: 1},
    (47, 23): {0: 1, 21: 1, 23: 1},
    (53, 13): {0: 1, 12: 1, 13: 1},
    (59, 29): {0: 1, 27: 2, 28: 22, 29: 1},
    (61, 5): {0: 1, 4: 5, 5: 1},
    (67, 11): {0: 1, 10: 7, 11: 1},
    (71, 5): {0: 1, 4: 6, 5: 1},
    (71, 7): {0: 1, 6: 1, 7: 1},
    (79, 13): {0: 1, 11: 1, 12: 11, 13: 1},
}


def test_least_irreducible_of_the_listed_triples():
    for (p, k), terms in LISTED_MODULI.items():
        assert least_irreducible(p, k) == tuple(terms.get(i, 0) for i in range(k + 1)), (p, k)


def test_polinvmod_inverts_exactly_the_residues_prime_to_the_modulus():
    # every residue a modulo every monic f of degree 2-4 over GF(2), 2-3 over
    # GF(3) and 2 over GF(5), reducible f included: an inverse, checked by a
    # product, exactly when no monic divisor of f of degree >= 1 divides a
    for p, top in ((2, 4), (3, 3), (5, 2)):
        for k in range(2, top + 1):
            one = [1] + [0] * (k - 1)
            for f in monic_polynomials(p, k):
                factors = [g for d in range(1, k + 1) for g in monic_polynomials(p, d)
                           if divides(g, f, p)]
                for a in itertools.product(range(p), repeat=k):
                    inv = _polinvmod(a, f, p)
                    coprime = not any(divides(g, a, p) for g in factors)
                    assert (inv is not None) == coprime, (p, f, a)
                    assert inv is None or _polmulmod(list(a), inv, f, p) == one, (p, f, a)
    # zero, and a residue sharing the factor X + 1 with X^2 - 1 over GF(3)
    assert _polinvmod([0, 0], [2, 0, 1], 3) is None
    assert _polinvmod([1, 1], [2, 0, 1], 3) is None
    assert _polinvmod([1, 2], [2, 0, 1], 3) is None  # X - 1 divides X^2 - 1 too


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == trial_division_is_prime(n) for n in range(10 ** 5))


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the primes up to 23
    assert 3215031751 == 151 * 751 * 28351
    assert 3825123056546413051 == 149491 * 747451 * 34233211
    assert not is_prime(3215031751) and not is_prime(3825123056546413051)
    assert is_prime(2 ** 61 - 1) and is_prime(10000000000000061)


# The quotients (q^r - 1)/(q - 1) that `search-params --q-max 43` factors.
SEARCH_43_QUOTIENTS = [
    (q ** r - 1) // (q - 1)
    for q, r in ((11, 5), (23, 11), (29, 7), (31, 5), (41, 5), (43, 7))
]
# Two Mersenne primes: trial division cannot reach this product, rho splits it.
MERSENNE_SEMIPRIME = (2 ** 31 - 1) * (2 ** 61 - 1)


def test_factorize_matches_trial_division():
    # items() compares the key order too, which must be ascending
    cases = [
        *range(1, 10 ** 5),
        1000003 ** 2, 7 * 1000003 ** 3, 999983 * 1000003, 561 * 1105 * 1729,
        *SEARCH_43_QUOTIENTS,
        # a batch gcd of m: the backtrack splits it, fails and the next c
        # splits it, or fails for c = 1 and 2 before c = 3 does
        139267 * 155833, 9473 * 141161, 1019 ** 2, 1249 ** 2, 5449 ** 2,
    ]
    for n in cases:
        assert list(factorize(n).items()) == list(trial_division_factorize(n).items()), n


def test_factorize_beyond_trial_division():
    cases = [MERSENNE_SEMIPRIME, 23 ** 11 - 1, 10 ** 16 + 60, (79 ** 13 - 1) // 78]
    for n in cases:
        factors = factorize(n)
        assert math.prod(p ** e for p, e in factors.items()) == n
        assert all(is_prime(p) for p in factors)
        assert list(factors) == sorted(factors)
    assert factorize(MERSENNE_SEMIPRIME) == {2 ** 31 - 1: 1, 2 ** 61 - 1: 1}


def test_factorize_rejects_non_positive():
    for n in (0, -12):
        with pytest.raises(ValueError):
            factorize(n)


def test_factorize_budget(monkeypatch):
    from commgraph import primes

    monkeypatch.setattr(primes, "RHO_BUDGET", 1000)  # the split takes about 46 000 steps
    with pytest.raises(FactorBudgetExceeded) as info:
        factorize(MERSENNE_SEMIPRIME)
    assert isinstance(info.value, CapExceeded)
    assert factorize(23 ** 11 - 1) == {2: 1, 11: 2, 3937230404603: 1}  # no rho step


def test_factorize_backtracks_before_the_next_c(monkeypatch):
    from commgraph import primes

    # With c = 1 the first rounds through 2 * (1 + 2 + ... + 128) = 510 steps
    # end in a batch gcd equal to m; the step-by-step walk back through that
    # batch splits m, where starting over with c = 2 would overrun the budget.
    monkeypatch.setattr(primes, "RHO_BUDGET", 510)
    assert factorize(139267 * 155833) == {139267: 1, 155833: 1}


def _prime_field_group_file(path, p):
    path.write_text(json.dumps({
        "type": "matrix",
        "field": {"p": p, "k": 1, "modulus": [0, 1]},
        "dim": 2,
        "aut_order": 1,
        "generators": [{"twist": 0, "matrix": [[1, 1], [0, 1]]}],
    }))
    return path


def test_matrix_file_with_large_p_parses(tmp_path):
    # trial division to the square root of any of these takes seconds or more;
    # the last is the greatest prime below 10^30, past Miller-Rabin's proven
    # range, and 2^89 - 1 is a Mersenne prime
    for p in (10 ** 16 + 61, 2 ** 61 - 1, 2 ** 89 - 1, 10 ** 30 - 11):
        G = load_group_file(_prime_field_group_file(tmp_path / f"{p}.json", p), cap=50)
        assert G.generators[0].spec.p == p
        with pytest.raises(CapExceeded):
            G.materialize()  # the unipotent generator has order p


# 3215031751 = 151 * 751 * 28351 and 3825123056546413051 = 149491 * 747451 *
# 34233211 are strong pseudoprimes to every prime base up to 7 and 23
@pytest.mark.parametrize("n", [3215031751, 3825123056546413051, MERSENNE_SEMIPRIME])
def test_matrix_file_with_large_composite_p_is_a_parse_error(tmp_path, capsys, n):
    from commgraph.cli import EXIT_PARSE, main

    path = _prime_field_group_file(tmp_path / "big_n.json", n)
    assert main(["analyze", str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err == f"error: {path}: {n} is not prime\n"


def test_field_create_rejects_composite_p():
    with pytest.raises(NotPrime):
        field_create(4, 2)


def test_field_create_cap():
    assert FIELD_CAP == 2 ** 50
    with pytest.raises(CapExceeded):
        field_create(2, 51)
    with pytest.raises(CapExceeded):
        field_create(10061, 5)  # 10061^5 > 2^50
    # the largest field of a witness triple with q <= 43 is under the cap
    assert field_create(23, 11).size == 23 ** 11 <= FIELD_CAP


# specs that once built: a "GF(4)" in which 2 * 2 = 0, an X^2 + 1 over
# GF(2), which is (X + 1)^2 and so had a zero divisor whose inverse() died
# with a TypeError, and an X^2 + 1 swapped in for a non-monic 2X^2 + 1; and
# X^400 + 1 declared for k = 2, which Rabin's test once took 1.6 s to refuse
# for the wrong reason
@pytest.mark.parametrize("p, k, modulus, error, message", [
    (4, 1, [0, 1], NotPrime, "4 is not prime"),
    (2, 2, [1, 0, 1], SpecMismatch, "modulus is not monic irreducible over GF(p)"),
    (3, 2, [1, 0, 2], SpecMismatch, "modulus is not monic irreducible over GF(p)"),
    (3, 0, [1], SpecMismatch, "k must be at least 1"),
    (3, 2, [2, 1], SpecMismatch, "modulus degree 1 != k=2"),
    (3, 1, [], SpecMismatch, "modulus is not monic irreducible over GF(p)"),
    (2, 2, [1] + [0] * 399 + [1], SpecMismatch, "modulus degree 400 != k=2"),
])
def test_field_spec_refuses_what_is_not_a_field(monkeypatch, p, k, modulus, error, message):
    # Rabin's test runs only on a monic modulus of degree k
    from commgraph import fields

    def rabin(f, q):
        if len(f) != k + 1 or f[-1] != 1:
            raise AssertionError(f"Rabin's test on {f} for k={k}")
        return _is_irreducible(f, q)

    monkeypatch.setattr(fields, "_is_irreducible", rabin)
    with pytest.raises(error) as info:
        FieldSpec(p, k, modulus)
    assert str(info.value) == message


def test_field_spec_reads_the_modulus_mod_p():
    # 4 = 1 mod 3, so 4X^2 + 1 is the monic X^2 + 1
    assert FieldSpec(3, 2, [1, 0, 4]) == FieldSpec(3, 2, [-2, 3, 1]) == field_create(3, 2)


def test_field_cap_applies_only_where_the_modulus_is_searched():
    big = 2 ** 61 - 1  # a Mersenne prime, over the cap
    assert FieldSpec(big, 1, [0, 1]).size == big
    with pytest.raises(CapExceeded):
        FieldSpec(big, 1)


# every spec the package builds: the property pool and the fields of the six
# search-params --q-max 43 triples
@pytest.mark.parametrize("p, k", sorted({(s.p, s.k) for s in FIELD_POOL} | {
    (11, 5), (23, 11), (29, 7), (31, 5), (41, 5), (43, 7),
}))
def test_field_spec_field_create_and_json_agree(p, k):
    spec = FieldSpec(p, k)
    again = FieldSpec.from_json(spec.to_json())
    for other in (field_create(p, k), again, FieldSpec(p, k, spec.modulus)):
        assert other == spec and other.modulus == spec.modulus == least_irreducible(p, k)


def test_gf11_arithmetic(gf11):
    seven, eight, three = gf11.element(7), gf11.element(8), gf11.element(3)
    assert seven + eight == gf11.element(4)
    assert eight + seven == gf11.element(4)
    assert three.inverse() == gf11.element(4)  # 3 * 4 = 12 = 1 mod 11
    assert three.inverse() * three == gf11.one()
    assert seven * eight == gf11.element(1)  # 56 mod 11
    assert seven ** 10 == gf11.one()


def test_lagrange_in_extension(gf115):
    # a^(p^k - 1) = 1 for any nonzero a
    for coeffs in [(1, 2, 3, 4, 5), (10, 0, 0, 0, 1), (0, 1, 0, 0, 0)]:
        a = gf115.element(coeffs)
        assert a ** 161050 == gf115.one()


def test_inverse_of_zero_rejected(gf115):
    with pytest.raises(DivisionByZero):
        gf115.zero().inverse()


def test_mixed_field_operands_rejected(gf11):
    gf7 = field_create(7, 1)
    with pytest.raises(SpecMismatch):
        gf11.element(1) + gf7.element(1)


def test_element_order_small(gf11):
    assert element_order(gf11.one(), 10) == 1
    assert element_order(gf11.element(10), 10) == 2  # 10 = -1 mod 11
    with pytest.raises(ZeroElement):
        element_order(gf11.zero(), 10)


def test_generator_order_is_maximal(gf115):
    # oracle: factor 161050 and test maximality directly
    n = 161050
    assert factorize(n) == {2: 1, 5: 2, 3221: 1}
    g = element_of_order(gf115, n)
    for ell in (2, 5, 3221):
        assert g ** (n // ell) != gf115.one()
    assert element_order(g, n) == n


def test_element_orders_factor_only_their_multiple(monkeypatch):
    # an element of order 25 or 3221 of GF(11^5), and its order, need the
    # primes of 25 or 3221 and never those of 11^5 - 1
    from commgraph import fields

    spec = field_create(11, 5)
    factored = []
    real = fields.factorize
    monkeypatch.setattr(fields, "factorize", lambda n: factored.append(n) or real(n))
    for n in (25, 3221):
        assert element_order(element_of_order(spec, n), n) == n
    assert factored == [25, 25, 3221, 3221]


def test_element_of_order(gf115, gf11):
    e25 = element_of_order(gf115, 25)
    assert e25 ** 25 == gf115.one() and e25 ** 5 != gf115.one()
    assert element_order(e25, gf115.size - 1) == 25
    e = element_of_order(gf115, 3221)
    assert element_order(e, gf115.size - 1) == 3221
    with pytest.raises(NoSuchOrder):
        element_of_order(gf11, 7)  # 7 does not divide 10
    with pytest.raises(NoSuchOrder):
        element_order(e, 25)  # e^25 != 1


ORACLE_FIELDS = [(3, 3), (5, 2), (7, 2), (2, 4)]


@pytest.mark.parametrize("p, k", ORACLE_FIELDS)
def test_element_order_matches_repeated_order(p, k):
    # any multiple of the order gives the order; a non-multiple is refused
    spec = field_create(p, k)
    n = spec.size - 1
    for a in field_elements(spec):
        if a.is_zero():
            continue
        order = repeated_order(a)
        assert element_order(a, n) == element_order(a, 2 * n) == order, a
        if order > 1:
            with pytest.raises(NoSuchOrder):
                element_order(a, order + 1)


@pytest.mark.parametrize("p, k", ORACLE_FIELDS)
def test_element_of_order_is_the_first_scan_candidate(p, k):
    # the first a^((p^k - 1)/n) of order n over the nonzero a in coefficient
    # order, by repeated multiplication
    spec = field_create(p, k)
    size = spec.size - 1
    for n in (d for d in range(1, size + 1) if size % d == 0):
        expected = next(
            e for e in (repeated_power(a, size // n) for a in field_elements(spec) if not a.is_zero())
            if repeated_order(e) == n
        )
        assert element_of_order(spec, n) == expected, n


@pytest.mark.parametrize("p, k", [(2, 4), (3, 3), (5, 2), (7, 3), (11, 5)])
def test_element_of_order_matches_the_norm_per_candidate_scan(p, k):
    # every order n dividing p^k - 1: reusing N(a/v) changes no first hit
    spec = field_create(p, k)
    size = spec.size - 1
    for n in (d for d in range(1, size + 1) if size % d == 0):
        assert element_of_order(spec, n) == norm_per_candidate_element_of_order(spec, n), n


def test_element_of_order_matches_the_norm_per_candidate_scan_on_the_witness_triples():
    triples = find_params(43)
    assert len(triples) == 6
    for triple in triples:
        spec = field_create(triple.q, triple.r)
        for n in (triple.r ** 2, triple.t):
            expected = norm_per_candidate_element_of_order(spec, n)
            assert element_of_order(spec, n) == expected, (triple, n)


@pytest.mark.parametrize("p, r, norms", [
    (11, 5, 3),  # 12 before norms were reused: X^4 and its 9 multiples, X^3, X^3 + X^4
    (43, 7, 4),  # 45 before
    (10061, 5, 3),  # 10 062 before, in about 0.4 s
])
def test_element_of_order_takes_a_norm_only_of_candidates_led_by_1(monkeypatch, p, r, norms):
    # the scan for order r^2 reaches the p - 1 multiples of X^(r-1) first;
    # only candidates whose first nonzero coefficient is 1 take a field norm
    from commgraph import fields

    spec = FieldSpec(p, r, least_irreducible(p, r))  # a given modulus is not capped
    taken = []
    monkeypatch.setattr(fields, "norm", lambda a: taken.append(a.coeffs) or norm(a))
    e = element_of_order(spec, r * r)
    assert element_order(e, r * r) == r * r
    assert len(taken) == norms
    assert all(next(filter(None, coeffs)) == 1 for coeffs in taken)


def test_frobenius_fixes_prime_subfield(gf115):
    for v in range(11):
        a = gf115.element(v)
        assert frobenius_map(a) == a


def test_frobenius_has_order_k(gf115):
    g = element_of_order(gf115, gf115.size - 1)
    assert frobenius_map(g) != g
    acc = g
    for _ in range(5):
        acc = frobenius_map(acc)
    assert acc == g
    # negative exponents wrap around
    assert frobenius_map(g, -1) == frobenius_map(g, 4)


def test_witness_field_frobenius_and_powers_match_oracles(gf115):
    # GF(11^5) carries the witness; the hypothesis pool holds only fields
    # small enough to scan at every example.  X, the least primitive
    # element and a dense element, against repeated multiplication.
    for a in (gf115.element((0, 1, 0, 0, 0)), element_of_order(gf115, gf115.size - 1),
              gf115.element((3, 1, 4, 1, 5))):
        for i in range(-5, 10):
            assert frobenius_map(a, i) == repeated_frobenius(a, i), (a, i)
        for e in range(-30, 31):
            assert a ** e == repeated_power(a, e), (a, e)


def _norm_exponent(spec):
    return (spec.size - 1) // (spec.p - 1)


@pytest.mark.parametrize("spec", FIELD_POOL, ids=repr)
def test_norm_matches_power_and_lies_in_prime_field(spec):
    e = _norm_exponent(spec)
    for a in field_elements(spec):
        n = norm(a)
        assert n == repeated_power(a, e), a
        assert n == spec.element(n.coeffs[0])  # in GF(p)


@pytest.mark.parametrize("p, k", [(2, 4), (3, 3), (3, 5), (5, 2), (7, 2), (2, 7)])
def test_norm_by_doubling_matches_the_conjugate_product(p, k):
    spec = field_create(p, k)
    for a in field_elements(spec):
        assert norm(a) == conjugate_product_norm(a), a


def test_norm_matches_power_in_witness_field(gf115):
    import random

    rng = random.Random(161051)
    e = _norm_exponent(gf115)
    sample = [gf115.zero(), gf115.one(), gf115.element((0, 1, 0, 0, 0)),
              element_of_order(gf115, gf115.size - 1)]
    sample += [gf115.element(tuple(rng.randrange(11) for _ in range(5))) for _ in range(40)]
    for a in sample:
        n = norm(a)
        assert n == a ** e, a
        assert not any(n.coeffs[1:])
    assert norm(element_of_order(gf115, gf115.size - 1)) != gf115.one()


@pytest.mark.parametrize("spec", FIELD_POOL + [field_create(11, 5)], ids=repr)
def test_prime_field_factors_match_the_general_product(spec):
    # a product with a factor in GF(p) scales coefficients, and a power of
    # an element of GF(p) is an integer power mod p: against the polynomial
    # product and repeated multiplication
    import random

    rng = random.Random(spec.size)
    sample = [spec.element(tuple(rng.randrange(spec.p) for _ in range(spec.k))) for _ in range(12)]
    for s in (spec.element(v) for v in range(spec.p)):
        for a in sample + [s]:
            general = _polmulmod(a.coeffs, s.coeffs, spec.modulus, spec.p)
            assert (a * s).coeffs == (s * a).coeffs == tuple(general), (a, s)
        if not s.is_zero():
            for e in (0, 1, 2, spec.p - 1, spec.p + 3, -1, -spec.p):
                assert s ** e == repeated_power(s, e), (s, e)


@pytest.mark.parametrize("p, k", [(s.p, s.k) for s in FIELD_POOL] + [(11, 5), (23, 11)])
def test_primitive_element_matches_power_scan(p, k):
    # element_of_order's exponent is 1 for n = p^k - 1, so it is the least
    # primitive element
    spec = FieldSpec(p, k, least_irreducible(p, k))
    expected = power_scan_primitive_element(spec)
    assert element_of_order(spec, spec.size - 1).coeffs == expected.coeffs


def test_frobenius_is_ring_hom_sampled(gf115):
    import random

    rng = random.Random(7)
    for _ in range(25):
        a = gf115.element(tuple(rng.randrange(11) for _ in range(5)))
        b = gf115.element(tuple(rng.randrange(11) for _ in range(5)))
        assert frobenius_map(a + b) == frobenius_map(a) + frobenius_map(b)
        assert frobenius_map(a * b) == frobenius_map(a) * frobenius_map(b)


def test_poly_basics(gf11):
    a = Poly.variable(gf11, 0)
    b = Poly.variable(gf11, 1)
    zero = Poly.zero(gf11)
    assert ((a + b) * zero).is_zero()
    ab = a * b
    assert ab.terms == {(1, 1): gf11.one()}
    # (a + b)^2 = a^2 + 2ab + b^2, expanded by hand
    sq = (a + b) * (a + b)
    expected = {
        (2, 0): gf11.one(),
        (1, 1): gf11.element(2),
        (0, 2): gf11.one(),
    }
    assert sq.terms == expected
    assert (sq - sq).is_zero()


def test_poly_mixed_specs_rejected(gf11, gf115):
    with pytest.raises(SpecMismatch):
        Poly.variable(gf11, 0) + Poly.variable(gf115, 0)


def test_poly_variable_index_out_of_range_rejected(gf11):
    # such an index would make every exponent 0, the constant 1
    for index in (-1, 2):
        with pytest.raises(ValueError):
            Poly.variable(gf11, index)


def test_poly_constant_outside_gf_p_rejected(gf11, gf115):
    # coefficients are ints in GF(p): an element of GF(11) inside GF(11^5)
    # is a constant, X is not, nor is an element of another field
    a = Poly.variable(gf115, 0)
    x = gf115.element((0, 1, 0, 0, 0))
    for op in (operator.add, operator.sub, operator.mul):
        for left, right in ((a, x), (x, a), (a, gf11.element(3))):
            with pytest.raises(SpecMismatch):
                op(left, right)
    with pytest.raises(SpecMismatch):
        Poly.constant(gf115, x)
    assert a != x and x != a and Poly.constant(gf115, 3) != gf11.element(3)
    assert (a * gf115.element(-2)).terms == {(1, 0): 9}
    assert Poly.constant(gf115, gf115.element(3)) == 3


def test_poly_evaluation_matches_field_expression(gf11):
    a = Poly.variable(gf11, 0)
    b = Poly.variable(gf11, 1)
    f = a * a + 3 * a * b + b - 5
    for av in range(0, 11, 3):
        for bv in range(0, 11, 4):
            x, y = gf11.element(av), gf11.element(bv)
            assert evaluate(f, [x, y]) == x * x + 3 * x * y + y - 5


def test_spec_json_roundtrip(gf115):
    payload = gf115.to_json()
    assert payload == {"p": 11, "k": 5, "modulus": list(gf115.modulus)}
    again = FieldSpec.from_json(payload)
    assert again == gf115


def test_spec_json_rejects_reducible():
    with pytest.raises(SpecMismatch):
        FieldSpec.from_json({"p": 2, "k": 2, "modulus": [0, 0, 1]})  # x^2

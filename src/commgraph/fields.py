"""Exact arithmetic in GF(p) and GF(p^k), plus small multivariate polynomials.

Extension fields are represented as GF(p)[X] modulo a fixed monic irreducible
polynomial.  `FieldSpec` checks p, k and the modulus, and with no modulus
given takes the lexicographically least monic irreducible of degree k, so
the fields the package builds are reproducible; a group file may name any
monic irreducible modulus.
An element is a :class:`FieldElement` holding its reduced coefficient tuple,
and its operators are the one interface to field arithmetic.  A negative
power is the inverse of a positive one, by one extended Euclid; a factor in
GF(p) scales the other's coefficients, and a power of an element of GF(p)
is an integer power mod p.  The Frobenius map is GF(p)-linear, so
`frobenius_map` applies a k x k matrix over GF(p) that each spec builds
once per power and keeps, and `norm` is the product of an element's k
conjugates under it.  Rabin's irreducibility test reads X^(p^i) off the
same matrix of a candidate modulus and tests coprimality by the Euclid.
A `Poly` is a polynomial over the prime field GF(p) of a spec: the
symbolic checks' identities have every coefficient in GF(p), so its terms
hold ints mod p, and an element of the spec is a constant only when it
lies in GF(p).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from operator import add, mul

from .errors import (
    CapExceeded,
    DivisionByZero,
    NoSuchOrder,
    NotPrime,
    SpecMismatch,
    ZeroElement,
    json_field,
    json_int,
    json_list,
)
from .primes import factorize, is_prime

# Largest field FieldSpec builds when it searches the modulus (field_create);
# a group file's field names its modulus and is not capped.  Nothing
# enumerates the field or factors p^k - 1, but least_irreducible and
# element_of_order scan in coefficient order, the last coefficient fastest,
# so their cost grows with p: element_of_order(spec, r^2) in a witness
# field GF(p^r) may visit all p - 1 multiples c*X^(r-1), though only
# X^(r-1) takes a field norm and each multiple one power mod p.
# run_all_checks takes 0.04 s at (23, 11), 23^11 about 9.5e14 and the
# largest field of a witness triple with q <= 43, and would take 0.07 s at
# (10061, 5), which the cap refuses (2 vCPU, CPython 3.11.7).  The cap
# stays until a bound on what costs time (k, p^k and p) replaces it.
FIELD_CAP = 2 ** 50
# Discrete-log tables are only built for fields small enough to enumerate.
LOG_TABLE_CAP = 2 ** 21


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); coefficient lists are low-degree-first


def _poldeg(a: Sequence[int]) -> int:
    d = len(a) - 1
    while d >= 0 and a[d] == 0:
        d -= 1
    return d


def _polmulmod(a, b, modulus, p):
    """a * b modulo the monic modulus.  Coefficients accumulate as plain
    integers and each is reduced mod p once: a high one just before it is
    folded down, a low one at the end."""
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    res[i + j] += ai * bj
    k = len(modulus) - 1
    for i in range(len(res) - 1, k - 1, -1):
        c = res[i] % p
        if c:
            for j in range(k):
                res[i - k + j] -= c * modulus[j]
    res = [c % p for c in res[:k]]
    return res + [0] * (k - len(res))


def _polpowmod(a, e, modulus, p):
    """a^e for a reduced residue a and e >= 0, by binary powering that
    neither multiplies by 1 first nor squares past the top bit of e."""
    result = None
    base = list(a)
    while e:
        if e & 1:
            result = base if result is None else _polmulmod(result, base, modulus, p)
        e >>= 1
        if e:
            base = _polmulmod(base, base, modulus, p)
    return [1] + [0] * (len(modulus) - 2) if result is None else result


def _polinvmod(a, modulus, p):
    """Inverse of the residue a modulo any monic modulus, by the extended
    Euclidean algorithm, or None when gcd(a, modulus) != 1, as for a = 0."""
    k = len(modulus) - 1
    r0, r1 = list(modulus), list(a) + [0]
    s0, s1 = [0] * (k + 1), [1] + [0] * k
    while _poldeg(r1) > 0:
        d0, d1 = _poldeg(r0), _poldeg(r1)
        while d0 >= d1:
            c = r0[d0] * pow(r1[d1], p - 2, p) % p
            for j in range(d1 + 1):
                r0[d0 - d1 + j] = (r0[d0 - d1 + j] - c * r1[j]) % p
            for j in range(len(s1) - (d0 - d1)):
                s0[d0 - d1 + j] = (s0[d0 - d1 + j] - c * s1[j]) % p
            d0 = _poldeg(r0)
        r0, r1 = r1, r0
        s0, s1 = s1, s0
    if _poldeg(r1) < 0:  # the last nonzero remainder, the gcd, is not a unit
        return None
    c = pow(r1[0], p - 2, p)
    return [x * c % p for x in s1[:k]]


def _frobenius_rows(modulus, p):
    """The rows X^(jp) mod f, j < k, of the matrix of Frob: a -> a^p on
    GF(p)[X]/(f) for a monic f of degree k >= 2 (Berlekamp's Q-matrix).
    Frob is linear and multiplicative, so row j is Y^j for Y = X^p."""
    k = len(modulus) - 1
    y = _polpowmod([0, 1] + [0] * (k - 2), p, modulus, p)
    rows = [[1] + [0] * (k - 1), y]
    while len(rows) < k:
        rows.append(_polmulmod(rows[-1], y, modulus, p))
    return rows


def _is_irreducible(modulus, p):
    """Rabin's test (SIAM J. Comput. 9, 1980): a monic f of degree k over
    GF(p) is irreducible iff X^(p^k) = X mod f and X^(p^(k/d)) - X is a unit
    mod f for each prime d of k.  X^(p^i) is Frob of X^(p^(i-1)), one
    product with the Q-matrix's columns.  A constant is not irreducible."""
    k = len(modulus) - 1
    if k <= 1:
        return k == 1
    cols = list(zip(*_frobenius_rows(modulus, p)))
    x = [0, 1] + [0] * (k - 2)
    powers = [x]  # X^(p^i) for i = 0 .. k
    for _ in range(k):
        powers.append([sum(map(mul, powers[-1], col)) % p for col in cols])
    return powers[k] == x and all(
        _polinvmod([(a - b) % p for a, b in zip(powers[k // d], x)], modulus, p) is not None
        for d in factorize(k)
    )


def _has_root(poly, p) -> bool:
    """True iff the polynomial vanishes at some element of GF(p)."""
    for a in range(p):
        acc = 0
        for c in reversed(poly):
            acc = (acc * a + c) % p
        if acc == 0:
            return True
    return False


def least_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree k over GF(p).

    For k >= 2 the constant term runs from 1, since 0 would make 0 a root,
    and a candidate with another root in GF(p) has a linear factor, so it is
    skipped before the full irreducibility test.
    """
    if k == 1:
        return (0, 1)
    for coeffs in itertools.product(range(1, p), *[range(p)] * (k - 1)):
        cand = list(coeffs) + [1]
        if not _has_root(cand, p) and _is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------


class FieldSpec:
    """A concrete GF(p^k): prime p, degree k and the reducing polynomial.

    The constructor is the one place that checks a field: a p that is not
    prime raises NotPrime, and k < 1 or a modulus that is not a monic
    irreducible of degree k over GF(p) (its coefficients read mod p)
    raises SpecMismatch.  With no modulus it builds the canonical field,
    with the lex-least irreducible modulus, and refuses one of more than
    FIELD_CAP elements with CapExceeded; a given modulus is not capped.

    Instances are immutable.  A spec builds elements; all element
    arithmetic is on :class:`FieldElement`.  The matrix of each power of
    Frobenius is computed on first use and kept.
    """

    __slots__ = ("p", "k", "modulus", "size", "_hash", "_frobenius")

    def __init__(self, p: int, k: int, modulus: Sequence[int] | None = None):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if k < 1:
            raise SpecMismatch("k must be at least 1")
        if modulus is None:
            if p ** k > FIELD_CAP:
                raise CapExceeded(f"{p}^{k} exceeds field cap {FIELD_CAP}")
            modulus = least_irreducible(p, k)
        else:
            modulus = tuple(c % p for c in modulus)
            if not modulus or modulus[-1] != 1 or not _is_irreducible(modulus, p):
                raise SpecMismatch("modulus is not monic irreducible over GF(p)")
            if len(modulus) != k + 1:
                raise SpecMismatch(f"modulus degree {len(modulus) - 1} != k={k}")
        self.p = p
        self.k = k
        self.modulus = modulus
        self.size = p ** k
        self._hash = hash((p, k, self.modulus))
        self._frobenius = {}

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FieldSpec(GF({self.p}^{self.k}))" if self.k > 1 else f"FieldSpec(GF({self.p}))"

    # -- element construction

    def zero(self) -> FieldElement:
        return _element(self, (0,) * self.k)

    def one(self) -> FieldElement:
        return _element(self, (1,) + (0,) * (self.k - 1))

    def element(self, coeffs: int | Iterable[int]) -> FieldElement:
        if isinstance(coeffs, int):
            coeffs = (coeffs,) + (0,) * (self.k - 1)
        t = tuple(int(c) % self.p for c in coeffs)
        if len(t) != self.k:
            raise SpecMismatch(f"expected {self.k} coefficients, got {len(t)}")
        return _element(self, t)

    def _frobenius_columns(self, i: int) -> tuple:
        """The matrix of Frob^i, for 0 < i < k, as its k columns.

        Frob's rows come from `_frobenius_rows`; column l gives coefficient
        l of Frob(a) as a dot product with a's coefficients.  Frob^i is
        Frob after Frob^(i-1), so for i > 1 row j is Frob of row j of
        Frob^(i-1), with no product in the field.  Built once per i and kept.
        """
        cols = self._frobenius.get(i)
        if cols is None:
            p = self.p
            if i == 1:
                rows = _frobenius_rows(self.modulus, p)
            else:
                frob = self._frobenius_columns(1)
                rows = [
                    [sum(map(mul, row, col)) % p for col in frob]
                    for row in zip(*self._frobenius_columns(i - 1))
                ]
            cols = self._frobenius[i] = tuple(zip(*rows))
        return cols

    def log_table(self) -> tuple[list, dict]:
        """(exp, log): discrete-log tables w.r.t. the least primitive element."""
        if self.size > LOG_TABLE_CAP:
            raise CapExceeded(f"field of size {self.size} exceeds log-table cap {LOG_TABLE_CAP}")
        g = element_of_order(self, self.size - 1).coeffs
        exp = []
        log = {}
        acc = self.one().coeffs
        for i in range(self.size - 1):
            exp.append(acc)
            log[acc] = i
            acc = tuple(_polmulmod(acc, g, self.modulus, self.p))
        return exp, log

    def to_json(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, obj: dict) -> FieldSpec:
        """The spec a group file's field object describes.  The JSON shape
        is read first, so a field missing or a number that is not an
        integer is named before the constructor checks the field."""
        p, k = (json_int(json_field(obj, key, "field"), key) for key in "pk")
        modulus = json_list(json_field(obj, "modulus", "field"), "modulus")
        return cls(p, k, [json_int(c, "modulus entry") for c in modulus])


class FieldElement:
    """An element of GF(p^k) as a reduced coefficient vector.

    Built by `FieldSpec.element`, which reduces and checks the coefficients,
    or by `_element` from a tuple already reduced.
    """

    __slots__ = ("spec", "coeffs", "_hash")

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise SpecMismatch("operands from different fields")
            return other.coeffs
        if isinstance(other, int):
            return ((other % self.spec.p),) + (0,) * (self.spec.k - 1)
        return NotImplemented

    def __add__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        p = self.spec.p
        return _element(self.spec, tuple((x + y) % p for x, y in zip(self.coeffs, c)))

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        p = self.spec.p
        return _element(self.spec, tuple((x - y) % p for x, y in zip(self.coeffs, c)))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        spec, a = self.spec, self.coeffs
        if any(c[1:]):
            if any(a[1:]):
                return _element(spec, tuple(_polmulmod(a, c, spec.modulus, spec.p)))
            a, c = c, a
        # a factor in GF(p) scales the other's coefficients
        s, p = c[0], spec.p
        return _element(spec, tuple(x * s % p for x in a))

    __rmul__ = __mul__

    def __neg__(self):
        p = self.spec.p
        return _element(self.spec, tuple(-x % p for x in self.coeffs))

    def __truediv__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return self * _element(self.spec, c).inverse()

    def __pow__(self, e: int):
        """a^e for any integer e; 0^0 = 1 and a negative power of 0 raises."""
        spec = self.spec
        if self.is_zero():
            if e < 0:
                raise DivisionByZero("negative power of zero")
            return spec.one() if e == 0 else self
        if e < 0:
            return (self ** -e).inverse()
        # the units form a group of order p^k - 1
        e %= spec.size - 1
        a = self.coeffs
        if not any(a[1:]):  # in GF(p), an integer power mod p
            return _element(spec, (pow(a[0], e, spec.p),) + a[1:])
        return _element(spec, tuple(_polpowmod(a, e, spec.modulus, spec.p)))

    def inverse(self) -> FieldElement:
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        spec = self.spec
        return _element(spec, tuple(_polinvmod(self.coeffs, spec.modulus, spec.p)))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.coeffs == other.coeffs and self.spec == other.spec
        if isinstance(other, int):
            return self.coeffs == self._coerce(other)
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.spec.k == 1:
            return f"GF{self.spec.p}({self.coeffs[0]})"
        return f"GF({self.spec.p}^{self.spec.k}){list(self.coeffs)}"


def _element(spec: FieldSpec, coeffs: tuple) -> FieldElement:
    """Wrap a coefficient tuple already reduced mod p, skipping the reduction."""
    out = FieldElement.__new__(FieldElement)
    out.spec = spec
    out.coeffs = coeffs
    out._hash = hash(coeffs)
    return out


# ---------------------------------------------------------------------------
# spec-level operations


def field_create(p: int, k: int) -> FieldSpec:
    """GF(p^k) with the canonical (lex-least) irreducible modulus: the
    checked, capped `FieldSpec(p, k)`."""
    return FieldSpec(p, k)


def element_order(a: FieldElement, multiple: int) -> int:
    """Least n >= 1 with a^n = 1, given a multiple of it with a^multiple = 1:
    divide `multiple` by each of its primes while the power stays 1.  Raises
    NoSuchOrder when a^multiple != 1."""
    if a.is_zero():
        raise ZeroElement("order of zero is undefined")
    one = a.spec.one()
    if multiple < 1 or a ** multiple != one:
        raise NoSuchOrder(f"{a!r} has no order dividing {multiple}")
    o = multiple
    for ell in factorize(multiple):
        while o % ell == 0 and a ** (o // ell) == one:
            o //= ell
    return o


def element_of_order(spec: FieldSpec, n: int) -> FieldElement:
    """Deterministic element of exact multiplicative order n dividing p^k - 1.

    The first a^((p^k - 1)/n) of order n, over the nonzero a in coefficient
    order (low degree first, as the least primitive element is defined).
    That power has order dividing n, which is exactly n iff its (n/l)-th
    power a^((p^k - 1)/l) is not 1 for each prime l of n, so only n is
    factored.  When l divides p - 1 that power is N(a)^((p - 1)/l) for the
    norm N(a) in GF(p), an integer power mod p; the other primes take the
    power in the field.  For n = p^k - 1 the exponent is 1 and the result is
    the least primitive element.

    Only a candidate whose first nonzero coefficient is 1 takes a field norm.
    Any other a = v*b, with v that coefficient, comes after b = a/v (same
    zero prefix, then 1 < v), so N(a) = v^k N(b) is one power mod p.
    """
    size, p, k, one = spec.size - 1, spec.p, spec.k, spec.one()
    if n < 1 or size % n != 0:
        raise NoSuchOrder(f"{n} does not divide {size}")
    by_norm, by_power = [], []
    for ell in factorize(n):
        (by_norm if (p - 1) % ell == 0 else by_power).append(ell)
    norms = {}  # N(b) of each scanned b whose first nonzero coefficient is 1
    for coeffs in itertools.product(range(p), repeat=k):
        if not any(coeffs):
            continue
        a = _element(spec, coeffs)
        if by_norm:
            v = next(filter(None, coeffs))
            if v == 1:
                n_a = norms[coeffs] = norm(a).coeffs[0]
            else:
                w = pow(v, -1, p)
                n_a = pow(v, k, p) * norms[tuple(c * w % p for c in coeffs)] % p
            if any(pow(n_a, (p - 1) // ell, p) == 1 for ell in by_norm):
                continue
        e = a ** (size // n)
        if all(e ** (n // ell) != one for ell in by_power):
            return e
    raise AssertionError("no element of order n")  # unreachable: the units are cyclic


def frobenius_map(a: FieldElement, i: int = 1) -> FieldElement:
    """Apply the Frobenius automorphism x -> x^p of GF(p^k), i times (i may
    be negative, as Frob^k is the identity), as the spec's cached matrix of
    Frob^i applied to a's coefficient vector."""
    spec = a.spec
    i %= spec.k
    if not i:
        return a
    p, coeffs = spec.p, a.coeffs
    return _element(spec, tuple(
        sum(map(mul, coeffs, col)) % p for col in spec._frobenius_columns(i)
    ))


def norm(a: FieldElement) -> FieldElement:
    """The norm of a from GF(p^k) to GF(p): the product of a's k conjugates
    Frob^i(a), which equals a^((p^k - 1)/(p - 1)) and lies in GF(p)
    (Lidl and Niederreiter, Finite Fields, ch. 2).  The product b_m of the
    first m is built along the bits of k, as b_2m = b_m Frob^m(b_m) and
    b_(m+1) = b_m Frob^m(a): about 2 log2(k) products, not k - 1."""
    out, m = a, 1
    for bit in bin(a.spec.k)[3:]:
        out, m = out * frobenius_map(out, m), 2 * m
        if bit == "1":
            out, m = out * frobenius_map(a, m), m + 1
    return out


# ---------------------------------------------------------------------------
# multivariate polynomials over GF(p) (bivariate is the common case)


class Poly:
    """Polynomial in `nvars` commuting indeterminates over GF(p), p = spec.p.

    Terms map exponent tuples to ints in 1 .. p - 1; the zero polynomial
    has an empty term map, and the constructor trusts the map it is given.
    An int, or an element of spec lying in GF(p), is a constant.  A constant
    outside GF(p), or a polynomial over another spec or in other variables,
    raises SpecMismatch in arithmetic and compares unequal.
    """

    __slots__ = ("spec", "nvars", "terms")

    def __init__(self, spec: FieldSpec, nvars: int, terms: dict):
        self.spec = spec
        self.nvars = nvars
        self.terms = terms

    @classmethod
    def zero(cls, spec, nvars=2):
        return cls(spec, nvars, {})

    @classmethod
    def constant(cls, spec, value, nvars=2):
        if isinstance(value, FieldElement):
            if value.spec != spec or any(value.coeffs[1:]):
                raise SpecMismatch(f"{value!r} is not a constant in GF({spec.p})")
            value = value.coeffs[0]
        c = value % spec.p
        return cls(spec, nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, spec, index, nvars=2):
        if not 0 <= index < nvars:  # the exponents would all be 0: the constant 1
            raise ValueError(f"variable {index} outside 0 .. {nvars - 1}")
        return cls(spec, nvars, {tuple(int(i == index) for i in range(nvars)): 1})

    def _coerce(self, other) -> Poly:
        """other as a polynomial over the same spec in the same variables."""
        if isinstance(other, Poly):
            if other.spec != self.spec or other.nvars != self.nvars:
                raise SpecMismatch("polynomials over different fields or variables")
            return other
        if isinstance(other, (FieldElement, int)):
            return Poly.constant(self.spec, other, self.nvars)
        raise TypeError(f"a polynomial and a {type(other).__name__} do not combine")

    def _reduced(self, acc: dict) -> Poly:
        """The polynomial of a term map whose coefficients are plain ints."""
        p = self.spec.p
        return Poly(self.spec, self.nvars, {e: s for e, c in acc.items() if (s := c % p)})

    def __add__(self, other):
        acc = dict(self.terms)
        for e, c in self._coerce(other).terms.items():
            acc[e] = acc.get(e, 0) + c
        return self._reduced(acc)

    __radd__ = __add__

    def __neg__(self):
        p = self.spec.p
        return Poly(self.spec, self.nvars, {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._coerce(other)
        acc: dict = {}  # coefficients accumulate as plain ints, each reduced once
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        return self._reduced(acc)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        try:
            return self.terms == self._coerce(other).terms
        except (SpecMismatch, TypeError):
            return False

    def monomial_certificate(self):
        """If this is a single term c * prod(x_i^e_i), return (c, exps)."""
        if len(self.terms) != 1:
            return None
        ((exps, coeff),) = self.terms.items()
        return coeff, exps

    def __repr__(self):
        names = "abcdefghijklmnopqrstuvwxyz"
        parts = []
        for exps, c in sorted(self.terms.items()):
            mono = [names[i % 26] + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e]
            parts.append("*".join([str(c), *mono]))
        return f"Poly({' + '.join(parts) or 0})"

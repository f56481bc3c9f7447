"""The diameter-8 witness family of soluble trivial-centre groups.

The construction lives inside Sp_4(GF(q^r)) extended by the Frobenius
automorphism: a unipotent normal subgroup F of order q^{4r} (parameterized,
never enumerated) acted on by a metacyclic group D = <x, c> of order r^2*t.
Everything the diameter argument consumes is machine-checked here: the
symplectic relations, the structure of D, fixed points of D-elements on F,
centralizer shapes, the commutator separation of the two centralizer
families, nilpotency class 3 of F, and the explicit 8-edge commuting path
from x to its conjugate y.

G = F D is held in coordinates, not as matrices: an element is a pair
(f, d) of F's five coordinates and D's normal form x^i c_h.  F's law is
checked once per example against the symbolic matrix product; D's law is
the metacyclic relation x^-1 c x = c^q; and D acts on F's coordinates
entry by entry, each coordinate scaled by a ratio of the diagonal of d and
moved by d's twist.  The relation, by the normal-form product, and the
action, against the twisted matrices, are checked at build.  Only the
symplectic check and these two law checks build 4x4 matrices.

The arithmetic follows the closed forms of the field: q = p, so a power
h^(q^k) is Frob^k(h), a cached linear map, and the Hilbert-90 test takes a
norm as the product of conjugates; x is diagonal with twist 1, so the
diagonals of x^1 .. x^r are running products of Frobenius conjugates, and
the order and every power of x are read off them; each element order comes
from a known multiple of it (r^2, t or q - 1), so q^r - 1 is never
factored; and each C_F(w), the product of four coordinates' solution sets,
is solved once per example.

The distance lower bound d(x, y) >= 8 itself rests on a combinatorial case
analysis over these verified facts; the graph of the full group (order about
5.4e25) is far beyond enumeration, so the checks certify the premises and
the matching upper-bound path rather than re-searching the graph.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

from .errors import (
    CheckFailed,
    CommGraphError,
    NoSuchOrder,
    NoSuchParams,
    NotInD,
    NotNormalizing,
    PathBroken,
    SymbolicFailure,
)
from .fields import (
    FieldElement,
    FieldSpec,
    Poly,
    element_of_order,
    element_order,
    field_create,
    frobenius_map,
    norm,
)
from .matrices import MatrixAutElement, _diag, _mat_mul
from .params import ParamTriple, example_group_order, find_params, validate_params  # noqa: F401

ALL = "all"  # marker for a solution set equal to the whole field, or to all of <f>


# ---------------------------------------------------------------------------
# F-coordinates


class FCoords(namedtuple("FCoords", "a b c d x")):
    """Coordinates of a unipotent element of F; the defining relation ties
    the (3,1) entry to the others: x*a = b - d."""

    __slots__ = ()

    def __new__(cls, a, b, c, d, x):
        if x * a != b - d:
            raise ValueError("FCoords relation x*a = b - d violated")
        return super().__new__(cls, a, b, c, d, x)


def _f_rows(one, zero, a, b, c, d, x):
    """The unipotent F matrix with coordinates (a, b, c, d, x), over any ring."""
    return (
        (one, zero, zero, zero),
        (a, one, zero, zero),
        (b, x, one, zero),
        (c, d, -a, one),
    )


# the matrix entry of each coordinate of F; the entry -a at (3, 2) has a's
# equation whenever w normalizes F
_F_ENTRIES = (
    ("a", 1, 0),
    ("b", 2, 0),
    ("x", 2, 1),
    ("d", 3, 1),
    ("c", 3, 0),
)


def _multipliers(lam, twist: int) -> dict:
    """{coordinate: mu}: conjugation by the diagonal lam with the twist maps
    the coordinate m of F at entry (row, col) to mu * sigma(m), where
    sigma = Frob^twist and mu = sigma(lam_col / lam_row)."""
    return {name: frobenius_map(lam[col] / lam[row], twist) for name, row, col in _F_ENTRIES}


def _is_trivial(f) -> bool:
    return all(m.is_zero() for m in f)


# ---------------------------------------------------------------------------
# numeric matrix helpers (entries are FieldElements)


def _form_matrix(spec):
    one, zero = spec.one(), spec.zero()
    return (
        (zero, zero, zero, one),
        (zero, zero, one, zero),
        (zero, -one, zero, zero),
        (-one, zero, zero, zero),
    )


def _transpose(a):
    n = len(a)
    return tuple(tuple(a[j][i] for j in range(n)) for i in range(n))


def _is_symplectic(zero, J, mat) -> bool:
    """mat J mat^T = J, over the ring whose zero is given."""
    return _mat_mul(zero, _mat_mul(zero, mat, J), _transpose(mat)) == J


# ---------------------------------------------------------------------------
# D = <x, c> in normal form, and G = F D


class _NormalForm:
    """D = <x, c> as pairs (i, h) standing for x^i * c_h, where h lies in <f>
    and c_h = diag(h, h, h^-1, h^-1), so that c^j = c_(f^j).

    x = z * beta has the diagonal z and twist 1, and c = c_f.  In the twisted
    matrices x^-1 c_h x = c_(Frob(h)), and q = p is prime (`validate_params`
    checks it), so x^{-1} c x = c^q and c_h x^k = x^k c_(h^(q^k)), hence the
    product (i, h)(k, h') = (i + k, Frob^k(h) h'), with i taken mod ord(x),
    where h^(q^k) is the k-th power of Frobenius, a cached linear map.  The
    constructor checks the relation by this product, which fails if the
    product's twist runs the wrong way, and checks `act` against the
    twisted matrices (`_check_action`).  ord(c) divides t and ord(x) divides
    r(q - 1) (below), and `validate_params` makes t a prime that does not
    divide q - 1, while r does, so the orders are coprime: <x> meets <c>
    trivially and every element of D has one normal form, |D| = ord(x) ord(c).

    x has twist 1 over GF(q^r), so x^n has twist n mod r and x^n = 1 needs
    r | n: ord(x) = r * ord(x^r).  x^(j+1) = x^j x has the diagonal of x^j
    times Frob^-j of z, so the diagonals of x^1 .. x^r are running
    products.  x^r's entries lie in GF(q), so `order_xr` is the lcm of their
    orders from the multiple q - 1, and ord(c) comes from the multiple t; an
    entry outside GF(q), or f^t != 1, raises NoSuchOrder.  x^n for
    n = m r + j is (x^r)^m x^j, a diagonal of field powers times x^j.
    """

    def __init__(self, spec: FieldSpec, z, f: FieldElement, t: int):
        self.spec = spec
        r, q = spec.k, spec.p
        diags = [[spec.one()] * 4]
        for j in range(r):
            diags.append([a * frobenius_map(b, -j) for a, b in zip(diags[-1], z)])
        self.x_powers = diags[:r]  # the diagonal of x^j for j < r
        self.xr_diag = diags[r]  # x^r has no twist
        self.order_xr = math.lcm(*(element_order(e, q - 1) for e in self.xr_diag))
        self.order_x = r * self.order_xr
        self.order_c = element_order(f, t)
        self.order = self.order_x * self.order_c
        # h has order dividing ord(c), so h^(q^k) = h^(q^k mod ord(c))
        self.qpow = [pow(q, k, self.order_c) for k in range(self.order_x)]
        self.one = spec.one()
        self.x, self.c = (1, self.one), (0, f)
        if self.mul(self.inverse(self.x), self.mul(self.c, self.x)) != (0, f ** q):
            raise NoSuchParams("x^{-1} c x != c^q: D has no metacyclic normal form")
        _check_action(self, z, f)

    def identity(self):
        return (0, self.one)

    def mul(self, a, b):
        return ((a[0] + b[0]) % self.order_x, frobenius_map(a[1], b[0]) * b[1])

    def inverse(self, a):
        """(i, h)^-1 = (-i, Frob^-i(h)^-1), by the product rule."""
        return (-a[0] % self.order_x, frobenius_map(a[1], -a[0]).inverse())

    def diagonal(self, a) -> tuple:
        """The diagonal and twist of x^i c_h for a = (i, h): for
        i = m r + j, x^i = (x^r)^m x^j has the diagonal of x^r to the m
        times that of x^j, and twist j, and c_h enters as Frob^-j of its
        diagonal (h, h, h^-1, h^-1)."""
        m, j = divmod(a[0], self.spec.k)
        h = frobenius_map(a[1], -j)
        c_diag = (h, h) + (h.inverse(),) * 2
        return [e ** m * d * s for e, d, s in zip(self.xr_diag, self.x_powers[j], c_diag)], j

    def act(self, f, a):
        """f^a = a^-1 f a, for f in F's coordinates and a in D, which
        normalizes F: each coordinate m becomes mu * sigma(m) by the
        `_multipliers` of a's diagonal and twist."""
        if a == self.identity() or _is_trivial(f):
            return f
        lam, twist = self.diagonal(a)
        mu = _multipliers(lam, twist)
        return tuple(mu[name] * frobenius_map(m, twist) for name, m in zip(FCoords._fields, f))

    def powers(self, e):
        """[1, e, e^2, ...] up to e's order, which divides |D|; raises
        NoSuchOrder if the products do not return to 1 within |D| steps."""
        out = [self.identity()]
        acc = e
        for _ in range(self.order):
            if acc == out[0]:
                return out
            out.append(acc)
            acc = self.mul(acc, e)
        raise NoSuchOrder(f"the powers of {e} do not return to 1 within |D| = {self.order}")

    def centralizer(self, w) -> list:
        """C_D(w) as a description: for each i < ord(x) at which some x^i c_h
        commutes with w, the pair (i, h), or (i, ALL) when every h in <f> does.

        x^i c_h commutes with w = x^a c_g iff h^(q^a - 1) = g^(q^i - 1).
        ord(c) = t is prime, so unless q^a = 1 mod t, h -> h^(q^a - 1)
        permutes <f> and h is the one (q^a - 1)-th root of the right side;
        if q^a = 1, every h commutes when the right side is 1, and none else.
        The right side is Frob^i(g) g^-1.
        """
        a, g = w
        n = self.order_c
        lhs = (self.qpow[a] - 1) % n
        root = pow(lhs, -1, n) if lhs else 0
        # g^(q^i) depends only on q^i mod t, which takes ord_t(q) values (r
        # of them for a witness triple), so the right side is computed once
        # per value, at its first i
        first: dict = {}
        for i, e in enumerate(self.qpow):
            first.setdefault(e, i)
        g_inv = g.inverse()
        solution = {}
        for e, i in first.items():
            rhs = frobenius_map(g, i) * g_inv
            if lhs:
                solution[e] = rhs ** root
            elif rhs == self.one:
                solution[e] = ALL
        return [(i, solution[e]) for i, e in enumerate(self.qpow) if e in solution]

    def count(self, description) -> int:
        """The number of elements of D a description stands for."""
        return sum(self.order_c if h is ALL else 1 for _, h in description)


class GElement(namedtuple("GElement", "f d ctx")):
    """The element f d of G = F D: f is F's coordinates (a, b, c, d, x) and
    d the normal form (i, h) of x^i c_h in D = ctx.

    F is normal in G, so (f1 d1)(f2 d2) = f1 (d1 f2 d1^-1) d1 d2, which is
    (f1 f2^(d1^-1), d1 d2), and (f d)^-1 = d^-1 f^-1 = ((f^-1)^d, d^-1):
    F's law is `_f_mul` and `_f_inv`, D's is ctx's, and d acts on F's
    coordinates through its diagonal and twist (`_NormalForm.act`).
    """

    __slots__ = ()

    def __mul__(self, other: GElement) -> GElement:
        ctx = self.ctx
        f = ctx.act(other.f, ctx.inverse(self.d))
        return GElement(_f_mul(self.f, f), ctx.mul(self.d, other.d), ctx)

    def inverse(self) -> GElement:
        ctx = self.ctx
        return GElement(ctx.act(_f_inv(self.f), self.d), ctx.inverse(self.d), ctx)

    def is_identity(self) -> bool:
        return self.d == self.ctx.identity() and _is_trivial(self.f)


# ---------------------------------------------------------------------------


class ExampleGroup(namedtuple("ExampleGroup", "params spec u v f z c x xr g ctx")):
    """The witness group for one ParamTriple over spec = GF(q^r).

    u and v (order r^2) are the first two entries of the diagonal z, f
    (order t) the diagonal entry of c; x = z * beta has twist 1 and xr = x^r
    is diagonal; g is the fixed unipotent conjugating element and y = x^g;
    ctx is D = <x, c> in normal form.  c, x, xr and g are elements of G in
    coordinates (`GElement`).  No __slots__, so the cached properties have
    an instance dict to fill.
    """

    @cached_property
    def y(self) -> GElement:
        """x^g, the far end of the witness path."""
        return self.g.inverse() * self.x * self.g

    @cached_property
    def f_fixed_points(self) -> dict:
        """The C_F(w) report of each element w solved so far, filled by
        `solved_fixed_points`."""
        return {}

    @cached_property
    def f_law(self) -> bool:
        """True once `_check_f_law` has checked F's coordinate law against
        the symbolic matrix product, once per example; reading it raises
        SymbolicFailure while the law differs."""
        _check_f_law(self.spec)
        return True

    @cached_property
    def d_elements(self) -> list:
        """Every element of D in normal form; built only when asked for."""
        c_powers = self.ctx.powers(self.ctx.c)
        return [(i, h) for i in range(self.ctx.order_x) for _, h in c_powers]

    @cached_property
    def d_centre(self) -> list:
        """Z(D) = C_D(x) & C_D(c), as a description.

        c = x^0 c_f, so every entry of C_D(c) is (i, ALL), and the
        intersection keeps the entries of C_D(x) at those i.
        """
        ctx = self.ctx
        with_c = {i for i, _ in ctx.centralizer(ctx.c)}
        return [(i, h) for i, h in ctx.centralizer(ctx.x) if i in with_c]

    def f_order(self) -> int:
        # |F| = q^{4r}: four free coordinates over GF(q^r); formula only
        return self.params.q ** (4 * self.params.r)


def build_example(params: ParamTriple) -> ExampleGroup:
    """Construct the witness group data for one parameter triple.

    Deterministic choices: u is the first element of order r^2 in canonical
    coefficient order, v the first partner making {u^r, u^-r, v^r, v^-r} a
    4-set, f the canonical element of order t.  The elements of order r^2 are
    h^k with gcd(k, r) = 1 for h the canonical element of order r^2, so only
    those r(r-1) candidates are sorted.  (h^k)^r = (h^l)^(+-r) exactly when
    k = +-l mod r, and k_u != -k_u mod r as r is odd, so u is the first
    candidate and v the first h^l with l != +-k_u mod r, which exists as
    r >= 5.  D stays in its metacyclic normal form x^i c_h, unenumerated.
    """
    problems = validate_params(params.q, params.r, params.t)
    if problems:
        raise NoSuchParams("; ".join(problems))
    q, r, t = params.q, params.r, params.t
    spec = field_create(q, r)

    n = r * r
    h = element_of_order(spec, n)
    h_pows = [spec.one()]
    for _ in range(n - 1):
        h_pows.append(h_pows[-1] * h)
    # the exponents k of the candidates, in the coefficient order of h^k
    order_r2 = sorted((k for k in range(1, n) if k % r), key=lambda k: h_pows[k].coeffs)
    ku = order_r2[0]
    kv = next(k for k in order_r2 if (k - ku) % r and (k + ku) % r)
    u, v = h_pows[ku], h_pows[kv]
    f = element_of_order(spec, t)  # t divides q^r - 1, as validate_params checked

    z = (u, v, h_pows[-kv % n], h_pows[-ku % n])
    ctx = _NormalForm(spec, z, f, t)
    zero, one = spec.zero(), spec.one()
    c, x, xr = (GElement((zero,) * 5, d, ctx) for d in (ctx.c, ctx.x, (r % ctx.order_x, one)))
    g = GElement(FCoords(a=zero, b=one, c=zero, d=one, x=one), ctx.identity(), ctx)
    return ExampleGroup(params=params, spec=spec, u=u, v=v, f=f, z=z, c=c, x=x, xr=xr, g=g, ctx=ctx)


# ---------------------------------------------------------------------------
# symbolic machinery over F


def generic_f_coords(spec: FieldSpec, nvars: int, base: int) -> tuple:
    """The coordinates (a, b, c, d, x) of a symbolic F element on variables
    (a, x, d, c) = base..base+3; b = d + x*a."""
    a, x, d, c = (Poly.variable(spec, base + i, nvars) for i in range(4))
    return (a, d + x * a, c, d, x)


def generic_f_matrix(spec: FieldSpec, nvars: int, base: int):
    """The matrix of `generic_f_coords`."""
    one, zero = Poly.constant(spec, 1, nvars), Poly.zero(spec, nvars)
    return _f_rows(one, zero, *generic_f_coords(spec, nvars, base))


# ---------------------------------------------------------------------------
# verification operations


def verify_symplectic(eg: ExampleGroup) -> bool:
    """z, c, g and a generic F element all satisfy A J A^T = J; a twist
    fixes J, so it is left out."""
    spec = eg.spec
    one, zero = spec.one(), spec.zero()
    J = _form_matrix(spec)
    c_diag, _ = eg.ctx.diagonal(eg.c.d)
    numeric = [_diag(zero, lam) for lam in ([one] * 4, eg.z, c_diag)]
    if not all(_is_symplectic(zero, J, m) for m in numeric + [_f_rows(one, zero, *eg.g.f)]):
        return False
    # symbolic generic member of F; a numeric factor times a Poly is a Poly
    generic = generic_f_matrix(spec, 4, 0)
    return _is_symplectic(Poly.zero(spec, 4), J, generic)


def verify_d_structure(eg: ExampleGroup) -> dict:
    """Check the structure of D = <x, c>; raises CheckFailed with the clause."""
    spec, ctx = eg.spec, eg.ctx
    q, r, t = eg.params.q, eg.params.r, eg.params.t
    report: dict = {}

    # (i) x^r, diagonal as `_NormalForm` checked, has order r: (u*beta)^r =
    # u^(1 + q + ... + q^(r-1)), the norm N(u), and the exponent sum is
    # congruent to r mod r^2, landing in GF(q)
    nsum = sum(q ** i for i in range(r))
    report["exponent_sum"] = nsum
    if nsum % (r * r) != r:
        raise CheckFailed("xr-exponent", f"{nsum} != {r} mod r^2")
    nu, nv = norm(eg.u), norm(eg.v)
    if ctx.diagonal(eg.xr.d) != ([nu, nv, nv.inverse(), nu.inverse()], 0):
        raise CheckFailed("xr-exponent", "x^r != z^(1+q+...+q^(r-1))")
    if any(frobenius_map(e) != e for e in ctx.xr_diag):
        raise CheckFailed("xr-ground-field", "x^r entries not Frobenius-fixed")
    report["xr_order"] = ctx.order_xr
    if ctx.order_xr != r:
        raise CheckFailed("xr-order", f"order {ctx.order_xr} != {r}")

    # (ii) [x^r, c] = 1
    if eg.xr * eg.c != eg.c * eg.xr:
        raise CheckFailed("xr-commutes-c")

    # (iii) c^q != c, where c^q = c_(f^q); `_NormalForm` checked x^{-1} c x = c^q
    if eg.c.d == (0, eg.f ** q):
        raise CheckFailed("conj-c-by-x", "c^q == c")

    # (iv) |D| = r^2 t, and Z(D) = <x^r>
    report["d_order"] = ctx.order
    if ctx.order != r * r * t:
        raise CheckFailed("d-order", f"|D| = {ctx.order}")
    xr_powers = set(ctx.powers(eg.xr.d))
    report["centre_order"] = ctx.count(eg.d_centre)
    if set(eg.d_centre) != xr_powers:
        raise CheckFailed("centre-of-D", "Z(D) != <x^r>")
    return report


FixedPointReport = namedtuple("FixedPointReport", "count coord_sizes free_coords")


def fixed_points_in_F(eg: ExampleGroup, w: GElement) -> FixedPointReport:
    """Solve C_F(w) for a nonidentity element w of D, by its diagonal and
    twist (`_diagonal_fixed_points`); raises NotNormalizing for the identity
    and for an element outside D."""
    if w.is_identity():
        raise NotNormalizing("fixed points of the identity are all of F")
    if not _is_trivial(w.f):
        raise NotNormalizing("w must lie in D to normalize F entry-wise")
    return _diagonal_fixed_points(eg.spec, *eg.ctx.diagonal(w.d))


def _diagonal_fixed_points(spec: FieldSpec, lam, twist: int) -> FixedPointReport:
    """Solve C_F(w) for w with the diagonal lam and the twist.

    Conjugation by w maps the entry m at (j, l) to mu * sigma(m), where
    sigma = Frob^twist and mu = sigma(lam_l / lam_j) (`_multipliers`), so
    each coordinate solves its own semilinear equation mu * sigma(m) = m, in
    closed form by `_fixed_set`; each solution set is a GF(q)-subspace.  The
    multipliers satisfy mu_x mu_a = mu_b for every such w, and w normalizes
    F exactly when lam_0 lam_3 = lam_1 lam_2, in which case -a at (3, 2) has
    a's multiplier and d has b's.  Then for a, x and d in their solution
    sets, b = d + x*a lies in b's, so |C_F(w)| = |S_a| |S_x| |S_d| |S_c|.
    """
    if lam[0] * lam[3] != lam[1] * lam[2]:
        raise NotNormalizing("w does not normalize F: lam_0 lam_3 != lam_1 lam_2")
    sets = {name: _fixed_set(spec, mu, twist) for name, mu in _multipliers(lam, twist).items()}
    sizes = {name: spec.size if s is ALL else len(s) for name, s in sets.items()}
    return FixedPointReport(
        count=sizes["a"] * sizes["x"] * sizes["d"] * sizes["c"],
        coord_sizes=sizes,
        free_coords=[name for name, s in sets.items() if s is ALL],
    )


def solved_fixed_points(eg: ExampleGroup, w: GElement) -> FixedPointReport:
    """fixed_points_in_F(eg, w), solved once per element of an example and
    kept on it."""
    reports = eg.f_fixed_points
    if w not in reports:
        reports[w] = fixed_points_in_F(eg, w)
    return reports[w]


def _fixed_set(spec: FieldSpec, mu: FieldElement, i: int):
    """{m in GF(q^r) : mu * m^(q^i) = m}: ALL, or a set of at most q elements.

    For i = 0 the equation is (mu - 1) m = 0.  Otherwise sigma = Frob^i
    generates Gal(GF(q^r)/GF(q)) because r is prime.  By Hilbert's Theorem 90
    a nonzero solution exists iff the norm N(mu) = mu^((q^r-1)/(q-1)), the
    product of mu's r conjugates, is 1, and the solutions are then the line
    m0 * GF(q) for any nonzero value m0 of sum_k c_k sigma^k(theta), where
    c_0 = 1 and c_(k+1) = mu sigma(c_k).  The sum is GF(q)-linear in theta
    and not identically zero (Dedekind), so a basis element theta gives m0
    (Lang, Algebra, ch. VI).
    """
    zero, one = spec.zero(), spec.one()
    if i == 0:
        return ALL if mu == one else {zero}
    if norm(mu) != one:
        return {zero}
    cs = [one]
    for _ in range(spec.k - 1):
        cs.append(mu * frobenius_map(cs[-1], i))
    for e in range(spec.k):
        theta = spec.element([int(d == e) for d in range(spec.k)])  # X^e
        m0 = sum((ck * frobenius_map(theta, i * k) for k, ck in enumerate(cs)), zero)
        if not m0.is_zero():
            return {m0 * a for a in range(spec.p)}
    raise AssertionError("Hilbert-90 sum vanished on a basis")  # excluded by Dedekind


# d_part is C_D(w) as described by _NormalForm.centralizer, f_part C_F(w)
CentralizerReport = namedtuple("CentralizerReport", "d_part_order f_part order d_part")


def centralizer_in_G(eg: ExampleGroup, w: GElement) -> CentralizerReport:
    """C_G(w) for w in D, via the splitting C_G(w) = C_F(w) * C_D(w).

    Every g factors uniquely as g = f*d' with f in F and d' in D (F is
    normal, D meets F trivially, and the orders are coprime); comparing
    normal forms of (f d')w and w(f d') forces d'w = wd' and f^w = f
    separately, so the two factors are computed independently.
    """
    ctx = eg.ctx
    if not _is_trivial(w.f):
        raise NotInD("element is not a member of D")
    if w.d == ctx.identity():
        raise NotInD("w must be a nonidentity element of D")
    c_d = ctx.centralizer(w.d)
    d_order = ctx.count(c_d)
    fp = solved_fixed_points(eg, w)
    return CentralizerReport(
        d_part_order=d_order,
        f_part=fp,
        order=d_order * fp.count,
        d_part=c_d,
    )


# ---------------------------------------------------------------------------
# separation, and the path


SeparationReport = namedtuple("SeparationReport", "entry monomial")


def _separation_families(spec, h):
    """C_F(c) = {(a, 0, 0, 0, 0)} on variable a, and its conjugate by the F
    element of coordinates h on variable b, in F's coordinates over the
    polynomials in (a, b)."""
    zero = Poly.zero(spec, 2)
    w, w_b = ((Poly.variable(spec, i, 2), zero, zero, zero, zero) for i in range(2))
    return w, _f_mul(_f_mul(_f_inv(h), w_b), h)


def verify_family_separation(eg: ExampleGroup) -> SeparationReport:
    """No member of C_F(c)^# commutes with any member of (C_F(c)^g)^#.

    Computes the commutator of the two symbolic one-parameter families in
    F's coordinates, under the law `ExampleGroup.f_law` checks, and exhibits
    an entry of its matrix that is a nonzero scalar multiple of a monomial
    a^i b^j with i, j >= 1; such an entry cannot vanish for nonzero a, b
    because a field has no zero divisors.  The entries are scanned in row
    order: the matrix differs from the identity only below the diagonal, at
    the coordinates' entries and at (3, 2), whose -a comes after a at
    (1, 0).  For every odd q the commutator differs from the identity only
    at (3, 0), by 2*a*b, so the certificate always exists for valid
    parameters; if none is found, raises SymbolicFailure.
    """
    eg.f_law  # raises SymbolicFailure unless the law is the matrix product's
    comm = dict(zip(FCoords._fields, _f_commutator(*_separation_families(eg.spec, eg.g.f))))
    for name, i, j in sorted(_F_ENTRIES, key=lambda entry: entry[1:]):
        cert = comm[name].monomial_certificate()
        if cert is not None and min(cert[1]) >= 1:  # c * a^ea * b^eb, ea, eb >= 1
            coeff, (ea, eb) = cert
            return SeparationReport(entry=(i, j), monomial=f"{coeff}*a^{ea}*b^{eb}")
    raise SymbolicFailure("no commutator entry is a nonzero monomial a^i b^j with i, j >= 1")


class PathReport(namedtuple("PathReport", "labels elements")):
    """The labelled vertices of a path; its len() counts edges."""

    __slots__ = ()

    def __len__(self):
        return len(self.elements) - 1


def witness_path8(eg: ExampleGroup) -> PathReport:
    """The explicit 8-edge commuting path from x to y = x^g.

    x ~ x^r ~ c ~ w ~ u ~ w* ~ c^g ~ (x^r)^g ~ y with w in C_F(c), u in
    Z(F) (the c-coordinate family, central in F) and w* in C_F(c^g); every
    consecutive pair is checked to commute, and the nine elements are
    pairwise distinct and nonidentity.
    """
    spec, ctx = eg.spec, eg.ctx
    one, zero = spec.one(), spec.zero()
    w = GElement(FCoords(a=one, b=zero, c=zero, d=zero, x=zero), ctx.identity(), ctx)
    u = GElement(FCoords(a=zero, b=zero, c=one, d=zero, x=zero), ctx.identity(), ctx)
    g, g_inv = eg.g, eg.g.inverse()
    path = [eg.x, eg.xr, eg.c, w, u, g_inv * w * g, g_inv * eg.c * g, g_inv * eg.xr * g, eg.y]
    labels = ["x", "x^r", "c", "w", "u", "w*", "c^g", "(x^r)^g", "y"]
    for i in range(len(path) - 1):
        if path[i] * path[i + 1] != path[i + 1] * path[i]:
            raise PathBroken(i, f"{labels[i]} and {labels[i + 1]} do not commute")
    # x, x^r, c and w come back conjugated by g, so an identity on the path
    # is also a repeated element; it is named first
    if any(e.is_identity() for e in path):
        raise PathBroken(-1, "identity appears on the path")
    if len(set(path)) != len(path):
        raise PathBroken(-1, "path elements are not distinct")
    return PathReport(labels=labels, elements=path)


class Class3Report(namedtuple(
    "Class3Report", "derived_nontrivial triple_nontrivial quadruple_trivial"
)):
    __slots__ = ()

    @property
    def ok(self):
        return self.derived_nontrivial and self.triple_nontrivial and self.quadruple_trivial


def _f_mul(g, h):
    """The product of two elements of F in coordinates (a, b, c, d, x)."""
    a1, b1, c1, d1, x1 = g
    a2, b2, c2, d2, x2 = h
    return (a1 + a2, b1 + b2 + x1 * a2, c1 + c2 + d1 * a2 - a1 * b2, d1 + d2 - a1 * x2, x1 + x2)


def _f_inv(g):
    """The inverse of an element of F in coordinates (a, b, c, d, x)."""
    a, b, c, d, x = g
    xa = x * a
    return (-a, xa - b, a * d - a * b + a * xa - c, -d - xa, -x)


def _f_commutator(g, h):
    """[g, h] = g^-1 h^-1 g h = (hg)^-1 (gh), in coordinates."""
    return _f_mul(_f_inv(_f_mul(h, g)), _f_mul(g, h))


def _check_f_law(spec):
    """Check `_f_mul` and `_f_inv` against the symbolic matrix product of two
    generic F elements; raises SymbolicFailure if either differs."""
    one, zero = Poly.constant(spec, 1, 8), Poly.zero(spec, 8)
    g, h = generic_f_coords(spec, 8, 0), generic_f_coords(spec, 8, 4)
    m1, m2 = _f_rows(one, zero, *g), _f_rows(one, zero, *h)
    if _f_rows(one, zero, *_f_mul(g, h)) != _mat_mul(zero, m1, m2):
        raise SymbolicFailure("the product in F's coordinates differs from the matrix product")
    if _mat_mul(zero, m1, _f_rows(one, zero, *_f_inv(g))) != _diag(zero, [one] * 4):
        raise SymbolicFailure("the inverse in F's coordinates is not the matrix inverse")


def _check_action(ctx: _NormalForm, z, f: FieldElement):
    """Check D's product and action on F's coordinates against the twisted
    matrices, once per example; raises NotNormalizing if they differ.

    As `matrices.MatrixAutElement`s, x is (diag(z), 1) and c is
    (diag(f, f, f^-1, f^-1), 0), and m' = a^-1 m a means m a = a m'.  The
    check takes a = x and a = c x x: both generators, a twist of 2 and a
    c-part moved by a twist.  Every coordinate of the F element lies
    outside GF(q), so a twist shows on it, and the entry -a at (3, 2)
    matches only if lam_0 lam_3 = lam_1 lam_2.
    """
    spec = ctx.spec
    one, zero = spec.one(), spec.zero()
    theta = spec.element([0, 1] + [0] * (spec.k - 2))
    f0 = FCoords(a=theta, b=theta + theta * theta, c=theta, d=theta, x=theta)
    m = MatrixAutElement(spec, _f_rows(one, zero, *f0))
    x = MatrixAutElement(spec, _diag(zero, z), 1)
    c = MatrixAutElement(spec, _diag(zero, (f, f) + (f.inverse(),) * 2))
    cxx = ctx.mul(ctx.c, ctx.mul(ctx.x, ctx.x))
    for d, a in ((ctx.x, x), (cxx, c * x * x)):
        if m * a != a * MatrixAutElement(spec, _f_rows(one, zero, *ctx.act(f0, d))):
            raise NotNormalizing("D's action on F's coordinates is not the matrix conjugation")


def verify_f_class3(eg: ExampleGroup) -> Class3Report:
    """F has nilpotency class exactly 3, by generic left-normed commutators.

    The commutators are taken in F's coordinates, under the law
    `ExampleGroup.f_law` checks.
    """
    eg.f_law  # raises SymbolicFailure unless the law is the matrix product's
    gs = [generic_f_coords(eg.spec, 16, 4 * i) for i in range(4)]
    comm2 = _f_commutator(gs[0], gs[1])
    comm3 = _f_commutator(comm2, gs[2])
    comm4 = _f_commutator(comm3, gs[3])
    return Class3Report(
        derived_nontrivial=not _is_trivial(comm2),
        triple_nontrivial=not _is_trivial(comm3),
        quadruple_trivial=_is_trivial(comm4),
    )


def verify_not_frobenius_structure(eg: ExampleGroup) -> bool:
    """G is neither Frobenius nor 2-Frobenius.

    C_F(c) != 1 rules out Frobenius directly; and G/F = D has nontrivial
    centre <x^r>, so D is not a Frobenius group, ruling out 2-Frobenius
    (the kernel chain would force K = F and G/F Frobenius).
    """
    fp = solved_fixed_points(eg, eg.c)
    if fp.count <= 1:
        return False
    return eg.ctx.count(eg.d_centre) > 1


# ---------------------------------------------------------------------------
# check-suite driver (used by the CLI)


def _not_passed(name: str, exc: Exception) -> dict:
    """A package error is a failed check; any other exception is a code error."""
    if isinstance(exc, CommGraphError):
        return {"name": name, "status": "fail", "detail": str(exc)}
    return {"name": name, "status": "error", "detail": f"{type(exc).__name__}: {exc}"}


def run_all_checks(q: int = 11, r: int = 5, t: int = 3221) -> dict:
    """Run the whole verification suite; returns the report dictionary.

    A check that raises a package error has status "fail"; one that raises
    anything else (a bug, not a mathematical finding) has status "error".
    """
    checks: list[dict] = []
    report = {"params": {"q": q, "r": r, "t": t}, "checks": checks, "group_order": ""}

    def record(name, fn):
        try:
            detail = fn()
        except Exception as exc:
            checks.append(_not_passed(name, exc))
            return None
        checks.append({"name": name, "status": "pass", "detail": detail or ""})
        return True

    problems = validate_params(q, r, t)
    if problems:
        checks.append({"name": "params", "status": "fail", "detail": "; ".join(problems)})
        return report
    checks.append({"name": "params", "status": "pass", "detail": f"({q}, {r}, {t}) valid"})

    params = ParamTriple(q, r, t)
    try:
        eg = build_example(params)
    except Exception as exc:
        checks.append(_not_passed("build", exc))
        return report
    checks.append({"name": "build", "status": "pass", "detail": f"|D| = {eg.ctx.order}"})

    def chk_symplectic():
        if not verify_symplectic(eg):
            raise CheckFailed("symplectic", "A J A^T != J")
        return "z, c and generic F preserve the form"

    def chk_d_structure():
        rep = verify_d_structure(eg)
        return f"x^r order {rep['xr_order']}, |Z(D)| = {rep['centre_order']}"

    def chk_fixed_points():
        fz = solved_fixed_points(eg, eg.xr)
        fx = solved_fixed_points(eg, eg.x)
        fc = solved_fixed_points(eg, eg.c)
        if fz.count != 1:
            raise CheckFailed("fixed-points", f"|C_F(z^r)| = {fz.count}")
        if fx.count != 1:
            raise CheckFailed("fixed-points", f"|C_F(x)| = {fx.count}")
        if fc.count != eg.spec.size or fc.free_coords != ["a"]:
            raise CheckFailed("fixed-points", f"C_F(c): {fc.coord_sizes}")
        return f"|C_F(z^r)| = 1, |C_F(x)| = 1, |C_F(c)| = {fc.count}"

    def chk_centralizers():
        cx = centralizer_in_G(eg, eg.x)
        x_powers = set(eg.ctx.powers(eg.x.d))
        if set(cx.d_part) != x_powers or cx.order != r * r:
            raise CheckFailed("centralizers", f"C_G(x) order {cx.order}")
        cxr = centralizer_in_G(eg, eg.xr)
        if cxr.d_part_order != eg.ctx.order or cxr.f_part.count != 1:
            raise CheckFailed("centralizers", f"C_G(x^r) order {cxr.order}")
        cc = centralizer_in_G(eg, eg.c)
        # <c, x^r> = {x^i c^j : r divides i}, as x^r normalizes <c>
        sub = [(i, ALL) for i in range(0, eg.ctx.order_x, r)]
        if cc.d_part != sub or cc.d_part_order != r * t:
            raise CheckFailed("centralizers", f"C_D(c) order {cc.d_part_order}")
        return (
            f"|C_G(x)| = {cx.order}, C_G(x^r) = D (order {cxr.order}), "
            f"|C_G(c)| = {cc.order} = {cc.d_part_order} * {cc.f_part.count}"
        )

    def chk_family_separation():
        rep = verify_family_separation(eg)
        return f"certificate at entry {rep.entry}: {rep.monomial}"

    def chk_path8():
        rep = witness_path8(eg)
        if len(rep) != 8:
            raise CheckFailed("path8", f"path length {len(rep)}")
        return "8-edge commuting path x .. y verified"

    def chk_class3():
        rep = verify_f_class3(eg)
        if not rep.ok:
            raise CheckFailed("class3", str(rep))
        return "triple commutator nontrivial, quadruple trivial"

    def chk_order():
        total = example_group_order(params)
        if total != eg.f_order() * eg.ctx.order:
            raise CheckFailed("group-order", "formula disagrees with |F| * |D|")
        report["group_order"] = str(total)
        return str(total)

    def chk_not_frobenius():
        if not verify_not_frobenius_structure(eg):
            raise CheckFailed("not-frobenius")
        return "C_F(c) != 1 and Z(G/F) != 1"

    record("symplectic", chk_symplectic)
    record("d_structure", chk_d_structure)
    record("fixed_points", chk_fixed_points)
    record("centralizers", chk_centralizers)
    record("family_separation", chk_family_separation)
    record("path8", chk_path8)
    record("f_class3", chk_class3)
    record("group_order", chk_order)
    record("not_frobenius", chk_not_frobenius)
    return report


def first_failing_check(report: dict) -> str | None:
    """Name of the first check that did not pass (failed or raised), if any."""
    for check in report["checks"]:
        if check["status"] != "pass":
            return check["name"]
    return None

"""Invertible matrices over GF(p^k) with a Frobenius twist, and the square
matrix helpers.

This module is the one implementation of the twisted product.
`MatrixAutElement` backs the walk's matrix groups and the witness family's
check of D's action on F against the twisted matrices.  The square matrix
helpers work over any ring whose elements have `is_zero`, so the witness
family in `diameter8`, which holds its group in coordinates, uses them
only for its symplectic check and, on polynomial entries, for the check of
F's coordinate law.  The field layer is reached through the lazy `fields`
module, so importing this module compiles no field code.
"""

from __future__ import annotations

from . import fields


class MatrixAutElement:
    """Invertible matrix over GF(p^k) together with a Frobenius twist.

    The twist exponent i stands for the i-th power of the Frobenius
    automorphism of the entry field.  Multiplication follows
    (A, i) * (B, j) = (A * beta^{-i}(B), i + j mod k), which makes
    conjugation by the pure twist element apply beta to matrix entries:
    (B, 0) ^ (1, i) = (beta^i(B), 0).
    """

    __slots__ = ("spec", "mat", "twist", "_hash")

    def __init__(self, spec: fields.FieldSpec, mat, twist: int = 0):
        self.spec = spec
        self.mat = tuple(tuple(row) for row in mat)
        self.twist = twist % spec.k
        self._hash = hash((self.twist, tuple(e.coeffs for row in self.mat for e in row)))

    @property
    def dim(self) -> int:
        return len(self.mat)

    def __mul__(self, other: "MatrixAutElement") -> "MatrixAutElement":
        b = _mat_frob(other.spec, other.mat, -self.twist)
        return MatrixAutElement(
            self.spec, _mat_mul(self.spec.zero(), self.mat, b), self.twist + other.twist
        )

    def inverse(self) -> "MatrixAutElement":
        inv = _mat_inv(self.spec, self.mat)
        return MatrixAutElement(self.spec, _mat_frob(self.spec, inv, self.twist), -self.twist)

    def identity(self) -> "MatrixAutElement":
        return MatrixAutElement(self.spec, _diag(self.spec.zero(), [self.spec.one()] * self.dim), 0)

    def is_identity(self) -> bool:
        return not self.twist and self.mat == self.identity().mat

    def key(self):
        return (self.twist,) + tuple(e.coeffs for row in self.mat for e in row)

    def ambient(self):
        return ("mat", self.spec, self.dim)

    def to_json(self):
        return {
            "twist": self.twist,
            "matrix": [[list(e.coeffs) for e in row] for row in self.mat],
        }

    def __eq__(self, other):
        return (
            isinstance(other, MatrixAutElement)
            and self.twist == other.twist
            and self.mat == other.mat
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"MatAut(twist={self.twist}, {self.mat})"


def _diag(zero, entries):
    """The square diagonal matrix with the given entries, over the ring whose
    zero is given."""
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else zero for j in range(n)) for i in range(n))


def _mat_mul(zero, a, b):
    """Square matrix product over any ring whose elements have `is_zero`.

    Each entry is tested for zero once: b's nonzero entries are listed by
    row, and row i of the product adds a[i][k] times row k of b for each
    nonzero a[i][k], in increasing k as a dot product would.
    """
    dim = len(a)
    b_rows = [[(j, y) for j, y in enumerate(row) if not y.is_zero()] for row in b]
    out = []
    for arow in a:
        acc = [None] * dim
        for x, brow in zip(arow, b_rows):
            if not brow or x.is_zero():
                continue
            for j, y in brow:
                term = x * y
                acc[j] = term if acc[j] is None else acc[j] + term
        out.append(tuple(zero if s is None else s for s in acc))
    return tuple(out)


def _mat_frob(spec, a, i):
    """Frobenius^i on every entry; zero and GF(p) entries are fixed and kept."""
    i %= spec.k
    if i == 0:
        return a
    return tuple(
        tuple(fields.frobenius_map(e, i) if any(e.coeffs[1:]) else e for e in row) for row in a
    )


def _mat_inv(spec, a):
    """Gaussian elimination; raises on singular input."""
    dim = len(a)
    ident = _diag(spec.zero(), [spec.one()] * dim)
    aug = [list(a[i]) + list(ident[i]) for i in range(dim)]
    for col in range(dim):
        piv = next((r for r in range(col, dim) if not aug[r][col].is_zero()), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [e * inv for e in aug[col]]
        for r in range(dim):
            if r != col and not aug[r][col].is_zero():
                fac = aug[r][col]
                aug[r] = [aug[r][i] - fac * aug[col][i] for i in range(2 * dim)]
    return tuple(tuple(aug[i][dim:]) for i in range(dim))

"""Benchmark group ladder, built in code from the workload seed.

Every rung is a soluble group whose verdict or graph invariants follow from
its construction.  The seed relabels the points of a permutation group by a
random conjugation and shuffles the order of its generators; for a matrix
group it only shuffles the generator order.  Every checked output (verdict,
orders, diameter, sorted class sizes, edge and component counts) is
invariant under both changes, so the expected values below hold for any
seed.

The small field arithmetic here is independent of ``commgraph.fields``: the
benchmark builds its inputs without the code it measures.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# GF(p^k) on integers 0 .. p^k - 1 (base-p digits, low degree first)


def _digits(a, p, k):
    return [(a // p ** i) % p for i in range(k)]


def _undigits(ds, p):
    return sum(d * p ** i for i, d in enumerate(ds))


def gf_mul(a, b, p, modulus):
    """Product in GF(p)[X]/(modulus); modulus is monic, low degree first."""
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(_digits(a, p, k)):
        for j, y in enumerate(_digits(b, p, k)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for deg in range(2 * k - 2, k - 1, -1):
        c = prod[deg]
        if c:
            for i in range(k + 1):
                prod[deg - k + i] = (prod[deg - k + i] - c * modulus[i]) % p
    return _undigits(prod[:k], p)


def gf_pow(a, e, p, modulus):
    out = 1
    for _ in range(e):
        out = gf_mul(out, a, p, modulus)
    return out


def gf_add(a, b, p, k):
    return _undigits([(x + y) % p for x, y in zip(_digits(a, p, k), _digits(b, p, k))], p)


def gf_primitive(p, modulus):
    """Least element of multiplicative order p^k - 1."""
    n = p ** (len(modulus) - 1) - 1
    for a in range(2, n + 1):
        acc, order = a, 1
        while acc != 1:
            acc = gf_mul(acc, a, p, modulus)
            order += 1
        if order == n:
            return a
    raise ValueError("modulus is not irreducible")


GF8 = (2, [1, 1, 0, 1])        # X^3 + X + 1
GF16 = (2, [1, 1, 0, 0, 1])    # X^4 + X + 1
GF9 = (3, [1, 0, 1])           # X^2 + 1


# ---------------------------------------------------------------------------
# permutation constructions (image arrays, 0-based)


def _shift(perm, offset, degree):
    out = list(range(degree))
    for i, j in enumerate(perm):
        out[offset + i] = offset + j
    return out


def symmetric_gens(n, offset=0, degree=None):
    degree = n if degree is None else degree
    swap = [1, 0] + list(range(2, n))
    cycle = list(range(1, n)) + [0]
    return [_shift(swap, offset, degree), _shift(cycle, offset, degree)]


def agl1(p, root, offset=0, degree=None):
    """AGL(1, p) = {x -> a x + b}: translation and multiplication by a primitive root."""
    degree = p if degree is None else degree
    return [
        _shift([(i + 1) % p for i in range(p)], offset, degree),
        _shift([(root * i) % p for i in range(p)], offset, degree),
    ]


def semilinear_affine(p, modulus, mult_power=1):
    """x -> lam x^(p^i) + b on GF(p^k), lam in the group generated by w^mult_power."""
    k = len(modulus) - 1
    size = p ** k
    lam = gf_pow(gf_primitive(p, modulus), mult_power, p, modulus)
    return [
        [gf_add(a, 1, p, k) for a in range(size)],
        [gf_mul(lam, a, p, modulus) for a in range(size)],
        [gf_pow(a, p, p, modulus) for a in range(size)],
    ]


def wreath_s3_c2():
    return symmetric_gens(3, 0, 6) + [[3, 4, 5, 0, 1, 2]]


def s3_cubed():
    return [g for b in range(3) for g in symmetric_gens(3, 3 * b, 9)]


# ---------------------------------------------------------------------------
# matrix constructions


def gl2_3():
    """GL(2, 3) from diag(-1, 1) and [[-1, 1], [-1, 0]]."""
    gens = [[[2, 0], [0, 1]], [[2, 1], [2, 0]]]
    return {
        "type": "matrix",
        "field": {"p": 3, "k": 1, "modulus": [0, 1]},
        "dim": 2,
        "aut_order": 1,
        "generators": [
            {"twist": 0, "matrix": [[[e] for e in row] for row in m]} for m in gens
        ],
    }


def agaml1_9_matrix():
    """AGammaL(1, 9) as [[a, b], [0, 1]] over GF(9) with the Frobenius twist."""
    p, modulus = GF9  # X^2 + 1 is also the modulus commgraph itself picks for GF(9)
    k = len(modulus) - 1
    w = gf_primitive(p, modulus)

    def mat(rows):
        return [[_digits(e, p, k) for e in row] for row in rows]

    return {
        "type": "matrix",
        "field": {"p": p, "k": k, "modulus": modulus},
        "dim": 2,
        "aut_order": k,
        "generators": [
            {"twist": 0, "matrix": mat([[w, 0], [0, 1]])},
            {"twist": 0, "matrix": mat([[1, 1], [0, 1]])},
            {"twist": 1, "matrix": mat([[1, 0], [0, 1]])},
        ],
    }


# ---------------------------------------------------------------------------
# seeded relabelling


def perm_file(gens, rng):
    degree = len(gens[0])
    pi = list(range(degree))
    rng.shuffle(pi)
    # conjugate by pi: point i is renamed pi[i]
    relabelled = []
    for g in gens:
        out = [0] * degree
        for i, j in enumerate(g):
            out[pi[i]] = pi[j]
        relabelled.append(out)
    rng.shuffle(relabelled)
    return {"type": "permutation", "degree": degree, "generators": relabelled}


def matrix_file(payload, rng):
    out = dict(payload)
    out["generators"] = list(payload["generators"])
    rng.shuffle(out["generators"])
    return out


@dataclass(frozen=True)
class Rung:
    """One ladder group: how to build it and what the program must report."""

    name: str
    build: object                   # rng -> group-file payload
    verdict: dict = field(default_factory=dict)   # expected analyze row, minus "file"
    graph: dict = field(default_factory=dict)     # expected graph-export invariants


def _perm(gens_fn):
    return lambda rng: perm_file(gens_fn(), rng)


def _mat(payload_fn):
    return lambda rng: matrix_file(payload_fn(), rng)


AGAML1_9_GRAPH = {"class_sizes": {1: 21, 2: 34, 6: 9}, "edges": 123, "diameter": 4,
                  "components": 1}

ANALYZE_RUNGS = [
    Rung("agl1_13", _perm(lambda: agl1(13, 2)),
         {"kind": "Frobenius", "order": 156, "kernel_order": 13}),
    Rung("agl1_19", _perm(lambda: agl1(19, 2)),
         {"kind": "Frobenius", "order": 342, "kernel_order": 19}),
    Rung("agaml1_8", _perm(lambda: semilinear_affine(*GF8)),
         {"kind": "TwoFrobenius", "order": 168, "K_order": 8, "L_order": 56,
          "gk_metacyclic": True}),
    Rung("c2e4_c5c4", _perm(lambda: semilinear_affine(*GF16, mult_power=3)),
         {"kind": "TwoFrobenius", "order": 320, "K_order": 16, "L_order": 80,
          "gk_metacyclic": True}),
    Rung("s4xs3", _perm(lambda: symmetric_gens(4, 0, 7) + symmetric_gens(3, 4, 7)),
         {"kind": "ConnectedDiameter", "order": 144, "diameter": 3, "components": 1}),
    Rung("s3wrc2", _perm(wreath_s3_c2),
         {"kind": "ConnectedDiameter", "order": 72, "diameter": 4, "components": 1}),
    Rung("agaml1_9", _perm(lambda: semilinear_affine(*GF9)),
         {"kind": "ConnectedDiameter", "order": 144, "diameter": 4, "components": 1}),
    Rung("s3cubed", _perm(s3_cubed),
         {"kind": "ConnectedDiameter", "order": 216, "diameter": 3, "components": 1}),
]

GRAPH_RUNGS = [
    Rung("agl1_13xs3", _perm(lambda: agl1(13, 2, 0, 16) + symmetric_gens(3, 13, 16)),
         graph={"class_sizes": {1: 3, 2: 1, 11: 52, 12: 4, 22: 13, 24: 1}, "edges": 168,
                "diameter": 3, "components": 1}),
    Rung("s3cubed", _perm(s3_cubed),
         graph={"class_sizes": {1: 63, 2: 48, 4: 12, 8: 1}, "edges": 912, "diameter": 3,
                "components": 1}),
    # GL(2, 3) has a centre of order 2; its commuting graph falls apart into
    # the 13 centralizer classes.
    Rung("gl2_3", _mat(gl2_3),
         graph={"class_sizes": {2: 6, 4: 4, 6: 3}, "edges": 0, "diameter": None,
                "components": 13}),
    Rung("agaml1_9_mat", _mat(agaml1_9_matrix), graph=AGAML1_9_GRAPH),
]

def dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_rungs(rungs, seed, directory):
    """Write one file per rung; returns the paths in rung order.

    Each rung draws from its own generator seeded by (seed, name), so adding
    or reordering rungs leaves the other files unchanged.
    """
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for rung in rungs:
        rng = random.Random(f"{seed}:{rung.name}")
        path = directory / f"{rung.name}.json"
        path.write_text(dump(rung.build(rng)))
        paths.append(path)
    return paths

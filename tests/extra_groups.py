"""Groups built in code for the oracle tests, beside the bundled corpus."""

from commgraph.groups import GroupHandle, PermutationElement


def _perm(images):
    return PermutationElement(images)


def _shifted(perm, offset, degree):
    out = list(range(degree))
    for i, j in enumerate(perm):
        out[offset + i] = offset + j
    return PermutationElement(out)


EXTRA_GROUPS = {
    # AGL(1, 13): x -> x + 1 and x -> 2x on GF(13), order 156
    "agl1_13": lambda: [_perm([(i + 1) % 13 for i in range(13)]), _perm([2 * i % 13 for i in range(13)])],
    # S4 x S3 on {0..3} and {4..6}, order 144
    "s4xs3": lambda: [
        _shifted(perm, offset, 7)
        for offset, n in ((0, 4), (4, 3))
        for perm in ([1, 0] + list(range(2, n)), list(range(1, n)) + [0])
    ],
    # S3 x S3 x S3 on {0..2}, {3..5} and {6..8}, order 216, six generators
    "s3cubed": lambda: [
        _shifted(perm, offset, 9) for offset in (0, 3, 6) for perm in ([1, 0, 2], [1, 2, 0])
    ],
}

# AGammaL(1, 9) as [[a, b], [0, 1]] over GF(9) = GF(3)[X] / (X^2 + 1), an
# entry a0 + a1 X written [a0, a1]: multiplication by the primitive element
# 1 + X, translation by 1, and the Frobenius twist; order 144
AGAML1_9 = {
    "type": "matrix",
    "field": {"p": 3, "k": 2, "modulus": [1, 0, 1]},
    "dim": 2,
    "aut_order": 2,
    "generators": [
        {"twist": 0, "matrix": [[[1, 1], [0, 0]], [[0, 0], [1, 0]]]},
        {"twist": 0, "matrix": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]},
        {"twist": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
    ],
}


def oracle_group(corpus, name):
    """A corpus group, or one of EXTRA_GROUPS, materialized."""
    if name in EXTRA_GROUPS:
        return GroupHandle(EXTRA_GROUPS[name](), name=name).materialize()
    return corpus[name]

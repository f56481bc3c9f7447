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
}


def oracle_group(corpus, name):
    """A corpus group, or one of EXTRA_GROUPS, materialized."""
    if name in EXTRA_GROUPS:
        return GroupHandle(EXTRA_GROUPS[name](), name=name).materialize()
    return corpus[name]

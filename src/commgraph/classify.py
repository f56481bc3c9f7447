"""Frobenius / 2-Frobenius detection and the classification verdict.

A group X with proper nontrivial normal subgroup J is Frobenius with kernel J
iff C_X(j) <= J for every nonidentity j in J.  Frobenius kernels coincide
with the Fitting subgroup, so only J = F(X) needs testing; likewise the
2-Frobenius candidates are K = F(G) and the preimage L of F(G/K).

X normalizes J, so C_X(j^g) = C_X(j)^g and the condition is checked for one
j per X-class of J.  C_X(j) and j's class are the fibre over j and the
values of j's conjugation images, so the test is index lookups with no
element product.  G is 2-Frobenius iff G/K is Frobenius (with kernel L/K)
and L is Frobenius with kernel K.  G/K is an index group whose element c is
coset number c, so L is the elements of G whose coset label lies in F(G/K).

`classify_group` reaches its Frobenius verdicts only through `is_frobenius`
and `is_two_frobenius`; each starts from F(G), which the handle keeps.  A
2-Frobenius verdict's `gk_metacyclic`, whether G/K is metacyclic, is read
off L/K by `groups.is_metacyclic`.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .graph import build_graph, diameter_and_components
from .groups import (
    GroupHandle,
    SubgroupHandle,
    center,
    fitting_subgroup,
    is_metacyclic,
    is_soluble,
    quotient_group,
)

KIND_HAS_CENTRE = "HasCentre"
KIND_NOT_SOLUBLE = "NotSoluble"
KIND_FROBENIUS = "Frobenius"
KIND_TWO_FROBENIUS = "TwoFrobenius"
KIND_CONNECTED = "ConnectedDiameter"
KIND_DISCONNECTED_OTHER = "DisconnectedOther"


class ClassificationVerdict(namedtuple(
    "ClassificationVerdict",
    "kind order kernel K L diameter components gk_metacyclic",
    defaults=(None,) * 6,
)):
    """kind and order; kernel, K and L are SubgroupHandles, diameter and
    components ints and gk_metacyclic a bool, each None where the verdict
    has none."""

    __slots__ = ()

    def to_json(self) -> dict:
        out = {"kind": self.kind, "order": self.order}
        if self.kernel is not None:
            out["kernel_order"] = self.kernel.order()
        if self.K is not None:
            out["K_order"] = self.K.order()
        if self.L is not None:
            out["L_order"] = self.L.order()
        if self.diameter is not None:
            out["diameter"] = self.diameter
        if self.components is not None:
            out["components"] = self.components
        if self.gk_metacyclic is not None:
            out["gk_metacyclic"] = self.gk_metacyclic
        return out


def _kernel_condition(G: GroupHandle, kernel: SubgroupHandle, pool) -> bool:
    """C_pool(j) <= kernel for every nonidentity j of the kernel; the pool
    is given by its element indices.

    G normalizes the kernel and the pool, so C_pool(j^g) = C_pool(j)^g and
    one j per G-class of the kernel is enough.  C(j) is the fibre over j of
    `GroupHandle.conjugation_images(j)`, and the values are j's class.
    """
    inside = kernel.indices()
    outside = [i for i in pool if i not in inside]
    seen = {0}
    for j in inside:
        if j in seen:
            continue
        img = G.conjugation_images(j)
        if any(img[i] == j for i in outside):
            return False
        seen.update(img)
    return True


def is_frobenius(G: GroupHandle) -> SubgroupHandle | None:
    """The Frobenius kernel F(G) if G is Frobenius, else None."""
    J = fitting_subgroup(G.materialize())
    if J.is_trivial() or J.order() == G.order():
        return None
    return J if _kernel_condition(G, J, range(G.order())) else None


def is_two_frobenius(G: GroupHandle):
    """(K, L) with K = F(G), L the preimage of F(G/K), when G is 2-Frobenius."""
    K = fitting_subgroup(G.materialize())
    if K.is_trivial() or K.order() == G.order():
        return None
    # G/K Frobenius with kernel F(G/K) = L/K
    Q = quotient_group(G, K)
    FQ = is_frobenius(Q)
    if FQ is None:
        return None
    L = SubgroupHandle(G, [i for i, c in enumerate(Q.coset_index_of) if c in FQ.indices()])
    # L Frobenius with kernel K
    return (K, L) if _kernel_condition(G, K, L.indices()) else None


def classify_group(G: GroupHandle) -> ClassificationVerdict:
    """Structural verdict for a finite group.

    Priority: HasCentre > NotSoluble > Frobenius > TwoFrobenius > graph
    analysis.  DisconnectedOther is a sentinel that must never fire for a
    soluble trivial-centre group.
    """
    G.materialize()
    order = G.order()
    if not center(G).is_trivial():
        return ClassificationVerdict(KIND_HAS_CENTRE, order)
    if not is_soluble(G):
        return ClassificationVerdict(KIND_NOT_SOLUBLE, order)
    kernel = is_frobenius(G)
    if kernel is not None:
        return ClassificationVerdict(KIND_FROBENIUS, order, kernel=kernel)
    two = is_two_frobenius(G)
    if two is not None:
        K, L = two
        meta = is_metacyclic(G, K, L)
        return ClassificationVerdict(KIND_TWO_FROBENIUS, order, K=K, L=L, gk_metacyclic=meta)
    graph = build_graph(G)
    res = diameter_and_components(graph)
    ncomp = len(res["components"])
    if res["diameter"] == math.inf:
        return ClassificationVerdict(KIND_DISCONNECTED_OTHER, order, components=ncomp)
    return ClassificationVerdict(
        KIND_CONNECTED, order, diameter=res["diameter"], components=ncomp
    )

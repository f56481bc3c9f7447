"""Commuting graphs of finite groups.

Builds commuting graphs with centralizer-class compression, classifies
soluble trivial-centre groups (disconnected iff Frobenius or 2-Frobenius,
else diameter at most 8), and machine-verifies the explicit diameter-8
witness family over GF(q^r).

`commgraph.diameter8` is registered at import but loaded lazily: its code
runs at the first attribute access, so a process that only classifies or
exports graphs never compiles or runs it.  Its package-level names
(`ParamTriple`, `run_all_checks`, ...) resolve through `__getattr__`.
"""

import importlib.util
import sys

# Registered before the eager submodules, so sys.modules lists it first: code
# that walks the package's modules in order to rebind a function everywhere
# loads diameter8, which then binds the original, before it rebinds the
# defining module.
_spec = importlib.util.find_spec(".diameter8", __name__)
_spec.loader = importlib.util.LazyLoader(_spec.loader)
diameter8 = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diameter8)

from .classify import ClassificationVerdict, classify_group, is_frobenius, is_two_frobenius
from .corpus import list_corpus, load_corpus_group, load_group_file
from .fields import (
    FieldElement,
    FieldSpec,
    Poly,
    element_of_order,
    element_order,
    field_create,
    frobenius_map,
)
from .graph import CommutingGraph, DistanceReport, build_graph, diameter_and_components, distance
from .groups import (
    GroupHandle,
    MatrixAutElement,
    PermutationElement,
    SubgroupHandle,
    center,
    centralizer,
    fitting_subgroup,
    generate_elements,
    is_nilpotent,
    is_soluble,
    p_core,
    quotient_group,
    sylow_profile_cyclic_or_quaternion,
    sylow_subgroup,
)

_DIAMETER8_NAMES = {
    "ExampleGroup", "ParamTriple", "build_example", "example_group_order", "find_params",
    "run_all_checks",
}


def __getattr__(name):
    if name in _DIAMETER8_NAMES:
        return getattr(diameter8, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

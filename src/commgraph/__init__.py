"""Commuting graphs of finite groups.

Builds commuting graphs with centralizer-class compression, classifies
soluble trivial-centre groups (disconnected iff Frobenius or 2-Frobenius,
else diameter at most 8), and machine-verifies the explicit diameter-8
witness family over GF(q^r).

The submodules below are registered at import but loaded lazily: a module's
code runs at its first attribute access, so a process compiles only the
layers it calls (`search-params` none of them).  The walk (group elements,
materialization and its tables) is `walk`, apart from the structure
algorithms in `groups`, so of the layers `graph-export` on a permutation
group loads only `corpus`, `walk` and `graph`.  The package-level names
(`classify_group`, `ParamTriple`, ...) resolve through `__getattr__`.
"""

import importlib.util
import sys

# diameter8 is registered first, so sys.modules lists it first: code that
# walks the package's modules in order to rebind a function everywhere loads
# diameter8, which then binds the original, before it rebinds the defining
# module.
for _name in ("diameter8", "classify", "corpus", "graph", "groups", "walk", "matrices",
              "fields"):
    _spec = importlib.util.find_spec(f".{_name}", __name__)
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = globals()[_name] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del _name, _spec, _module

_HOME = {
    name: module
    for module, names in {
        "classify": "ClassificationVerdict classify_group is_frobenius is_two_frobenius",
        "corpus": "list_corpus load_corpus_group load_group_file",
        "diameter8": "ExampleGroup ParamTriple build_example example_group_order find_params "
                     "run_all_checks",
        "fields": "FieldElement FieldSpec Poly element_of_order element_order field_create "
                  "frobenius_map",
        "graph": "CommutingGraph DistanceReport build_graph diameter_and_components distance",
        "groups": "center centralizer fitting_subgroup is_soluble p_core quotient_group "
                  "sylow_subgroup",
        "matrices": "MatrixAutElement",
        "walk": "GroupHandle PermutationElement SubgroupHandle",
    }.items()
    for name in names.split()
}


def __getattr__(name):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

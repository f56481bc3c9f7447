"""Commuting graphs of finite groups.

Builds commuting graphs with centralizer-class compression, classifies
soluble trivial-centre groups (disconnected iff Frobenius or 2-Frobenius,
else diameter at most 8), and machine-verifies the explicit diameter-8
witness family over GF(q^r).
"""

from .classify import ClassificationVerdict, classify_group, is_frobenius, is_two_frobenius
from .corpus import list_corpus, load_corpus_group, load_group_file
from .diameter8 import (
    ExampleGroup,
    ParamTriple,
    build_example,
    example_group_order,
    find_params,
    run_all_checks,
)
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

__version__ = "0.1.0"

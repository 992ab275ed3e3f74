"""Singular foliations of closed 1-forms on flat 2-orbifolds.

Exact leaf classification, period homomorphisms and their ranks, weighted
leaf-space graphs with the Calabi transitivity criterion, the
compact/noncompact decomposition, and combinatorial tube surgeries.
"""

from .scalar import (
    FoliageError,
    PrecisionExhausted,
    SymbolTable,
    SymScalar,
    in_lattice,
    is_rational,
    q_rank,
    sign,
)
from .orbifold import (
    AffineMap,
    GPath,
    GroupAction,
    OrbifoldPresentation,
    TorusPoint,
    concat,
    fundamental_generators,
    isotropy_order,
    orbit,
    pillowcase_presentation,
    shifted_torus_presentation,
    torus_presentation,
)
from .forms import (
    BumpTerm,
    ClosedForm,
    SurgeredForm,
    Zero,
    check_basic,
    g_path_integral,
    periods,
    rank_of_class,
    zeros,
)
from .leaves import (
    Decomposition,
    LeafClass,
    TraceResult,
    classify_leaf,
    count_local_components,
    decompose,
    singular_components,
    trace_leaf,
)
from .graph import (
    FactorizationWitness,
    FoliationGraph,
    calabi_equiv_bruteforce,
    edge_weight,
    factorization_witness,
    is_calabi,
)
from .surgery import (
    FoliationModel,
    SurgerySpec,
    analyze,
    connected_sum,
    genericize,
    harmonicity_verdict,
    is_transitive,
    verdicts,
)

__version__ = "0.1.0"

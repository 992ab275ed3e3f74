"""Singular foliations of closed 1-forms on flat 2-orbifolds.

Exact leaf classification, period homomorphisms and their ranks, weighted
leaf-space graphs with the Calabi transitivity criterion, the
compact/noncompact decomposition, and combinatorial tube surgeries.
"""

from .scalar import (
    FoliageError,
    Lattice,
    PrecisionExhausted,
    SymbolTable,
    SymScalar,
    q_rank,
    sign,
)
from .orbifold import (
    BUILTIN_ORBIFOLDS,
    AffineMap,
    GPath,
    GroupAction,
    OrbifoldPresentation,
    TorusPoint,
    concat,
    fundamental_generators,
    isotropy_order,
    orbit,
)
from .forms import (
    BumpTerm,
    ClosedForm,
    Zero,
    g_path_integral,
)
from .leaves import (
    Decomposition,
    LeafClass,
    TraceResult,
    classify_leaf,
    count_local_components,
    decompose,
    trace_leaf,
)
from .graph import (
    FactorizationWitness,
    FoliationGraph,
    calabi_equiv_bruteforce,
    factorization_witness,
    is_calabi,
)
from .surgery import (
    FoliationModel,
    SurgerySpec,
    analyze,
    connected_sum,
    genericize,
    verdicts,
)

__version__ = "0.1.0"

"""
Exact classification versus numeric leaf tracing
================================================

The classifier decides compactness from the Q-rank of the coefficients; the
tracer integrates the kernel direction field and reports either a closed
return or grid-coverage evidence of density.  The two must agree, and the
tracer doubles as a picture generator.
"""

from fractions import Fraction

from foliage import BUILTIN_ORBIFOLDS, ClosedForm, SymbolTable, TorusPoint, classify_leaf, trace_leaf
from foliage.cli import render_svg

table = SymbolTable([("q", "1.41421356237309504880168872420969807857")])
T = BUILTIN_ORBIFOLDS["torus"]
seed = TorusPoint(Fraction(1, 8), Fraction(1, 8))

# a rational slope: the leaf is a (3,-2) circle of length sqrt(13)
w = ClosedForm((table.rational(2), table.rational(3)), T)
print("classifier:", classify_leaf(w, T, seed).kind)
result = trace_leaf(w, seed, step=0.01, collect_polyline=True)
print(f"tracer: {result.verdict}, period {result.period_length:.9f}, "
      f"return error {result.return_error:.2e}")

with open("closed_leaf.svg", "w", encoding="utf-8") as fh:
    fh.write(render_svg(result.polyline, T))
print("wrote closed_leaf.svg")

# an irrational slope: the leaf equidistributes
w_dense = ClosedForm((table.rational(1), table.symbol("q")), T)
print("classifier:", classify_leaf(w_dense, T, seed).kind)
result = trace_leaf(w_dense, seed, step=0.02, collect_polyline=True)
print(f"tracer: {result.verdict}, coverage {result.coverage:.4f} "
      f"on the 0.05 grid after {result.steps} steps")

with open("dense_leaf.svg", "w", encoding="utf-8") as fh:
    fh.write(render_svg(result.polyline, T))
print("wrote dense_leaf.svg")

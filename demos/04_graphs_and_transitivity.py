"""
Leaf-space graphs, the Calabi property and harmonicity
======================================================

Compact leaves sweep out weighted edges, noncompact components become special
vertices, and saddles sit at the junctions.  A form is transitive (every
non-zero point on a positively increasing loop) exactly when the graph admits
positive walks between all vertices, and transitive forms are exactly the
intrinsically harmonic ones.
"""

from foliage import (
    calabi_equiv_bruteforce,
    factorization_witness,
    is_calabi,
    verdicts,
)
from foliage.catalog import SCENARIOS
from foliage.cli import build_scenario, parse_scenario
from foliage.graph import digraph_from_arcs

# all-compact rational form: the graph is one circle, and the period map
# factors through its free fundamental group
model = build_scenario(parse_scenario(SCENARIOS["torus-rational"])).final
print(model.graph.to_dot())
witness = factorization_witness(model)
for gen_id, period, walk in witness.checks:
    print(f"{gen_id}: period {period.render()} = projected walk {walk.render()}")

# a dense form has a single special vertex and no witness
dense = build_scenario(parse_scenario(SCENARIOS["torus-dense"])).final
print("dense graph vertices:", [v.kind for v in dense.graph.vertices.values()])
print("witness for the dense form:", factorization_witness(dense))
print("dense form transitive:", verdicts(dense).transitive)
print("harmonicity:", verdicts(dense).harmonicity)

# the Calabi property on bare digraphs: a single cycle has it, two cycles
# joined by a one-way bridge do not (the bridge edge lies on no cycle)
cycle = digraph_from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
bridged = digraph_from_arcs(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
print("cycle:", is_calabi(cycle), calabi_equiv_bruteforce(cycle))
print("bridged cycles:", is_calabi(bridged), calabi_equiv_bruteforce(bridged))

"""
Connected sums along tubes: the four showcase constructions
===========================================================

Two foliated quotients are joined by a tube through disks; two new index-1
zeros appear, and their levels decide everything.  Overlapping windows with
ordered levels fuse leaf material (kind A), disjoint windows span a chain of
new compact leaves (kind B), equal levels pinch a single compact singular
component (kind C).  Wrapping disks (kind A with windows longer than twice a
side's circle) dissolve both sides into one dense component.
"""

from foliage import verdicts
from foliage.catalog import EXAMPLES, SCENARIOS
from foliage.cli import build_scenario, parse_scenario

for name, expected in EXAMPLES:
    model = build_scenario(parse_scenario(SCENARIOS[name])).final
    d = model.decomposition
    print(f"--- {name} ({model.spec.kind}-surgery) ---")
    print("zeros:", [(z.zero_id, z.index) for z in model.zeros])
    print("compact leaf families:",
          sum(1 for leaf in model.catalog if leaf.kind == "CompactRegular"))
    print("noncompact components:", len(d.x_inf_components))
    print("boundary (compact singular components of noncompact leaves):",
          [component for _, component in d.boundary])
    decided = verdicts(model)
    print("transitive:", decided.transitive, " expected:", expected["transitive"])
    print("harmonicity:", decided.harmonicity)
    print()

# the equal-level construction is not generic: both zeros share one leaf; the
# transitivity verdict is taken on a perturbed companion whose waist opens
# into a short chain
from foliage import genericize

raw = build_scenario(parse_scenario(SCENARIOS["pillowcase-ex2"])).final
companion = genericize(raw)
print("raw kind-C levels:", [(z, lv.render()) for z, lv in raw.singular_levels()])
print("companion levels: ", [(z, lv.render()) for z, lv in companion.singular_levels()])
print("companion chain edges:",
      [e.family for e in companion.graph.edges.values()])

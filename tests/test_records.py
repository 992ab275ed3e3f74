"""The record contract: which records are immutable, what they compare and
hash as, the checks their constructors make, and what importing the package
loads."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from foliage.catalog import SCENARIOS
from foliage.cli import OrbifoldDecl, ScenarioError, build_scenario, parse_scenario
from foliage.forms import BumpTerm, FormError
from foliage.graph import GraphError, Vertex, factorization_witness
from foliage.leaves import (
    COMPACT_REGULAR, COMPACT_SINGULAR, LeafClass, LeafError, TraceResult, trace_leaf,
)
from foliage.orbifold import BUILTIN_ORBIFOLDS, GPath, OrbifoldPresentation, TorusPoint
from foliage.surgery import FoliationModel, ModelError, SurgerySpec, verdicts
from test_cli import EVERY_KEY


def _records() -> dict:
    """One record of each kind, by class name, from three built scenarios."""
    every = build_scenario(parse_scenario(EVERY_KEY))
    model = build_scenario(parse_scenario(SCENARIOS["pillowcase-ex1"])).final
    compact = build_scenario(parse_scenario(SCENARIOS["torus-rational"])).final
    s, form = every.scenario, every.forms["w0"]
    found = [
        model.graph.vertices[0], next(iter(model.graph.edges.values())),
        model.graph.attachments[0], model.catalog[0], model.zeros[0], next(iter(model.sides.values())),
        model.spec, form.bumps[0].center, form.orbifold.action.elements[0], form.bumps[0],
        every.table.symbols[1], form.structure,
        trace_leaf(form, TorusPoint(Fraction(1, 3), Fraction(2, 7)), step=0.01, max_steps=50),
        verdicts(model), s.orbifolds[0], s.forms[0].bumps[0], s.forms[0], s.surgeries[0],
        s.tracer, s.output, s, every, form, model.decomposition, form.orbifold,
        form.orbifold.generators[0], form.orbifold.generators[0].loop,
        factorization_witness(compact),
    ]
    return {type(record).__name__: record for record in found}


RECORDS = _records()
# a built scenario holds dicts, so it has no hash
HASHABLE = sorted(set(RECORDS) - {"BuiltScenario"})


def test_importing_the_package_loads_no_dataclass_machinery():
    # start-up pays for the package's own code: neither dataclasses nor the
    # inspect module it imports is loaded by `import foliage, foliage.cli`
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import foliage, foliage.cli; "
            "print(*sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    done = subprocess.run([sys.executable, "-I", "-B", "-c", code, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_every_record_kind_is_covered():
    # 28 value records; FoliationModel and the join's disk site are mutable
    assert len(RECORDS) == 28


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_no_field_of_a_record_can_be_assigned(name):
    # graph records, like every other record, are frozen and shared
    record = RECORDS[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_records_hash_equal_as_the_tuple_of_their_fields(name):
    # set orders (orbit copies, bump sums, trace bytes) rest on these hashes
    record = RECORDS[name]
    twin = type(record)(*record)
    assert twin is not record and twin == record
    assert hash(twin) == hash(record) == hash(tuple(getattr(record, f) for f in record._fields))


@pytest.mark.parametrize("build, error, message", [
    (lambda: Vertex(0, "Bogus"), GraphError, "unknown vertex kind 'Bogus'"),
    (lambda: LeafClass("l", COMPACT_SINGULAR), LeafError, "singular exactly when"),
    (lambda: LeafClass("l", COMPACT_REGULAR, zeros=("z",)), LeafError, "singular exactly when"),
    (lambda: BumpTerm(TorusPoint(0, 0), Fraction(1, 2), None), FormError, r"radius must lie"),
    (lambda: BumpTerm(TorusPoint(0, 0), Fraction(0), None), FormError, r"radius must lie"),
    (lambda: TraceResult("Closed", steps=3), LeafError, "must report a period length"),
    (lambda: SurgerySpec("D", None, None, (), (), ()), ModelError, "unknown surgery kind 'D'"),
    (lambda: OrbifoldDecl("T", builtin="klein"), ScenarioError, "unknown builtin orbifold"),
    (lambda: OrbifoldDecl("T"), ScenarioError, r"\[orbifold T\] needs either builtin"),
])
def test_each_constructor_check_raises_its_error(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_a_torus_point_is_reduced_mod_one():
    point = TorusPoint(Fraction(5, 4), Fraction(-1, 2))
    assert point == TorusPoint(Fraction(1, 4), Fraction(1, 2)) == TorusPoint(1.25, -0.5)
    assert (point.theta, point.phi) == (Fraction(1, 4), Fraction(1, 2))
    assert hash(point) == hash(TorusPoint(Fraction(1, 4), Fraction(1, 2)))


def test_kept_values_stay_out_of_equality_and_hash():
    action = BUILTIN_ORBIFOLDS["pillowcase"].action
    first, second = OrbifoldPresentation(action), OrbifoldPresentation(action)
    assert first.generators[0] is not second.generators[0]
    second.generators = ()
    assert first == second and hash(first) == hash(second)

    loop = first.generators[2].loop
    twin = GPath(*loop)
    twin.displacement = (Fraction(0), Fraction(0))
    assert twin.displacement != loop.displacement
    assert twin == loop and hash(twin) == hash(loop)

    form = RECORDS["ClosedForm"]
    fresh = form._replace()
    assert "structure" in vars(form) and "structure" not in vars(fresh)
    assert fresh == form and hash(fresh) == hash(form)


def test_models_compare_by_identity():
    assert FoliationModel("m") != FoliationModel("m")

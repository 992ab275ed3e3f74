"""Seeded input generators for the three benchmark workloads.

Every workload is a sequence of rounds. A round holds a fixed multiset of
operation shapes (which scenario, which chain length, which orbifold and form
kind); the seed chooses the order inside the round and every number the
program receives (symbol literals, seed points, bump centres and amplitudes).
Measuring whole rounds therefore gives every seed the same mix of work, which
is what keeps run-to-run spreads small while the inputs still differ byte by
byte. The same (workload, seed, round) always yields byte-identical text.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from foliage import catalog

WORKLOADS = ("catalog", "chains", "trace")
DEFAULT_SEED = 1

# the seven commands whose output is the plain report (trace and examples differ)
REPORT_COMMANDS = ("periods", "classify", "decompose", "graph", "transitivity", "harmonic", "surgery")

LITERAL_DIGITS = 40
PRIMES = tuple(p for p in range(2, 200) if all(p % d for d in range(2, math.isqrt(p) + 1)))[:40]


def sqrt_literal(p: int, digits: int = LITERAL_DIGITS) -> str:
    """sqrt(p) truncated to `digits` significant digits, as a decimal literal."""
    whole = str(math.isqrt(p))
    scaled = str(math.isqrt(p * 10 ** (2 * (digits - len(whole)))))
    return f"{scaled[:len(whole)]}.{scaled[len(whole):]}"


@dataclass(frozen=True)
class Op:
    """One closed-loop request: scenario text, the command to run on it, and
    the answer the checker compares against (known without running foliage)."""

    workload: str
    round: int
    index: int  # position inside the round
    command: str
    text: str
    expect: dict = field(default_factory=dict)


def rounds(workload: str, seed: int):
    """Endless sequence of rounds (lists of Op) for a workload and seed."""
    make = _ROUND_MAKERS[workload]
    r = 0
    while True:
        yield make(random.Random(f"{workload}/{seed}/{r}"), r)
        r += 1


def first_round(workload: str, seed: int) -> list[Op]:
    return next(rounds(workload, seed))


# -- catalog ---------------------------------------------------------------------------

# Hand-derived verdict rows for the built-in models outside catalog.EXAMPLES,
# in the same format. A zero-free form with nonzero periods is transitive; its
# leaves are compact exactly when the coefficients are Q-dependent. In
# sum-b-compact the kind-B chain edge runs one way between the two saddles, so
# no positive walk returns across it.
_ZERO_FREE_COMPACT = {
    "transitive": True,
    "has_compact_leaf": True,
    "has_noncompact_leaf": False,
    "compact_singular_components": 0,
    "harmonic": "IntrinsicallyHarmonic",
}
_ZERO_FREE_DENSE = dict(_ZERO_FREE_COMPACT, has_compact_leaf=False, has_noncompact_leaf=True)
EXPECTED_ROWS: dict[str, dict] = {
    "torus-rational": _ZERO_FREE_COMPACT,
    "torus-dtheta": _ZERO_FREE_COMPACT,
    "torus-dense": _ZERO_FREE_DENSE,
    "pillowcase-dtheta": _ZERO_FREE_COMPACT,
    "pillowcase-dense": _ZERO_FREE_DENSE,
    "shifted-dtheta": _ZERO_FREE_COMPACT,
    "sum-b-compact": {
        "transitive": False,
        "has_compact_leaf": True,
        "has_noncompact_leaf": False,
        "compact_singular_components": 0,
        "harmonic": "NotIntrinsicallyHarmonic",
    },
    **dict(catalog.EXAMPLES),
}

# pillowcase-ex4 joins through a wrapping tube 0 : 23/8 on a side of
# circumference a; the wrap rule holds only while a < 23/16, and sqrt 2 is the
# only prime root below that, so its draw is always sqrt 2 (at 40 digits).
_DRAW_BELOW = {"pillowcase-ex4": Fraction(23, 16)}


def substitute_symbols(text: str, literals: list[str]) -> str:
    """Replace the value of each declaration in the [symbols] section, in order."""
    out, section, k = [], None, 0
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("["):
            section = stripped
        elif section == "[symbols]" and "=" in stripped:
            name = stripped.partition("=")[0].strip()
            line = f"{name} = {literals[k]}"
            k += 1
        out.append(line)
    if k != len(literals):
        raise ValueError(f"scenario declares {k} symbols, {len(literals)} literals given")
    return "\n".join(out) + "\n"


def _symbol_count(text: str) -> int:
    body = text.split("[symbols]", 1)[1].split("\n[", 1)[0]
    return sum(1 for line in body.splitlines() if "=" in line)


def _catalog_round(rng: random.Random, r: int) -> list[Op]:
    pairs = [(name, cmd) for name in catalog.SCENARIOS for cmd in REPORT_COMMANDS]
    rng.shuffle(pairs)
    ops = []
    for i, (name, cmd) in enumerate(pairs):
        text = catalog.SCENARIOS[name]
        limit = _DRAW_BELOW.get(name)
        pool = [p for p in PRIMES if limit is None or p < limit * limit]
        drawn = rng.sample(pool, _symbol_count(text))
        text = substitute_symbols(text, [sqrt_literal(p) for p in drawn])
        ops.append(Op("catalog", r, i, cmd, text, {"scenario": name, "row": EXPECTED_ROWS[name]}))
    return ops


# -- chains ----------------------------------------------------------------------------

# One round: every (kind, n) below once. Kind C at n = 12 takes about half a
# second at the parent of the benchmark and grows as ~n^2.7; the sizes stop
# there so that a 30 s run holds eight to twelve whole rounds. Consecutive sizes
# differ in cost by less than the machine's speed swings, so the costs have no
# gaps around the median or the tail rank; a quantile that sits on a gap jumps
# with the share of a run the machine spends slow, instead of moving with it.
CHAIN_SIZES = tuple(("C", n) for n in range(2, 13)) + tuple(("A", n) for n in range(4, 33, 4))


def chain_text(kind: str, n: int, p: str, q: str) -> str:
    """n+1 dense pillowcase forms p dtheta + q dphi joined in sequence by n
    surgeries through w0.inf / w{i}.inf, windows 0 : 1. Kind C puts both tube
    levels at i/(4n+8); kind A uses i/(4n+8) : (i+1)/(4n+8)."""
    d = 4 * n + 8
    out = ["[symbols]", f"p = {p}", f"q = {q}", ""]
    for i in range(n + 1):
        out += [f"[orbifold Q{i}]", "builtin = pillowcase", "",
                f"[form w{i}]", f"on = Q{i}", "dtheta = 1*p", "dphi = 1*q",
                "basic_override = true", ""]
    for i in range(1, n + 1):
        tube = f"{i}/{d} : {i}/{d}" if kind == "C" else f"{i}/{d} : {i + 1}/{d}"
        out += [f"[surgery s{i}]", f"kind = {kind}", f"left = {'w0' if i == 1 else f's{i - 1}'}",
                f"right = w{i}", "left_region = w0.inf", f"right_region = w{i}.inf",
                "left_window = 0 : 1", "right_window = 0 : 1", f"tube = {tube}", ""]
    return "\n".join(out)


def _chains_round(rng: random.Random, r: int) -> list[Op]:
    sizes = list(CHAIN_SIZES)
    rng.shuffle(sizes)
    ops = []
    for i, (kind, n) in enumerate(sizes):
        p, q = (sqrt_literal(x) for x in rng.sample(PRIMES, 2))
        # A joins transitive inputs and stays transitive; C's equal-level waist
        # separates the dense pieces, as in pillowcase-ex2
        expect = {"kind": kind, "n": n, "transitive": kind == "A"}
        ops.append(Op("chains", r, i, "surgery", chain_text(kind, n, p, q), expect))
    return ops


# -- trace -----------------------------------------------------------------------------

# (orbifold, kind, slope up to sign and order). A pillowcase or shifted-torus
# bump has two orbit copies, so it costs twice a torus bump per step, and the
# shifted torus halves the leaves of these slopes. In units of a torus
# one-bump trace of unit leaf length, the bumped traces cost 2.8, 3.2, 3.6,
# 4.1, 4.5, 5.4, 6.3, 7.2 and 8.2: each at most 1.21x the one before, less
# than the machine's speed swings, so the median (the second of them, after
# the six plain traces) and the tail rank move smoothly with machine speed
# instead of jumping across a gap. Bumped traces outnumber plain ones, so the
# median falls among them, where the seed does not change the step count.
TRACE_SHAPES = (
    ("torus", "rational", (2, 3)), ("torus", "dense", None), ("torus", "bump1", (1, 3)),
    ("torus", "bump1", (2, 5)), ("torus", "bump2", (2, 3)),
    ("shifted_torus", "rational", (2, 3)), ("shifted_torus", "dense", None),
    ("shifted_torus", "bump1", (2, 3)), ("shifted_torus", "bump1", (4, 1)),
    ("shifted_torus", "bump2", (4, 1)),
    ("pillowcase", "rational", (2, 3)), ("pillowcase", "dense", None), ("pillowcase", "bump1", (1, 1)),
    ("pillowcase", "bump1", (1, 2)), ("pillowcase", "bump1", (1, 3)),
)
TRACE_STEP = Fraction(1, 200)
TRACE_MAX_STEPS = 200_000  # bounds a failing trace; passing ones need < 20k
BUMP_RADIUS = Fraction(1, 64)
GRID_EPS = 1 / 20  # the tracer's default coverage cell
DENSE_MAX_WRAPS = 60


def _orbit(center, orbifold):
    """Orbit copies of a point; the generator's own, so inputs never depend on
    the code under test."""
    x, y = center
    if orbifold == "torus":
        return [(x, y)]
    if orbifold == "shifted_torus":
        return [(x, y), ((x + Fraction(1, 2)) % 1, y)]
    return [(x, y), ((-x) % 1, (-y) % 1)]


def _torus_gap(a: Fraction, b: Fraction) -> Fraction:
    d = (a - b) % 1
    return min(d, 1 - d)


def _rotation_wraps(alpha: float, nmax: int = 4 * DENSE_MAX_WRAPS) -> int:
    """Wraps after which the rotation sequence {k alpha} leaves no gap of GRID_EPS."""
    points = [0.0]
    for k in range(1, nmax):
        bisect.insort(points, (k * alpha) % 1.0)
        gaps = [b - a for a, b in zip(points, points[1:])]
        if max(gaps + [1.0 - points[-1] + points[0]]) < GRID_EPS:
            return k
    return nmax


def _trace_slope(rng: random.Random, orbifold: str, slope: tuple[int, int]) -> tuple[int, int]:
    """The shape's slope with seeded signs and, off the shifted torus, seeded
    order; both keep the leaf length. On the shifted torus m stays even, so
    the half shift keeps mapping the leaf to itself."""
    m, n = slope
    if orbifold != "shifted_torus" and rng.random() < 0.5:
        m, n = n, m
    return rng.choice((1, -1)) * m, rng.choice((1, -1)) * n


def expected_period_length(orbifold: str, m: int, n: int) -> float:
    """Length of the closed leaf of m dtheta + n dphi (m, n coprime) on the
    quotient: the straight cover leaf, halved when the half shift of the
    shifted torus changes the level m*theta + n*phi by an integer."""
    halved = orbifold == "shifted_torus" and m % 2 == 0
    return math.hypot(m, n) / (2 if halved else 1)


def _draw_bumps(rng: random.Random, orbifold: str, count: int):
    """Bump centres whose orbit copies keep disjoint supports, away from the
    cone points; amplitudes far inside the nondominance bound."""
    while True:
        centers = [(Fraction(rng.randrange(64), 64), Fraction(rng.randrange(64), 64)) for _ in range(count)]
        copies = [c for center in centers for c in _orbit(center, orbifold)]
        if all(
            _torus_gap(a[0], b[0]) ** 2 + _torus_gap(a[1], b[1]) ** 2 > (2 * BUMP_RADIUS) ** 2
            for i, a in enumerate(copies) for b in copies[i + 1:]
        ):
            amps = [Fraction(1, rng.choice((200, 300, 400))) for _ in centers]
            return centers, copies, amps


def _seed_off_supports(rng: random.Random, copies, m: int, n: int):
    """A seed point whose straight leaf keeps clear of every bump support, so
    the bumped leaf is the straight one and closes at the plain length.

    The leaf through s is the level set m*x + n*y = m*s_x + n*s_y (mod 1); its
    distance to a centre c is |level(s) - level(c)| / |(m, n)| (mod the strand
    spacing). Leaves that cross a support are left out on purpose: RK4 at this
    step does not always meet the tracer's 1e-9 return tolerance there.
    """
    norm = math.hypot(m, n)
    clearance = (float(BUMP_RADIUS) + 2 * float(TRACE_STEP)) * norm
    while True:
        s = (Fraction(rng.randrange(1, 64), 64), Fraction(rng.randrange(1, 64), 64))
        level = m * s[0] + n * s[1]
        if all(float(_torus_gap(level, m * c[0] + n * c[1])) > clearance for c in copies):
            return s


def _dense_pair(rng: random.Random) -> tuple[int, int]:
    """Distinct primes whose root ratio spreads its leaf over the coverage grid
    within DENSE_MAX_WRAPS wraps both ways; a slope near a rational with a small
    denominator needs up to 30x more steps and would dominate the spread."""
    while True:
        p, q = rng.sample(PRIMES, 2)
        ratio = math.sqrt(p / q)
        if max(_rotation_wraps(ratio), _rotation_wraps(1 / ratio)) <= DENSE_MAX_WRAPS:
            return p, q


def trace_text(orbifold: str, dtheta: str, dphi: str, seed: tuple, symbols=(), bumps=()) -> str:
    out = ["[symbols]"] + [f"{name} = {value}" for name, value in symbols]
    out += ["", "[orbifold X]", f"builtin = {orbifold}", "", "[form w]", "on = X",
            f"dtheta = {dtheta}", f"dphi = {dphi}"]
    if orbifold == "pillowcase":
        out.append("basic_override = true")
    for (cx, cy), amp in bumps:
        out.append(f"bump = center {cx} {cy} radius {BUMP_RADIUS} amplitude {amp}")
    out += ["", "[tracer]", f"seed = {seed[0]}, {seed[1]}", f"step = {float(TRACE_STEP)}",
            f"max_steps = {TRACE_MAX_STEPS}", ""]
    return "\n".join(out)


def _trace_round(rng: random.Random, r: int) -> list[Op]:
    shapes = list(TRACE_SHAPES)
    rng.shuffle(shapes)
    ops = []
    for i, (orb, kind, slope) in enumerate(shapes):
        expect = {"orbifold": orb, "kind": kind, "slope": slope}
        if kind == "dense":
            p, q = _dense_pair(rng)
            seed = (Fraction(rng.randrange(1, 64), 64), Fraction(rng.randrange(1, 64), 64))
            text = trace_text(orb, "1*p", "1*q", seed, [("p", sqrt_literal(p)), ("q", sqrt_literal(q))])
            expect.update(verdict="DenseEvidence")
        else:
            m, n = _trace_slope(rng, orb, slope)
            nbumps = {"rational": 0, "bump1": 1, "bump2": 2}[kind]
            centers, copies, amps = _draw_bumps(rng, orb, nbumps)
            seed = _seed_off_supports(rng, copies, m, n)
            text = trace_text(orb, str(m), str(n), seed, (), list(zip(centers, amps)))
            expect.update(verdict="Closed", period_length=expected_period_length(orb, m, n))
        expect["bumped"] = kind.startswith("bump")
        ops.append(Op("trace", r, i, "trace", text, expect))
    return ops


_ROUND_MAKERS = {"catalog": _catalog_round, "chains": _chains_round, "trace": _trace_round}

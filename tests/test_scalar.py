import os
import random
import subprocess
import threading
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, strategies as st

from foliage import scalar as sc
from foliage.scalar import (
    Lattice,
    PrecisionExhausted,
    SymbolTable,
    hermite_normal_form,
    q_rank,
    sign,
)

from conftest import PI, SQRT2, SQRT3


def make_table():
    return SymbolTable([("p", PI), ("q", SQRT2), ("r", SQRT3)])


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def scalars(table):
    return st.lists(rationals, min_size=4, max_size=4).map(
        lambda cs: table.rational(cs[0]) + table.symbol("p", cs[1])
        + table.symbol("q", cs[2]) + table.symbol("r", cs[3])
    )


TABLE = make_table()


class TestArithmetic:
    def test_rational_addition(self):
        t = TABLE
        assert t.rational(Fraction(3, 2)) + t.rational(Fraction(1, 2)) == t.rational(2)

    def test_identity_and_inverse(self):
        p = TABLE.symbol("p")
        zero = TABLE.zero()
        assert p + zero == p
        assert p + (-p) == zero

    @given(a=scalars(TABLE), b=scalars(TABLE), c=scalars(TABLE))
    def test_associativity(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(a=scalars(TABLE))
    def test_neg_is_inverse(self, a):
        assert a + (-a) == TABLE.zero()

    def test_mixed_tables_rejected(self):
        other = make_table()
        with pytest.raises(sc.MixedTableError):
            TABLE.symbol("p") + other.symbol("p")

    def test_canonical_form_drops_zero_coefficients(self):
        p, q = TABLE.symbol("p"), TABLE.symbol("q")
        assert (p - p).is_zero() and (p - p).nums == ()
        assert (p + q - q).nums == p.nums


class TestQRank:
    def test_independent_pair(self):
        assert q_rank([TABLE.symbol("p"), TABLE.symbol("q")]) == 2

    def test_two_rationals(self):
        assert q_rank([TABLE.rational(2), TABLE.rational(3)]) == 1

    def test_p_2p_one(self):
        p = TABLE.symbol("p")
        assert q_rank([p, p * 2, TABLE.rational(1)]) == 2

    def test_matches_sympy_row_reduction_on_random_lists(self):
        from sympy import Matrix, Rational

        rng = random.Random(7)
        for _ in range(100):
            vals = []
            for _ in range(rng.randint(1, 6)):
                coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(4)]
                vals.append(
                    TABLE.rational(coeffs[0])
                    + TABLE.symbol("p", coeffs[1])
                    + TABLE.symbol("q", coeffs[2])
                    + TABLE.symbol("r", coeffs[3])
                )
            rows = [[Rational(c.numerator, c.denominator) for c in v.vector()] for v in vals]
            assert q_rank(vals) == Matrix(rows).rank()

    @given(vals=st.lists(scalars(TABLE), min_size=1, max_size=5), data=st.data())
    def test_invariant_under_permutation_and_scaling(self, vals, data):
        rank = q_rank(vals)
        shuffled = data.draw(st.permutations(vals))
        assert q_rank(list(shuffled)) == rank
        scale = data.draw(
            st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(lambda f: f != 0)
        )
        assert q_rank([v * scale for v in vals]) == rank


class TestSign:
    def test_zero(self):
        assert sign(TABLE.zero()) == 0

    def test_positive_combination(self):
        assert sign(TABLE.rational(1) + TABLE.symbol("q")) == 1

    def test_negative_combination(self):
        assert sign(TABLE.rational(-2) + TABLE.symbol("q")) == -1

    def test_zero_iff_symbolically_zero(self):
        p = TABLE.symbol("p")
        assert sign(p - p) == 0
        assert sign(p * Fraction(1, 10**6)) == 1

    @given(a=scalars(TABLE))
    def test_antisymmetry(self, a):
        assert sign(-a) == -sign(a)

    def test_ill_conditioned_table_exhausts_precision(self):
        # "s" is declared independent but its embedding equals 2 exactly
        t = SymbolTable([("s", "2")])
        with pytest.raises(PrecisionExhausted):
            sign(t.symbol("s") - t.rational(2))

    def test_float_is_the_correctly_rounded_embedding(self):
        a = TABLE.symbol("p", Fraction(1, 3)) - TABLE.symbol("q", 7)
        assert float(a) == float(Fraction(PI) / 3 - 7 * Fraction(SQRT2))


def _oracle_sign(a):
    """The sign mpmath interval arithmetic decides at up to 256 digits, or
    None when the interval still straddles 0 there."""
    from mpmath import iv

    saved = iv.dps
    try:
        for dps in (32, 64, 128, 256):
            iv.dps = dps
            total = iv.mpf(0)
            for sym, c in zip(a.table.symbols, a.vector()):
                sym = iv.mpf(sym.value)
                total += sym * iv.mpf(c.numerator) / iv.mpf(c.denominator)
            if total.a > 0:
                return 1
            if total.b < 0:
                return -1
        return None
    finally:
        iv.dps = saved


def _literal40(digits: int, point: int, negative: bool) -> str:
    text = str(digits)
    return f"{'-' if negative else ''}{text[:point]}.{text[point:]}"


literals40 = st.builds(
    _literal40, st.integers(10**39, 10**40 - 1), st.integers(1, 39), st.booleans()
)


@st.composite
def scalars_over_40_digit_tables(draw):
    lits = draw(st.lists(literals40, min_size=1, max_size=4))
    table = SymbolTable([(f"s{i}", lit) for i, lit in enumerate(lits)])
    coeffs = draw(st.lists(rationals, min_size=len(lits), max_size=len(lits)))
    a = table.zero()
    for i, c in enumerate(coeffs):
        a = a + table.symbol(f"s{i}", c)
    if draw(st.booleans()):
        # cancel the embedding down to 0 or to a tiny offset
        exact = sum((c * Fraction(lit) for c, lit in zip(coeffs, lits)), Fraction(0))
        offset = draw(st.sampled_from([0, 1, -1])) * Fraction(1, 10 ** draw(st.integers(1, 80)))
        a = a + table.rational(offset - exact)
    return a


class TestSignAgainstIntervals:
    @given(a=scalars_over_40_digit_tables())
    def test_sign_agrees_with_the_interval_oracle(self, a):
        expected = _oracle_sign(a)
        if a.is_zero():
            assert sign(a) == 0
        elif expected is None:
            with pytest.raises(PrecisionExhausted):
                sign(a)
        else:
            assert sign(a) == expected

    def test_import_leaves_mpmath_unloaded(self):
        import foliage

        src = os.path.dirname(os.path.dirname(foliage.__file__))
        code = "import sys, foliage; print('mpmath' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.strip() == "False"


class TestLattice:
    def test_hnf_matches_sympy(self):
        from sympy import Matrix
        from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf

        rng = random.Random(13)
        for _ in range(50):
            rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(rng.randint(1, 4))]
            if not any(any(r) for r in rows):
                continue
            ours = hermite_normal_form(rows)
            # sympy's HNF is column-style on the transpose of the row lattice
            theirs = sympy_hnf(Matrix(rows).T).T.tolist()
            ours_lattice = hermite_normal_form(ours + theirs)
            assert ours_lattice == hermite_normal_form(ours)
            assert ours_lattice == hermite_normal_form(theirs)

    def test_membership_by_construction(self):
        p, q = TABLE.symbol("p"), TABLE.symbol("q")
        gens = [p, q, (p + q) * Fraction(1, 4)]
        rng = random.Random(3)
        for _ in range(40):
            member = TABLE.zero()
            for g in gens:
                member = member + g * rng.randint(-4, 4)
            assert member in Lattice(gens)
            # adding any rational offset leaves the lattice (no rational part in it)
            assert member + TABLE.rational(Fraction(1, 7)) not in Lattice(gens)

    def test_fractional_generator(self):
        p = TABLE.symbol("p")
        assert p * Fraction(3, 2) in Lattice([p * Fraction(1, 2)])
        assert p * Fraction(1, 3) not in Lattice([p * Fraction(1, 2)])

    def test_zero_always_member(self):
        assert TABLE.zero() in Lattice([TABLE.symbol("p")])
        assert TABLE.symbol("p") not in Lattice([])


class TestKeptLattice:
    """A periods record is its distinct scalars, in first-seen order, and
    keeps the lattice they span from the first read."""

    def test_a_record_is_its_distinct_values(self):
        p, q = TABLE.symbol("p"), TABLE.symbol("q")
        periods = sc.Periods([p, q, p, TABLE.rational(1), q])
        assert periods == (p, q, TABLE.rational(1))
        assert hash(periods) == hash((p, q, TABLE.rational(1)))
        assert "lattice" not in vars(periods)  # not read yet
        lattice = periods.lattice
        assert periods.lattice is lattice and vars(periods) == {"lattice": lattice}
        # the kept lattice is neither compared nor hashed
        assert periods == sc.Periods(periods) and hash(periods) == hash(sc.Periods(periods))
        assert p * 3 - q in lattice and p * Fraction(1, 2) not in lattice

    def test_threads_racing_on_the_first_read_get_equal_rows(self):
        p, q = TABLE.symbol("p"), TABLE.symbol("q")
        periods = sc.Periods([p * 2 + q, p * Fraction(4, 3) - q * 6, q * Fraction(1, 5), p])
        start = threading.Barrier(4)

        def first_read(_):
            start.wait(timeout=30)
            lattice = periods.lattice
            return lattice.denom, lattice._rows

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                records = list(pool.map(first_read, range(4), timeout=60))
        finally:
            sys.setswitchinterval(saved)
        fresh = Lattice(periods)
        assert records == [(fresh.denom, fresh._rows)] * 4


def _hnf_member(value, generators):
    """The reference membership rule: adjoining the value's row leaves the
    Hermite normal form of the generator rows unchanged."""
    gens = [g for g in generators if not g.is_zero()]
    if value.is_zero():
        return True
    if not gens:
        return False
    vecs = [g.vector() for g in gens] + [value.vector()]
    denom = lcm(*[c.denominator for row in vecs for c in row])
    ints = [[int(c * denom) for c in row] for row in vecs]
    return hermite_normal_form(ints[:-1]) == hermite_normal_form(ints)


@st.composite
def lattice_cases(draw):
    """Generators and a value over a table of 40-digit literals, and one
    integer multiplier per generator."""
    lits = draw(st.lists(literals40, min_size=1, max_size=3))
    table = SymbolTable([(f"s{i}", lit) for i, lit in enumerate(lits)])
    names = ["one"] + [f"s{i}" for i in range(len(lits))]

    def scalar():
        coeffs = draw(st.lists(rationals, min_size=len(names), max_size=len(names)))
        return table.combination(zip(coeffs, names))

    gens = [scalar() for _ in range(draw(st.integers(0, 4)))]
    ks = draw(st.lists(st.integers(-6, 6), min_size=len(gens), max_size=len(gens)))
    return gens, scalar(), ks


def _combination(gens, ks, table):
    return sum((g * k for g, k in zip(gens, ks)), table.zero())


class TestLatticeReduction:
    @given(case=lattice_cases())
    def test_reduce_is_constant_on_cosets(self, case):
        gens, v, ks = case
        lattice = Lattice(gens)
        reduced = lattice.reduce(v)
        assert lattice.reduce(v + _combination(gens, ks, v.table)) == reduced
        assert _hnf_member(reduced - v, gens)

    @given(case=lattice_cases())
    def test_reduce_is_idempotent(self, case):
        gens, v, _ = case
        lattice = Lattice(gens)
        assert lattice.reduce(lattice.reduce(v)) == lattice.reduce(v)

    @given(case=lattice_cases(), shape=st.sampled_from(["random", "member", "half"]))
    def test_membership_agrees_with_the_two_hnf_rule(self, case, shape):
        gens, v, ks = case
        combo = _combination(gens, ks, v.table)
        value = {"random": v, "member": combo, "half": combo * Fraction(1, 2)}[shape]
        assert (value in Lattice(gens)) == _hnf_member(value, gens)
        if shape == "member":
            assert value in Lattice(gens)

    @given(case=lattice_cases(), data=st.data())
    def test_repeated_and_shuffled_generators_reduce_alike(self, case, data):
        gens, v, ks = case
        repeats = data.draw(st.lists(st.integers(1, 3), min_size=len(gens), max_size=len(gens)))
        repeated = [g for g, k in zip(gens, repeats) for _ in range(k)]
        shuffled = data.draw(st.permutations(repeated))
        distinct, padded = Lattice(gens), Lattice(shuffled)
        for value in [v, v + _combination(gens, ks, v.table), *gens]:
            assert padded.reduce(value) == distinct.reduce(value)

    def test_generators_from_two_tables_are_rejected(self):
        with pytest.raises(sc.MixedTableError):
            Lattice([TABLE.symbol("p"), make_table().symbol("p")])
        with pytest.raises(sc.MixedTableError):
            Lattice([TABLE.symbol("p")]).reduce(make_table().symbol("p"))


# -- differential oracle: the dict-of-Fraction core the integer core replaced


class RefScalar:
    """A value as a sparse dict {table index: nonzero Fraction}."""

    def __init__(self, table, coeffs):
        self.table = table
        self.coeffs = {i: Fraction(c) for i, c in coeffs.items() if c}

    def __add__(self, other):
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, Fraction(0)) + c
        return RefScalar(self.table, out)

    def __neg__(self):
        return RefScalar(self.table, {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, rational):
        return RefScalar(self.table, {i: rational * c for i, c in self.coeffs.items()})

    def __eq__(self, other):
        return self.table is other.table and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.table), tuple(sorted(self.coeffs.items()))))

    def vector(self):
        return tuple(self.coeffs.get(i, Fraction(0)) for i in range(len(self.table)))

    def ratio_to(self, other):
        if not other.coeffs:
            return Fraction(0) if not self.coeffs else None
        i0, c0 = min(other.coeffs.items())
        r = self.coeffs.get(i0, Fraction(0)) / c0
        return r if self == other * r else None

    def render(self):
        parts = [str(self.coeffs.get(0, Fraction(0)))]
        parts += [f"+ {c}*{self.table.symbols[i].name}" for i, c in sorted(self.coeffs.items()) if i]
        return " ".join(parts)

    def value(self):
        return sum((c * Fraction(self.table.symbols[i].value) for i, c in self.coeffs.items()),
                   Fraction(0))


def ref_sign(a):
    if not a.coeffs:
        return 0
    value = a.value()
    if value == 0:
        raise PrecisionExhausted(a.render())
    return 1 if value > 0 else -1


def ref_q_rank(vals):
    """Rank by Gaussian elimination over Fraction rows."""
    rows = [list(v.vector()) for v in vals]
    ncols = len(vals[0].table)
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def ref_reduce(gens, v):
    """The coset representative of v modulo the Z-span of gens, reduced over
    Fraction coordinates against the HNF of the cleared generator rows."""
    gens = [g for g in gens if g.coeffs]
    denom = lcm(*[c.denominator for g in gens for c in g.coeffs.values()])
    hnf = hermite_normal_form([[int(c * denom) for c in g.vector()] for g in gens])
    x = [c * denom for c in v.vector()]
    for row in hnf:
        col = next(i for i, a in enumerate(row) if a)
        q = x[col] // row[col]
        x = [c - q * a for c, a in zip(x, row)]
    return RefScalar(v.table, {i: c / denom for i, c in enumerate(x)})


def as_ref(a):
    """The reference value with a's coefficients, read through the public API."""
    return RefScalar(a.table, dict(enumerate(a.vector())))


def assert_same(a, ref):
    assert as_ref(a) == ref
    assert a.render() == ref.render()


@st.composite
def scalar_pairs(draw, table, names=("one", "p", "q", "r")):
    """One value built twice, as a SymScalar and as a RefScalar, from the same
    coefficients; a few coefficients are drawn 0, so trailing zeros occur."""
    coeffs = draw(st.lists(rationals | st.just(Fraction(0)), min_size=len(names), max_size=len(names)))
    ref = RefScalar(table, {table.index_of(n): c for n, c in zip(names, coeffs)})
    return table.combination(zip(coeffs, names)), ref


@st.composite
def forty_digit_pairs(draw, count=3):
    """count values over one table of 40-digit literals, each built both ways."""
    lits = draw(st.lists(literals40, min_size=1, max_size=4))
    table = SymbolTable([(f"s{i}", lit) for i, lit in enumerate(lits)])
    names = ("one",) + tuple(f"s{i}" for i in range(len(lits)))
    pairs = [draw(scalar_pairs(table, names)) for _ in range(count)]
    if draw(st.booleans()):
        # cancel the first value's embedding down to 0 or to a tiny offset
        a, ref = pairs[0]
        offset = draw(st.sampled_from([0, 1, -1])) * Fraction(1, 10 ** draw(st.integers(1, 80)))
        shift = offset - ref.value()
        pairs[0] = (a + table.rational(shift), ref + RefScalar(table, {0: shift}))
    return pairs


nonzero_rationals = rationals.filter(bool)


class TestAgainstTheFractionCore:
    @given(x=scalar_pairs(TABLE), y=scalar_pairs(TABLE), c=nonzero_rationals)
    def test_arithmetic_and_rendering(self, x, y, c):
        (a, ra), (b, rb) = x, y
        assert_same(a, ra)
        assert_same(a + b, ra + rb)
        assert_same(a - b, ra - rb)
        assert_same(-a, -ra)
        assert_same(a * c, ra * c)
        assert_same(c * a, ra * c)
        assert_same(a / c, ra * (1 / c))
        assert a.value() == ra.value()
        assert a.ratio_to(b) == ra.ratio_to(rb)
        assert (a * c).ratio_to(a) == (ra * c).ratio_to(ra)

    @given(x=scalar_pairs(TABLE), y=scalar_pairs(TABLE), c=nonzero_rationals)
    def test_equality_and_hash_of_equal_values(self, x, y, c):
        (a, ra), (b, rb) = x, y
        assert (a == b) == (ra == rb)
        for left, right in [(a + b - b, a), (a * c / c, a), (a + a, a * 2), (a - a, TABLE.zero()),
                            (a + b, b + a), ((a * c) * c, a * (c * c))]:
            assert left == right
            assert hash(left) == hash(right)
            assert left.nums == right.nums and left.den == right.den

    @given(pairs=forty_digit_pairs())
    def test_sign_and_value_over_40_digit_tables(self, pairs):
        for a, ra in pairs + [(pairs[0][0] - pairs[1][0], pairs[0][1] - pairs[1][1])]:
            assert a.value() == ra.value()
            try:
                expected = ref_sign(ra)
            except PrecisionExhausted:
                with pytest.raises(PrecisionExhausted):
                    sign(a)
            else:
                assert sign(a) == expected

    @given(pairs=st.lists(scalar_pairs(TABLE), min_size=1, max_size=6))
    def test_q_rank(self, pairs):
        assert q_rank([a for a, _ in pairs]) == ref_q_rank([r for _, r in pairs])

    @given(pairs=forty_digit_pairs(count=5), k=st.integers(0, 4),
           ks=st.lists(st.integers(-6, 6), min_size=4, max_size=4))
    def test_q_rank_and_reduce_over_40_digit_tables(self, pairs, k, ks):
        gens, v = pairs[:k], pairs[k]
        assert q_rank([a for a, _ in pairs]) == ref_q_rank([r for _, r in pairs])
        member = sum((a * n for (a, _), n in zip(gens, ks)), v[0].table.zero())
        for value in (v[0], member, member * Fraction(1, 2), v[0] + member):
            reduced = Lattice([a for a, _ in gens]).reduce(value)
            assert_same(reduced, ref_reduce([r for _, r in gens], as_ref(value)))

    def test_a_symbol_declared_after_values_exist(self):
        table = make_table()
        def values():
            return [table.symbol("p", Fraction(3, 7)) - table.rational(2), table.symbol("r", -5),
                    table.zero()]

        before = values()
        table.declare("s", "-2.71828182845904523536028747135266249775")
        after = values()
        assert before == after
        assert [hash(a) for a in before] == [hash(a) for a in after]
        s = table.symbol("s")
        for a in before:
            assert_same(a + s, as_ref(a) + as_ref(s))
            assert sign(a + s) == ref_sign(as_ref(a) + as_ref(s))
            assert (a + s).value() == as_ref(a + s).value()
        assert q_rank(before + [s]) == ref_q_rank([as_ref(a) for a in before + [s]]) == 3
        assert Lattice(before).reduce(s * Fraction(1, 2)) == s * Fraction(1, 2)


def fraction_ratio_to(a, b):
    """The Fraction definition of `ratio_to` from before it cross-multiplied
    integer rows: divide at b's first nonzero coefficient, then check."""
    if b.is_zero():
        return Fraction(0) if a.is_zero() else None
    i0 = next(i for i, x in enumerate(b.nums) if x)
    r = a.coefficient(i0) / b.coefficient(i0)
    return r if a == b * r else None


@st.composite
def ratio_pairs(draw):
    """(a, b) over TABLE with signed numerators, rows of 0 to 4 entries and
    their own denominators; a is drawn free, or as b times a rational (zero
    included), or as b times a rational plus one perturbed coefficient."""
    rows = st.lists(st.integers(-30, 30), max_size=len(TABLE))
    b = sc.SymScalar(TABLE, draw(rows), draw(st.integers(1, 36)))
    how = draw(st.sampled_from(["free", "multiple", "perturbed"]))
    if how == "free":
        return sc.SymScalar(TABLE, draw(rows), draw(st.integers(1, 36))), b
    a = b * draw(rationals)
    if how == "perturbed":
        a = a + TABLE.symbol(draw(st.sampled_from(["one", "p", "q", "r"])), draw(rationals))
    return a, b


class TestRatioAgainstTheFractionDefinition:
    @given(pair=ratio_pairs())
    @example(pair=(TABLE.zero(), TABLE.zero()))
    @example(pair=(TABLE.zero(), TABLE.symbol("q", Fraction(-3, 4))))
    @example(pair=(TABLE.symbol("p", Fraction(2, 3)), TABLE.zero()))
    @example(pair=(TABLE.rational(2), TABLE.rational(2) + TABLE.symbol("r", 5)))
    @example(pair=(TABLE.rational(2) + TABLE.symbol("r", 5), TABLE.rational(2)))
    @example(pair=(TABLE.symbol("q", Fraction(-5, 6)) + TABLE.rational(Fraction(1, 4)),
                   TABLE.symbol("q", Fraction(10, 9)) - TABLE.rational(Fraction(1, 3))))
    def test_integer_ratio_equals_the_fraction_ratio(self, pair):
        a, b = pair
        r = a.ratio_to(b)
        assert r == fraction_ratio_to(a, b)
        assert type(r) in (Fraction, type(None))
        if r is not None:
            assert a == b * r

    @given(pair=ratio_pairs())
    @example(pair=(TABLE.symbol("q", 3), TABLE.symbol("q", -3) + TABLE.rational(1)))
    def test_two_rows_are_dependent_when_proportional(self, pair):
        a, b = pair
        rank = q_rank([a, b])
        # a third nonzero row inside the span sends the pair through elimination
        assert rank == q_rank([a, b, a * 2 + b * 3])
        assert (rank <= 1) == (b.is_zero() or a.ratio_to(b) is not None)


# -- the Fraction definitions the integer rows must reproduce -----------------
#
# Each oracle works coefficient by coefficient on Fractions, as the operations
# were defined before they stayed on integer rows, and returns the canonical
# (nums, den) pair: over the lcm of reduced denominators that pair is unique.


def canonical_row(coeffs):
    """(nums, den) of a dense Fraction coefficient list."""
    den = lcm(*(c.denominator for c in coeffs)) if coeffs else 1
    nums = [int(c * den) for c in coeffs]
    while nums and not nums[-1]:
        nums.pop()
    return tuple(nums), den


def dense(a):
    return [a.coefficient(i) for i in range(len(TABLE))]


def fraction_add(a, b):
    return canonical_row([x + y for x, y in zip(dense(a), dense(b))])


def fraction_sub(a, b):
    return canonical_row([x - y for x, y in zip(dense(a), dense(b))])


def fraction_mul(a, c):
    return canonical_row([Fraction(c) * x for x in dense(a)])


def fraction_render(a):
    parts = [str(a.coefficient(0))]
    for i in range(1, len(a.nums)):
        if a.nums[i]:
            parts.append(f"+ {a.coefficient(i)}*{a.table.symbols[i].name}")
    return " ".join(parts)


def fraction_combination(table, terms):
    """Term by term: each coefficient added into its slot as a Fraction."""
    coeffs = [Fraction(0)] * len(table)
    for coeff, name in terms:
        coeffs[table.index_of(name)] += Fraction(coeff)
    return canonical_row(coeffs)


def assert_canonical(v):
    assert type(v.nums) is tuple and all(type(x) is int for x in v.nums)
    assert type(v.den) is int and v.den > 0
    assert not v.nums or v.nums[-1] != 0
    assert gcd(v.den, *v.nums) == 1


# zero slots often, integers (denominator 1) often, signed mixed denominators
coefficients = st.one_of(
    st.just(Fraction(0)),
    st.integers(-20, 20).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)
row_values = st.lists(coefficients, max_size=len(TABLE)).map(
    lambda cs: sc.SymScalar(TABLE, *canonical_row(cs)))
# int, Fraction (whole ones included) and str multipliers, zero included
multipliers = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-12, max_value=12, max_denominator=9),
    st.integers(-12, 12).map(Fraction),
    st.fractions(min_value=-12, max_value=12, max_denominator=9).map(str),
)


class TestArithmeticAgainstTheFractionDefinition:
    @given(a=row_values, b=row_values)
    @example(a=TABLE.zero(), b=TABLE.zero())
    @example(a=TABLE.zero(), b=TABLE.symbol("q", Fraction(-3, 4)))
    @example(a=TABLE.symbol("r", 2), b=TABLE.symbol("r", -2))
    @example(a=TABLE.symbol("p", Fraction(1, 6)), b=TABLE.symbol("p", Fraction(5, 6)))
    def test_sum_and_difference(self, a, b):
        for got, want in ((a + b, fraction_add(a, b)), (a - b, fraction_sub(a, b)),
                          (b - a, fraction_sub(b, a))):
            assert (got.nums, got.den) == want
            assert_canonical(got)

    @given(a=row_values)
    def test_negation(self, a):
        assert ((-a).nums, (-a).den) == fraction_mul(a, -1)
        assert_canonical(-a)

    @given(a=row_values, c=multipliers)
    @example(a=TABLE.symbol("p", Fraction(1, 6)), c=4)
    @example(a=TABLE.symbol("p", Fraction(1, 6)), c=-6)
    @example(a=TABLE.zero(), c=5)
    @example(a=TABLE.rational(3), c=0)
    def test_multiple(self, a, c):
        for got in (a * c, c * a):
            assert (got.nums, got.den) == fraction_mul(a, c)
            assert_canonical(got)

    @given(a=row_values, c=multipliers)
    @example(a=TABLE.symbol("q", Fraction(4, 3)), c=-6)
    @example(a=TABLE.zero(), c=-2)
    def test_quotient(self, a, c):
        if Fraction(c) == 0:
            with pytest.raises(ZeroDivisionError):
                a / c
            return
        got = a / c
        assert (got.nums, got.den) == fraction_mul(a, 1 / Fraction(c))
        assert_canonical(got)

    @given(a=row_values)
    @example(a=TABLE.zero())
    @example(a=TABLE.symbol("r", Fraction(-7, 3)))
    def test_render(self, a):
        assert a.render() == fraction_render(a)

    @given(terms=st.lists(st.tuples(st.one_of(multipliers, coefficients),
                                    st.sampled_from(["one", "p", "q", "r"])), max_size=6))
    @example(terms=[])
    @example(terms=[(1, "p"), (-1, "p")])
    @example(terms=[(Fraction(1, 2), "q"), ("-1/2", "q"), (3, "one")])
    @example(terms=[(0, "r")])
    @example(terms=[(Fraction(0), "one")])
    @example(terms=[(7, "one")])
    @example(terms=[(-3, "r")])
    @example(terms=[(Fraction(-4, 6), "q")])
    @example(terms=[(Fraction(6, 3), "p")])
    @example(terms=[(True, "p")])
    @example(terms=[(2, "p"), (Fraction(-1, 2), "q"), (-2, "p")])
    @example(terms=[(Fraction(1, 3), "r"), (Fraction(-1, 3), "r")])
    def test_combination(self, terms):
        got = TABLE.combination(terms)
        assert (got.nums, got.den) == fraction_combination(TABLE, terms)
        assert_canonical(got)
        # the same row from an iterator, and as the sum of one-term rows
        assert TABLE.combination(iter(terms)) == got
        assert sum((TABLE.combination([t]) for t in terms), TABLE.zero()) == got

    def test_combination_checks_each_term_in_order(self):
        with pytest.raises(ValueError) as err:
            TABLE.combination([("x", "p"), (1, "nope")])
        assert type(err.value) is ValueError  # the bad coefficient, not the name
        with pytest.raises(sc.ScalarError):
            TABLE.combination([(1, "nope"), ("x", "p")])
        for coeff in (0, 1, Fraction(1, 2)):  # one term: its name is checked too
            with pytest.raises(sc.ScalarError):
                TABLE.combination([(coeff, "nope")])
        with pytest.raises(ValueError) as err:
            TABLE.combination([("x", "nope")])
        assert type(err.value) is ValueError


# one-entry rows: numerators of either sign, small or up to the 4,300-digit
# bound, over denominators 1, small or as long
_big = sc._TOO_LONG - 1
_numerators = st.one_of(st.integers(-30, 30), st.integers(-_big, _big)).filter(bool)
_denominators = st.one_of(st.just(1), st.integers(1, 60), st.integers(1, _big))


@st.composite
def rational_rows(draw, table=TABLE, den=None):
    """A nonzero rational of `table` whose row's denominator is exactly `den`
    when given, so two rows can share theirs or be coprime."""
    d = draw(_denominators) if den is None else den
    n = draw(_numerators.filter(lambda n: gcd(n, d) == 1))
    return table.rational(Fraction(n, d))


@st.composite
def rational_pairs(draw, table=TABLE):
    """Two rationals whose denominators are equal, coprime or drawn apart."""
    a = draw(rational_rows(table))
    shape = draw(st.sampled_from(["equal", "coprime", "free"]))
    if shape == "equal":
        return a, draw(rational_rows(table, a.den))
    if shape == "coprime":
        return a, draw(rational_rows(table, draw(_denominators.filter(
            lambda d: gcd(d, a.den) == 1))))
    return a, draw(rational_rows(table))


@st.composite
def rational_pairs_over_40_digit_tables(draw):
    lits = draw(st.lists(literals40, min_size=1, max_size=3))
    return draw(rational_pairs(SymbolTable([(f"s{i}", lit) for i, lit in enumerate(lits)])))


class TestOneEntryRows:
    """Rationals take one-step paths through `+`, `-`, `sign` and
    `SymbolTable.rational`; each answer is the Fraction definition's."""

    @given(pair=rational_pairs())
    @example(pair=(TABLE.rational(Fraction(3, 56)), TABLE.rational(Fraction(3, 56))))
    @example(pair=(TABLE.rational(7), TABLE.rational(-7)))
    @example(pair=(TABLE.rational(Fraction(1, 6)), TABLE.rational(Fraction(5, 6))))
    @example(pair=(TABLE.rational(Fraction(-2, 21)), TABLE.rational(Fraction(1, 112))))
    @example(pair=(TABLE.rational(-_big), TABLE.rational(Fraction(1, _big))))
    @example(pair=(TABLE.rational(_big), TABLE.rational(_big)))
    def test_sum_and_difference(self, pair):
        a, b = pair
        for got, want in ((a + b, fraction_add(a, b)), (a - b, fraction_sub(a, b)),
                          (b - a, fraction_sub(b, a)), (a - a, ((), 1)), (b - b, ((), 1))):
            assert (got.nums, got.den) == want
            assert_canonical(got)

    @given(pair=rational_pairs_over_40_digit_tables())
    def test_sign_is_that_of_the_embedding(self, pair):
        a, b = pair
        for v in (a, b, a + b, a - b, b - a, -a):
            assert sign(v) == (v.value() > 0) - (v.value() < 0)

    @given(value=st.one_of(
        st.integers(-10**6, 10**6), st.integers(-_big, _big), st.booleans(),
        st.fractions(max_denominator=10**6),
        st.fractions(max_denominator=10**6).map(str),
        st.decimals(allow_nan=False, allow_infinity=False, places=4).map(str)))
    @example(value=0)
    @example(value=Fraction(0))
    @example(value=False)
    @example(value="-0")
    @example(value="-6/4")
    @example(value=" 2.50 ")
    @example(value=Fraction(3, 56))
    def test_rational_is_the_general_constructors_row(self, value):
        c = Fraction(value)
        general = sc.SymScalar(TABLE, (c.numerator,), c.denominator)
        got = TABLE.rational(value)
        assert (got.nums, got.den) == (general.nums, general.den)
        assert_canonical(got)


class TestOneEntryCost:
    """A rational never reaches the row constructor or the embedding's dot
    product; a value with a symbol part still does."""

    def test_rationals_take_neither_the_row_path_nor_the_dot_product(self, monkeypatch):
        r, s = TABLE.rational(Fraction(3, 56)), TABLE.rational(Fraction(-5, 14))
        x = TABLE.combination([(Fraction(1, 2), "p"), (Fraction(1, 3), "one")])

        def refused(*args):
            raise AssertionError("the general row path ran")

        monkeypatch.setattr(sc.SymScalar, "_dot", refused)
        monkeypatch.setattr(sc.SymScalar, "__init__", refused)
        assert (sign(r), sign(s), sign(r - r)) == (1, -1, 0)
        assert ((r + s).nums, (r + s).den) == ((-17,), 56)
        assert ((r - s).nums, (r - s).den) == ((23,), 56)
        assert ((s - r).nums, (s - r).den) == ((-23,), 56)
        made = TABLE.rational(Fraction(3, 56))
        assert (made.nums, made.den) == ((3,), 56)
        for general in (lambda: sign(x), lambda: x + r, lambda: r + x, lambda: x - r,
                        lambda: r - x, lambda: TABLE.symbol("p", Fraction(3, 56))):
            with pytest.raises(AssertionError, match="general row path"):
                general()


class TestTableSharedAcrossThreads:
    def test_declares_never_tear_signs_or_values(self):
        table = SymbolTable([("p", PI), ("q", SQRT2)])
        rng = random.Random(11)
        made = [table.combination([(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), n)
                                   for n in ("one", "p", "q")]) for _ in range(20)]
        serial = [(sign(a), a.value()) for a in made]
        done = threading.Event()
        wrong = []

        def declare():
            # each literal has its own number of decimals, so each declare
            # rescales every literal over a new common denominator
            for i in range(50):
                table.declare(f"s{i}", f"{i + 1}.{'7' * (i + 1)}")
            done.set()

        def read():
            for _ in range(200_000):
                answers = [(sign(a), a.value()) for a in made]
                if answers != serial:
                    wrong.append(answers)
                if done.is_set():
                    return

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(3)]
            threads.append(threading.Thread(target=declare))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(saved)
        assert not any(t.is_alive() for t in threads)
        assert done.is_set() and len(table) == 53
        assert wrong == []

    def test_concurrent_declares_keep_every_symbol(self):
        table = SymbolTable()
        names = [[f"t{k}_{i}" for i in range(150)] for k in range(2)]

        def declare(mine):
            for i, name in enumerate(mine):
                table.declare(name, f"{i + 1}.{'3' * (i % 40 + 1)}")

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=declare, args=(mine,)) for mine in names]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(saved)
        assert not any(t.is_alive() for t in threads)
        assert len(table) == 301
        for mine in names:
            for i, name in enumerate(mine):
                assert table.symbol(name).value() == Fraction(f"{i + 1}.{'3' * (i % 40 + 1)}")


def _float_or_overflow(convert):
    try:
        return convert().hex()
    except OverflowError:
        return "OverflowError"


@st.composite
def wide_scalars(draw):
    """Scalars whose embeddings range from subnormal to past the float range:
    a symbol of any decimal exponent, coefficients of up to 40 digits."""
    literal = f"{draw(st.integers(1, 10**6))}e{draw(st.integers(-700, 700))}"
    table = SymbolTable([("s", literal)])
    wide = st.fractions(max_denominator=10**40).filter(lambda c: abs(c.numerator) < 10**40)
    return table.rational(draw(wide)) + table.symbol("s", draw(wide))


class TestFloatAgainstTheFraction:
    @given(a=st.one_of(row_values, scalars_over_40_digit_tables(), wide_scalars()))
    @example(a=TABLE.zero())
    @example(a=SymbolTable([("s", "1e400")]).symbol("s", -3))
    @example(a=SymbolTable([("s", "1e-400")]).symbol("s", Fraction(1, 7)))
    def test_float_is_the_fractions_bit_for_bit(self, a):
        # both are one correctly rounded integer division, so they agree on
        # every bit and on where they overflow
        assert _float_or_overflow(lambda: float(a)) == _float_or_overflow(
            lambda: float(Fraction(a.value())))


class TestFloorQuotient:
    @given(a=st.one_of(row_values, wide_scalars()), b=row_values)
    @example(a=TABLE.symbol("p", -7), b=TABLE.symbol("p"))
    @example(a=TABLE.rational(3), b=TABLE.rational(Fraction(-3, 2)))
    def test_matches_the_fraction_floor_division(self, a, b):
        if b.is_zero() or a.table is not b.table:
            return
        assert sc.floor_quotient(a, b) == a.value() // b.value()

    def test_a_zero_divisor_raises_as_the_fraction_does(self):
        with pytest.raises(ZeroDivisionError):
            sc.floor_quotient(TABLE.rational(1), TABLE.zero())


class TestRenders:
    @pytest.mark.parametrize("terms, ok", [
        ([(10**4300 - 1, "p")], True),
        ([(10**4300, "p")], False),
        ([(-(10**4300 - 1), "p")], True),
        ([(Fraction(1, 10**4300), "p")], False),
        ([(Fraction(1, 10**4300 - 1), "p")], True),
        ([(Fraction(10**4300, 3), "p")], False),
        # the row is 10^4300 and 1 over 10; each coefficient prints in lowest terms
        ([(10**4299, "one"), (Fraction(1, 10), "p")], True),
    ], ids=["4300-digit-num", "4301-digit-num", "negative", "4301-digit-den",
            "4300-digit-den", "4301-digit-num-over-3", "lowest-terms"])
    def test_the_bound_is_what_str_of_an_int_writes(self, terms, ok):
        a = TABLE.combination(terms)
        assert sc.renders(a) is ok
        if ok:
            a.render()
        else:
            with pytest.raises(ValueError, match="4300 digits"):
                a.render()

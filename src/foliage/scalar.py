"""Exact arithmetic over a finitely generated Q-vector space of real constants.

Values are formal Q-linear combinations of named basis constants ("symbols").
The table declares which constants are independent over Q; equality, rank and
lattice membership are decided coefficient-wise, so they are exact under that
declaration.  A value is one positive integer denominator over a tuple of
integer numerators by table position, in lowest terms and without trailing
zeros: the form is unique, even across later declarations, and ranks and
lattices work on the integer rows.  Operations stay on those rows: a result
that is canonical by construction (a negation, a zero or identity operand,
a rational or a one-term combination built from an int or a Fraction) is
built without a trim or a gcd, a multiple by a whole number and a sum of two
rationals (one numerator over the lcm of their denominators) each with one
gcd of two integers, and text is formatted from the row.  A `Fraction`
appears only where one comes in or goes out: a declared literal, a rational
coefficient a caller writes, and `coefficient`/`value`/`ratio_to` results.
Each symbol carries a decimal embedding, read as the exact rational it
writes; the table keeps those literals as integers over one common
denominator, so a sign is that of an integer sum, and a rational's sign is
its numerator's, since the table embeds "one" as a positive integer.

Values are immutable and freely shareable across threads; no operation reads
or writes module state.  Declarations are serialised by the table's lock, and
each replaces the scaled literals in one assignment, so no reader pairs a new
scale with old numerators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from threading import Lock
from typing import Iterable, NamedTuple, Sequence


class FoliageError(ValueError):
    """Base of every domain error the package raises: malformed input or a
    configuration outside the theory."""


class ScalarError(FoliageError):
    pass


class MixedTableError(ScalarError):
    """Two scalars from different symbol tables met in one operation."""


class PrecisionExhausted(ScalarError):
    """The numeric embedding could not separate a value from zero.

    Raised when a symbolically nonzero value embeds to exactly 0; this signals
    an ill-conditioned symbol table (e.g. a declared-independent symbol whose
    embedding is a rational combination of the others' embeddings).
    """


class memo:
    """A method read as an attribute, computed on first read and kept in the
    instance's ``__dict__``, where later reads find it without calling back.
    No lock: a pure computation that two threads race on gives equal values,
    and a first read that raises keeps nothing."""

    def __init__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


# the most digits a literal may expand to: the limit Python puts on the digit
# strings int() reads, which plain integer literals already meet
LITERAL_DIGITS = 4300
# the least integer past LITERAL_DIGITS digits
_TOO_LONG = 10**LITERAL_DIGITS


def read_rational(text: str) -> int | Fraction:
    """The rational a literal writes.  ASCII ``-?digits(/digits)?``, and
    ``-?digits.digits`` of at most LITERAL_DIGITS characters, are read with
    int; any other text goes through Fraction, which decides what else is
    accepted (other decimals, exponents, ``+``, underscores, other digits),
    once its mantissa's digits plus its exponent's size are at most
    LITERAL_DIGITS, so no literal expands into a longer integer.  Raises
    ValueError or ZeroDivisionError on any other text."""
    word = text.strip()
    if word.isascii():
        num, slash, den = word.partition("/")
        whole, dot, frac = num.partition(".")
        if (whole[1:] if whole[:1] == "-" else whole).isdigit():
            if not (slash or dot):
                return int(num)
            if not dot and den.isdigit() and den.strip("0"):
                return Fraction(int(num), int(den))
            if not slash and frac.isdigit() and len(num) <= LITERAL_DIGITS:
                return Fraction(int(whole + frac), 10 ** len(frac))
    mantissa, _, exponent = word.lower().partition("e")
    if sum(map(str.isdigit, mantissa)) + abs(int(exponent or 0)) > LITERAL_DIGITS:
        raise ValueError(f"{text!r} expands past {LITERAL_DIGITS} digits")
    return Fraction(word)


def read_symbol(name: str, value: str) -> int | Fraction:
    """The nonzero rational a symbol's literal writes; ScalarError otherwise."""
    try:
        exact = read_rational(value)
    except (ValueError, ZeroDivisionError):
        raise ScalarError(
            f"symbol {name!r}: value {value!r} is not a decimal literal "
            f"of at most {LITERAL_DIGITS} digits"
        ) from None
    if exact == 0:
        raise ScalarError(f"symbol {name!r}: numeric value must be nonzero")
    return exact


class Symbol(NamedTuple):
    name: str
    value: str  # decimal literal, the numeric embedding


class SymbolTable:
    """Ordered basis of named real constants; index 0 is always "one" = 1."""

    def __init__(self, symbols: Iterable[tuple] = ()):
        self.symbols: list[Symbol] = [Symbol("one", "1")]
        # (literals as integers over D, D), replaced whole by each declare
        self.scaled: tuple[tuple[int, ...], int] = ((1,), 1)
        self._index: dict[str, int] = {"one": 0}
        self._declaring = Lock()
        for symbol in symbols:
            self.declare(*symbol)

    def declare(self, name: str, value: str, exact: int | Fraction | None = None) -> int:
        """Append a symbol; `exact` is its literal's value, if already read."""
        with self._declaring:  # a read-modify-write of the whole table
            if name in self._index:
                raise ScalarError(f"duplicate symbol {name!r}")
            if exact is None:
                exact = read_symbol(name, value)
            lits, den = self.scaled
            common = lcm(den, exact.denominator)
            self.symbols.append(Symbol(name, value))
            new = exact.numerator * (common // exact.denominator)
            self.scaled = (tuple(a * (common // den) for a in lits) + (new,), common)
            self._index[name] = len(self.symbols) - 1
            return self._index[name]

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ScalarError(f"unknown symbol {name!r}") from None

    def __len__(self) -> int:
        return len(self.symbols)

    # -- constructors ------------------------------------------------------

    def zero(self) -> "SymScalar":
        return _canonical(self, (), 1)

    def rational(self, value) -> "SymScalar":
        # an int or a Fraction is in lowest terms already
        c = value if isinstance(value, (int, Fraction)) else Fraction(value)
        if not c:
            return _canonical(self, (), 1)
        return _canonical(self, (c.numerator,), c.denominator)

    def symbol(self, name: str, coeff=1) -> "SymScalar":
        return self.combination([(coeff, name)])

    def combination(self, terms: Iterable[tuple[object, str]]) -> "SymScalar":
        """Build sum of coeff*symbol terms, e.g. [(Fraction(3,2),'one'),(1,'p')],
        as one integer row over the lcm of the coefficients' denominators."""
        found = []
        for coeff, name in terms:
            c = coeff if isinstance(coeff, (int, Fraction)) else Fraction(coeff)
            found.append((self.index_of(name), c.numerator, c.denominator))
        if len(found) < 2:  # no term, or one in lowest terms: canonical as built
            if not found or not found[0][1]:
                return _canonical(self, (), 1)
            i, n, d = found[0]
            return _canonical(self, (0,) * i + (n,), d)
        den = lcm(*[d for _, _, d in found])
        row = [0] * (max(i for i, _, _ in found) + 1)
        for i, n, d in found:
            row[i] += n * (den // d)
        return SymScalar(self, row, den)


class SymScalar:
    """Element of the Q-span of the table's symbols: numerators nums over den."""

    __slots__ = ("table", "nums", "den")

    def __init__(self, table: SymbolTable, nums: Sequence[int], den: int = 1):
        nums = _trimmed(nums)
        g = gcd(den, *nums)
        self.table = table
        self.nums = tuple([x // g for x in nums]) if g != 1 else nums
        self.den = den // g

    # -- ring-ish operations ------------------------------------------------

    def _check(self, other: "SymScalar") -> None:
        if self.table is not other.table:
            raise MixedTableError("operands belong to different symbol tables")

    def __add__(self, other: "SymScalar") -> "SymScalar":
        return self._plus(other, 1)

    def __sub__(self, other: "SymScalar") -> "SymScalar":
        return self._plus(other, -1)

    def _plus(self, other: "SymScalar", s: int) -> "SymScalar":
        """self + s*other for s = 1 or -1, on the rows."""
        self._check(other)
        if not other.nums:
            return self
        if not self.nums:
            return other if s == 1 else -other
        if len(self.nums) == 1 == len(other.nums):  # two rationals: one numerator
            g = gcd(self.den, other.den)
            ka = other.den // g
            n = self.nums[0] * ka + s * other.nums[0] * (self.den // g)
            if not n:
                return _canonical(self.table, (), 1)
            den = self.den * ka
            g = gcd(n, den)
            return _canonical(self.table, (n // g,), den // g)
        g = gcd(self.den, other.den)
        ka, kb = other.den // g, s * (self.den // g)
        nums = [x * ka + y * kb for x, y in zip_longest(self.nums, other.nums, fillvalue=0)]
        return SymScalar(self.table, nums, self.den * ka)

    def __neg__(self) -> "SymScalar":
        return _canonical(self.table, tuple([-x for x in self.nums]), self.den)

    def __mul__(self, rational) -> "SymScalar":
        c = rational if isinstance(rational, (int, Fraction)) else Fraction(rational)
        n, d = c.numerator, c.denominator
        if d != 1:
            return SymScalar(self.table, [n * x for x in self.nums], d * self.den)
        if n == 1 or not self.nums:
            return self
        if not n:
            return _canonical(self.table, (), 1)
        # gcd(den, nums) = 1, so only n's common factor with den cancels
        g = gcd(n, self.den)
        if g != 1:
            n //= g
        return _canonical(self.table, tuple([n * x for x in self.nums]), self.den // g)

    __rmul__ = __mul__

    def __truediv__(self, rational) -> "SymScalar":
        if type(rational) is int and rational:
            if not self.nums:
                return self
            # gcd(den, nums) = 1, so only the divisor's common factor with the
            # numerators cancels; its sign moves onto them
            g = gcd(rational, *self.nums)
            k = -g if rational < 0 else g
            return _canonical(self.table, tuple([x // k for x in self.nums]),
                              self.den * (rational // k))
        return self * (Fraction(1) / Fraction(rational))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymScalar):
            return NotImplemented
        return self.table is other.table and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((id(self.table), self.den, self.nums))

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, index: int) -> Fraction:
        return Fraction(self.nums[index], self.den) if index < len(self.nums) else Fraction(0)

    def vector(self) -> tuple[Fraction, ...]:
        """Dense coefficient vector over the full table."""
        return tuple(self.coefficient(i) for i in range(len(self.table)))

    def ratio_to(self, other: "SymScalar") -> Fraction | None:
        """The rational r with self == r*other, or None if no such r exists,
        decided on the trimmed integer rows, whose last entries give r."""
        self._check(other)
        if not self.nums:
            return Fraction(0)
        if not _proportional(self.nums, other.nums):
            return None
        return Fraction(self.nums[-1] * other.den, self.den * other.nums[-1])

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Canonical text: rational part first, then + c*name terms in table order."""
        nums, den, symbols = self.nums, self.den, self.table.symbols
        parts = [_ratio_text(nums[0], den) if nums else "0"]
        for i in range(1, len(nums)):
            if nums[i]:
                parts.append(f"+ {_ratio_text(nums[i], den)}*{symbols[i].name}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"SymScalar({self.render()})"

    def _dot(self) -> tuple[int, int]:
        """Numerator and denominator of the exact embedding, unreduced."""
        lits, den = self.table.scaled  # one read: a consistent pair
        return sum(x * a for x, a in zip(self.nums, lits)), self.den * den

    def value(self) -> Fraction:
        """The exact embedding: sum of coefficient times declared literal."""
        return Fraction(*self._dot())

    def __float__(self) -> float:
        # integer true division is correctly rounded, so this is the float
        # of value() without building the Fraction
        n, d = self._dot()
        return n / d


def _canonical(table: SymbolTable, nums: tuple[int, ...], den: int) -> SymScalar:
    """A scalar from a row the caller knows is canonical: a tuple without
    trailing zeros, den > 0 and gcd(den, *nums) == 1."""
    out = object.__new__(SymScalar)
    out.table, out.nums, out.den = table, nums, den
    return out


def _trimmed(nums: Sequence[int]) -> tuple[int, ...]:
    """The row as a tuple without its trailing zeros."""
    n = len(nums)
    while n and not nums[n - 1]:
        n -= 1
    return tuple(nums[:n]) if n != len(nums) else tuple(nums)


def _proportional(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    """Whether two nonzero trimmed rows are proportional: they end in nonzero
    entries, so exactly when they have one length and cross-multiply by those."""
    return len(x) == len(y) and all(u * y[-1] == v * x[-1] for u, v in zip(x, y))


def renders(a: SymScalar) -> bool:
    """Whether render() can write a: every coefficient's numerator and
    denominator in lowest terms has at most LITERAL_DIGITS digits, the most
    that str() of an int writes."""
    if a.den < _TOO_LONG and max(map(abs, a.nums), default=0) < _TOO_LONG:
        return True
    return all(max(abs(n), a.den) // gcd(n, a.den) < _TOO_LONG for n in a.nums)


def _ratio_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, with one gcd."""
    g = gcd(n, d)
    try:
        return str(n // g) if g == d else f"{n // g}/{d // g}"
    except ValueError:  # a part has more digits than str() of an int writes
        raise ScalarError(f"a computed value expands past {LITERAL_DIGITS} digits") from None


# -- module operations -------------------------------------------------------


def q_rank(vals: Sequence[SymScalar]) -> int:
    """Dimension of the Q-span of the values, by fraction-free (Bareiss)
    elimination on their integer numerator rows; up to two nonzero rows are
    decided directly."""
    if not vals:
        raise ScalarError("q_rank needs a nonempty list")
    table = vals[0].table
    for v in vals[1:]:
        if v.table is not table:
            raise MixedTableError("q_rank inputs span several symbol tables")
    rows = [v.nums for v in vals if v.nums]
    if len(rows) < 2:
        return len(rows)
    if len(rows) == 2:
        return 1 if _proportional(*rows) else 2
    ncols = max(map(len, rows))
    rows = [list(r) + [0] * (ncols - len(r)) for r in rows]
    rank, prev = 0, 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank]
        p = lead[col]
        for r in range(rank + 1, len(rows)):
            row, f = rows[r], rows[r][col]
            rows[r] = [(p * x - f * y) // prev for x, y in zip(row, lead)]
        prev = p
        rank += 1
    return rank


def sign(a: SymScalar) -> int:
    """-1, 0 or +1; zero iff the scalar is symbolically zero.

    Nonzero scalars take the sign of their exact embedding, one integer dot
    product with the table's scaled literals; one that embeds to exactly 0
    raises PrecisionExhausted.  A rational takes its numerator's sign: the
    table embeds "one" as a positive integer.
    """
    if not a.nums:
        return 0
    if len(a.nums) == 1:
        return 1 if a.nums[0] > 0 else -1
    total = a._dot()[0]
    if total == 0:
        raise PrecisionExhausted(
            f"sign of {a.render()} undecided: it embeds to exactly 0; "
            "the symbol table's numeric embedding is ill-conditioned"
        )
    return 1 if total > 0 else -1


def floor_quotient(a: SymScalar, b: SymScalar) -> int:
    """floor(a / b) of the exact embeddings, from their integer dot products
    as Fraction's // computes it from the two values; ZeroDivisionError when
    b embeds to exactly 0."""
    (an, ad), (bn, bd) = a._dot(), b._dot()
    return (an * bd) // (ad * bn)


def scalar_min(a: SymScalar, b: SymScalar) -> SymScalar:
    return a if sign(a - b) <= 0 else b


def scalar_max(a: SymScalar, b: SymScalar) -> SymScalar:
    return a if sign(a - b) >= 0 else b


# -- integer lattices over the coefficient space ------------------------------


def hermite_normal_form(rows: list[list[int]]) -> list[list[int]]:
    """Row-style HNF of the integer row lattice; canonical, zero rows dropped."""
    m = [list(r) for r in rows if any(r)]
    if not m:
        return []
    ncols = len(m[0])
    done = 0
    for col in range(ncols):
        piv = None
        for r in range(done, len(m)):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[done], m[piv] = m[piv], m[done]
        # clear below by gcd row operations
        for r in range(done + 1, len(m)):
            while m[r][col]:
                q = m[done][col] // m[r][col]
                for c in range(ncols):
                    m[done][c] -= q * m[r][c]
                m[done], m[r] = m[r], m[done]
        if m[done][col] < 0:
            m[done] = [-x for x in m[done]]
        # reduce entries above the pivot into [0, pivot)
        p = m[done][col]
        for r in range(done):
            q = m[r][col] // p
            if q:
                for c in range(ncols):
                    m[r][c] -= q * m[done][c]
        done += 1
    return [r for r in m[:done] if any(r)]


class Lattice:
    """The Z-lattice spanned by scalars of one table, kept as one HNF.

    Denominators are cleared once, at construction; every later question is a
    reduction against the same Hermite normal form.  Repeated generators span
    nothing new, so they are dropped before the reduction.
    """

    def __init__(self, generators: Iterable[SymScalar]):
        gens = [g for g in dict.fromkeys(generators) if not g.is_zero()]
        for g in gens[1:]:
            gens[0]._check(g)
        self.table = gens[0].table if gens else None
        self.denom = lcm(*[g.den for g in gens])
        self._ncols = max((len(g.nums) for g in gens), default=0)
        rows = [[x * (self.denom // g.den) for x in g.nums] for g in gens]
        hnf = hermite_normal_form([r + [0] * (self._ncols - len(r)) for r in rows])
        self._rows = [(next(i for i, a in enumerate(row) if a), row) for row in hnf]

    def reduce(self, v: SymScalar) -> SymScalar:
        """The canonical representative of the coset v + L: top-down through
        the HNF rows, each pivot coordinate is brought into [0, pivot).  The
        row-echelon shape makes the result unique."""
        if self.table is not None and v.table is not self.table:
            raise MixedTableError("operands belong to different symbol tables")
        # x counts units of 1/(denom*v.den), so the rows scale by v.den
        x = [c * self.denom for c in v.nums] + [0] * (self._ncols - len(v.nums))
        for col, row in self._rows:
            q = x[col] // (row[col] * v.den) * v.den
            if q:
                for i, a in enumerate(row):
                    x[i] -= q * a
        return SymScalar(v.table, x, self.denom * v.den)

    def __contains__(self, v: SymScalar) -> bool:
        return self.reduce(v).is_zero()


class Periods(tuple):
    """Distinct scalars of one table in first-seen order, compared as that
    tuple; the Lattice they span is built on first read and then kept in
    the instance's `__dict__`."""

    def __new__(cls, values: Iterable[SymScalar]):
        return super().__new__(cls, dict.fromkeys(values))

    @memo
    def lattice(self) -> Lattice:
        return Lattice(self)

"""Exact arithmetic over a finitely generated Q-vector space of real constants.

Values are formal Q-linear combinations of named basis constants ("symbols").
The table declares which constants are independent over Q; equality, rank and
lattice membership are decided coefficient-wise, so they are exact under that
declaration.  Each symbol carries a decimal embedding, read as the exact
rational it writes; signs are decided by evaluating a value's combination of
those rationals exactly.

Values are immutable and freely shareable across threads; no operation reads
or writes module state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence


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


@dataclass(frozen=True)
class Symbol:
    name: str
    value: str  # decimal literal, the numeric embedding
    independent: bool = True


class SymbolTable:
    """Ordered basis of named real constants; index 0 is always "one" = 1."""

    def __init__(self, symbols: Iterable[tuple[str, str] | tuple[str, str, bool]] = ()):
        self.symbols: list[Symbol] = [Symbol("one", "1")]
        self.values: list[Fraction] = [Fraction(1)]  # exact embedding, by index
        self._index: dict[str, int] = {"one": 0}
        for entry in symbols:
            name, value = entry[0], entry[1]
            independent = entry[2] if len(entry) > 2 else True
            self.declare(name, value, independent)

    def declare(self, name: str, value: str, independent: bool = True) -> int:
        if name in self._index:
            raise ScalarError(f"duplicate symbol {name!r}")
        try:
            exact = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ScalarError(f"symbol {name!r}: value {value!r} is not a decimal literal") from None
        if exact == 0:
            raise ScalarError(f"symbol {name!r}: numeric value must be nonzero")
        self.symbols.append(Symbol(name, value, independent))
        self.values.append(exact)
        self._index[name] = len(self.symbols) - 1
        return self._index[name]

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ScalarError(f"unknown symbol {name!r}") from None

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    # -- constructors ------------------------------------------------------

    def zero(self) -> "SymScalar":
        return SymScalar(self, {})

    def rational(self, value) -> "SymScalar":
        c = Fraction(value)
        return SymScalar(self, {0: c} if c else {})

    def symbol(self, name: str, coeff=1) -> "SymScalar":
        c = Fraction(coeff)
        return SymScalar(self, {self.index_of(name): c} if c else {})

    def combination(self, terms: Iterable[tuple[object, str]]) -> "SymScalar":
        """Build sum of coeff*symbol terms, e.g. [(Fraction(3,2),'one'),(1,'p')]."""
        out = self.zero()
        for coeff, name in terms:
            out = out + self.symbol(name, coeff)
        return out


class SymScalar:
    """Element of the Q-span of the table's symbols, in canonical sparse form."""

    __slots__ = ("table", "coeffs")

    def __init__(self, table: SymbolTable, coeffs: dict[int, Fraction]):
        self.table = table
        self.coeffs = {i: c for i, c in coeffs.items() if c}

    # -- ring-ish operations ------------------------------------------------

    def _check(self, other: "SymScalar") -> None:
        if self.table is not other.table:
            raise MixedTableError("operands belong to different symbol tables")

    def __add__(self, other: "SymScalar") -> "SymScalar":
        self._check(other)
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, Fraction(0)) + c
        return SymScalar(self.table, out)

    def __neg__(self) -> "SymScalar":
        return SymScalar(self.table, {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other: "SymScalar") -> "SymScalar":
        return self + (-other)

    def __mul__(self, rational) -> "SymScalar":
        c = Fraction(rational)
        return SymScalar(self.table, {i: c * v for i, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __truediv__(self, rational) -> "SymScalar":
        return self * (Fraction(1) / Fraction(rational))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymScalar):
            return NotImplemented
        return self.table is other.table and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((id(self.table), tuple(sorted(self.coeffs.items()))))

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, index: int) -> Fraction:
        return self.coeffs.get(index, Fraction(0))

    def rational_part(self) -> Fraction:
        return self.coefficient(0)

    def vector(self) -> tuple[Fraction, ...]:
        """Dense coefficient vector over the full table."""
        return tuple(self.coefficient(i) for i in range(len(self.table)))

    def ratio_to(self, other: "SymScalar") -> Fraction | None:
        """The rational r with self == r*other, or None if no such r exists."""
        self._check(other)
        if other.is_zero():
            return Fraction(0) if self.is_zero() else None
        i0, c0 = next(iter(sorted(other.coeffs.items())))
        r = self.coefficient(i0) / c0
        return r if self == other * r else None

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Canonical text: rational part first, then + c*name terms in table order."""
        parts = [str(self.rational_part())]
        for i in sorted(self.coeffs):
            if i == 0:
                continue
            parts.append(f"+ {self.coeffs[i]}*{self.table.symbols[i].name}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"SymScalar({self.render()})"

    def value(self) -> Fraction:
        """The exact embedding: sum of coefficient times declared literal."""
        values = self.table.values
        return sum((c * values[i] for i, c in self.coeffs.items()), Fraction(0))

    def __float__(self) -> float:
        return float(self.value())


# -- module operations -------------------------------------------------------


def is_rational(a: SymScalar) -> bool:
    """True iff every coefficient except the one on "one" vanishes."""
    return all(i == 0 for i in a.coeffs)


def q_rank(vals: Sequence[SymScalar]) -> int:
    """Dimension of the Q-span of the values, by exact Gaussian elimination."""
    if not vals:
        raise ScalarError("q_rank needs a nonempty list")
    table = vals[0].table
    for v in vals[1:]:
        if v.table is not table:
            raise MixedTableError("q_rank inputs span several symbol tables")
    rows = [list(v.vector()) for v in vals]
    ncols = len(table)
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col] / lead
                for c in range(col, ncols):
                    rows[r][c] -= f * rows[rank][c]
        rank += 1
    return rank


def sign(a: SymScalar) -> int:
    """-1, 0 or +1; zero iff the scalar is symbolically zero.

    Nonzero scalars take the sign of their exact embedding; one that embeds
    to exactly 0 raises PrecisionExhausted.
    """
    if a.is_zero():
        return 0
    value = a.value()
    if value == 0:
        raise PrecisionExhausted(
            f"sign of {a.render()} undecided: it embeds to exactly 0; "
            "the symbol table's numeric embedding is ill-conditioned"
        )
    return 1 if value > 0 else -1


def compare(a: SymScalar, b: SymScalar) -> int:
    return sign(a - b)


def scalar_min(a: SymScalar, b: SymScalar) -> SymScalar:
    return a if compare(a, b) <= 0 else b


def scalar_max(a: SymScalar, b: SymScalar) -> SymScalar:
    return a if compare(a, b) >= 0 else b


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
    reduction against the same Hermite normal form.
    """

    def __init__(self, generators: Iterable[SymScalar]):
        gens = [g for g in generators if not g.is_zero()]
        for g in gens[1:]:
            gens[0]._check(g)
        self.table = gens[0].table if gens else None
        self.denom = lcm(*[c.denominator for g in gens for c in g.coeffs.values()])
        hnf = hermite_normal_form([[int(c * self.denom) for c in g.vector()] for g in gens])
        self._rows = [(next(i for i, a in enumerate(row) if a), row) for row in hnf]

    def reduce(self, v: SymScalar) -> SymScalar:
        """The canonical representative of the coset v + L: top-down through
        the HNF rows, each pivot coordinate is brought into [0, pivot).  The
        row-echelon shape makes the result unique."""
        if self.table is not None and v.table is not self.table:
            raise MixedTableError("operands belong to different symbol tables")
        x = [c * self.denom for c in v.vector()]
        for col, row in self._rows:
            q = x[col] // row[col]
            for i, a in enumerate(row):
                x[i] -= q * a
        return SymScalar(v.table, {i: Fraction(c, self.denom) for i, c in enumerate(x)})

    def __contains__(self, v: SymScalar) -> bool:
        return self.reduce(v).is_zero()


def in_lattice(value: SymScalar, generators: Sequence[SymScalar]) -> bool:
    """Whether value lies in the Z-lattice spanned by the generators."""
    return value in Lattice(generators)

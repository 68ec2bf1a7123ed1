"""Sparse superpolynomials over Q.

A ring holds an ordered list of variables, each with a parity (0 even,
1 odd), an optional half-integer weight (stored doubled, so weight 3/2 is
``wt2 = 3``), and a derivative order.  Polynomials are dicts mapping
monomials to Fraction coefficients.  A monomial is a tuple of
``(variable_index, exponent)`` pairs sorted by index; odd variables never
exceed exponent 1.  Products of odd variables are normalized to index
order with the Koszul sign absorbed into the coefficient, so equal
polynomials always have identical dicts.

Coefficients are Fractions at the API and integer numerators over one
common denominator inside products.  ``numerators`` puts each operand
over its ``common_denominator`` (the lcm of its coefficient
denominators), ``mul_int_terms`` multiplies and accumulates in Python
ints, and ``fraction_terms`` divides each output term by the product of
the operands' denominators, once.  Scaling by a positive integer keeps
the zero test of every partial sum, so a product has the same keys in
the same order as one taken in Fractions.  ``mul_terms`` (and so ``*``),
``substitute`` and ``LieSuperalgebra.bracket_poly`` all multiply this
way.  ``sum_of_products`` is the one accumulator for sums of products
and for linear combinations: it takes sum n * a * b over many (n, a, b),
n an int or a Fraction, over the lcm of the products' denominators, so
each output term becomes a Fraction once.  ``mul_terms`` is its
one-product case, the lambda bracket of ``pva`` sums each power of
lambda with it, and ``combine`` sums a whole {key: [triples]} table
with it, one key at a time; with the unit operand ``UNIT``,
(c, p.terms, UNIT) is c * p, so series, generator images, Poisson
tables and points f + sum p v are all summed this way.  Operand term
dicts must hold no zero coefficient: build them from polynomials or
``PolyRing.const``, never as {(): c} with c possibly zero.

Odd derivatives are left derivatives: d/dt (t*u) = u and
d/dt (s*t) = -s for odd s, t.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Optional, Union

Scalar = Union[Fraction, int]

ZERO = Fraction(0)
ONE = Fraction(1)
# the term dict of the polynomial 1: (c, p.terms, UNIT) stands for c * p
UNIT = {(): ONE}


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"exact rational required, got {type(c).__name__}")


# -- the sparse term-merge product -----------------------------------------

def mul_monomials(ma, mb, parities):
    """Merge two sorted (index, exp) monomials.

    Returns (monomial, sign) with sign in {1, -1}, or (None, 0) when an odd
    variable squares to zero.  The sign is the Koszul sign for interleaving
    the odd factors into index order: each odd factor of ma placed by the
    merge passes the odd factors of mb placed before it.
    """
    if not ma:
        return mb, 1
    if not mb:
        return ma, 1
    if ma[-1][0] < mb[0][0]:
        return ma + mb, 1  # already in index order: no factor moves
    if mb[-1][0] < ma[0][0]:
        # every factor of mb moves left past every factor of ma
        odd = (sum(parities[i] for i, _ in ma)
               & sum(parities[i] for i, _ in mb) & 1)
        return mb + ma, -1 if odd else 1
    out = []
    ia = ib = 0
    na, nb = len(ma), len(mb)
    odd_b = inv = 0  # odd factors of mb placed, inversions counted
    while ia < na and ib < nb:
        va, ea = ma[ia]
        vb, eb = mb[ib]
        if va < vb:
            out.append((va, ea))
            if parities[va]:
                inv += odd_b
            ia += 1
        elif vb < va:
            out.append((vb, eb))
            odd_b += parities[vb]
            ib += 1
        else:
            if parities[va]:
                return None, 0  # odd variable squared
            out.append((va, ea + eb))
            ia += 1
            ib += 1
    if ia < na:
        # mb is used up: every odd factor left in ma passes all of its odd ones
        if odd_b:
            for va, _ in ma[ia:]:
                if parities[va]:
                    inv += odd_b
        out.extend(ma[ia:])
    else:
        out.extend(mb[ib:])
    return tuple(out), -1 if inv & 1 else 1


def common_denominator(*term_dicts) -> int:
    """lcm of the coefficient denominators of the term dicts (1 if none)."""
    return lcm(*[c.denominator for t in term_dicts for c in t.values()])


def numerators(terms, d: int) -> dict:
    """A Fraction term dict over d (a multiple of every denominator in
    it) as integer numerators."""
    if d == 1:
        return {m: c.numerator for m, c in terms.items()}
    return {m: c.numerator * (d // c.denominator) for m, c in terms.items()}


def fraction_terms(terms, d: int) -> dict:
    """Integer numerators over d back to Fraction coefficients."""
    if d == 1:
        return {m: Fraction(n) for m, n in terms.items()}
    return {m: Fraction(n, d) for m, n in terms.items()}


def mul_int_terms(terms_a, terms_b, parities, out=None):
    """Sparse product of two term dicts over integer numerators, added
    into ``out`` (a new dict if None), which is returned.

    Products are accumulated per monomial in the order the pairs meet
    (a-major); a sum that reaches zero drops its key, and a later
    contribution to that monomial appends it again.
    """
    if out is None:
        out = {}
    for ma, ca in terms_a.items():
        for mb, cb in terms_b.items():
            mono, sign = mul_monomials(ma, mb, parities)
            if sign == 0:
                continue
            c = ca * cb if sign == 1 else -(ca * cb)
            prev = out.get(mono)
            if prev is None:
                out[mono] = c
            else:
                s = prev + c
                if s:
                    out[mono] = s
                else:
                    del out[mono]
    return out


def sum_of_products(triples, parities):
    """sum n * a * b over (n, a, b) triples, n an int or a Fraction and
    a, b Fraction term dicts, as a Fraction term dict without zero
    coefficients.

    Each product n * a * b has denominator da * db * dn (the operands'
    common denominators and n's); all are summed in ints over the lcm D
    of those, the numerators of a scaled by n's numerator times
    D / (da * db * dn), and each output term becomes a Fraction once.
    Products accumulate into one dict in triple order, each as
    ``mul_int_terms`` orders it.  Operands must hold no zero
    coefficient: an int accumulator only drops the sums it sees reach
    zero, so a zero term of an operand survives into the output.
    """
    prepared = []
    for n, a, b in triples:
        if n and a and b:
            da, db = common_denominator(a), common_denominator(b)
            prepared.append((n.numerator, a, da, b, db,
                             da * db * n.denominator))
    if not prepared:
        return {}
    den = lcm(*[p[5] for p in prepared])
    out = {}
    for n, a, da, b, db, d in prepared:
        # a times n * D / db and b times db, both integral: n * a * b * D
        mul_int_terms(numerators(a, n * (den // d) * da), numerators(b, db),
                      parities, out)
    return fraction_terms(out, den)


def combine(ring: "PolyRing", acc: Mapping) -> dict:
    """{key: [(n, a, b), ...]} to {key: sum n * a * b as a polynomial of
    ring}, each key summed once by ``sum_of_products``; keys whose sum
    is zero are dropped.  ``UNIT`` as b makes (c, p.terms, UNIT) the
    term c * p, so this is also the one way to take linear combinations.
    The ring's parities are read here, after any jets the operands
    needed were added."""
    out = {}
    for key, triples in acc.items():
        terms = sum_of_products(triples, ring.parities())
        if terms:
            out[key] = SuperPolynomial(ring, terms)
    return out


def mul_terms(terms_a, terms_b, parities):
    """Sparse product of two Fraction term dicts; drops zero coefficients."""
    return sum_of_products(((1, terms_a, terms_b),), parities)


class Variable:
    """One ring variable: name, parity, optional doubled weight, order."""

    __slots__ = ("name", "parity", "wt2", "order", "base")

    def __init__(self, name: str, parity: int, wt2: Optional[int] = None,
                 order: int = 0, base: Optional[str] = None):
        if parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        self.name = name
        self.parity = parity
        self.wt2 = wt2
        self.order = order
        self.base = base if base is not None else name

    def __repr__(self):
        return f"Variable({self.name!r}, parity={self.parity})"


class PolyRing:
    """Variable table shared by a family of SuperPolynomials.

    The table may grow (differential rings create higher-order variables
    lazily) but existing indices never change, so polynomials built
    earlier stay valid.
    """

    def __init__(self, variables: Iterable[Variable], differential: bool = False):
        self.variables: list[Variable] = list(variables)
        self.index: dict[str, int] = {}
        for i, v in enumerate(self.variables):
            if v.name in self.index:
                raise ValueError(f"duplicate variable name {v.name!r}")
            self.index[v.name] = i
        self.differential = differential
        self._parities = tuple(v.parity for v in self.variables)
        # (base, order) -> index, for differential rings
        self._jet: dict[tuple[str, int], int] = {
            (v.base, v.order): i for i, v in enumerate(self.variables)
        }

    # -- variable bookkeeping -------------------------------------------

    def parity_of(self, i: int) -> int:
        return self.variables[i].parity

    def parities(self) -> tuple[int, ...]:
        if len(self._parities) != len(self.variables):
            self._parities = tuple(v.parity for v in self.variables)
        return self._parities

    def add_variable(self, v: Variable) -> int:
        if v.name in self.index:
            raise ValueError(f"duplicate variable name {v.name!r}")
        self.variables.append(v)
        i = len(self.variables) - 1
        self.index[v.name] = i
        self._jet[(v.base, v.order)] = i
        return i

    def derivative_index(self, i: int) -> int:
        """Index of the order+1 variable above variable i, created lazily."""
        if not self.differential:
            raise ValueError("not a differential ring")
        v = self.variables[i]
        key = (v.base, v.order + 1)
        j = self._jet.get(key)
        if j is not None:
            return j
        wt2 = None if v.wt2 is None else v.wt2 + 2
        name = derivative_name(v.base, v.order + 1)
        return self.add_variable(Variable(name, v.parity, wt2=wt2,
                                          order=v.order + 1, base=v.base))

    # -- element builders ------------------------------------------------

    def zero(self) -> "SuperPolynomial":
        return SuperPolynomial(self, {})

    def one(self) -> "SuperPolynomial":
        return SuperPolynomial(self, {(): ONE})

    def const(self, c: Scalar) -> "SuperPolynomial":
        c = _as_fraction(c)
        return SuperPolynomial(self, {(): c} if c else {})

    def gen(self, name_or_index: Union[str, int]) -> "SuperPolynomial":
        i = (name_or_index if isinstance(name_or_index, int)
             else self.index[name_or_index])
        return SuperPolynomial(self, {((i, 1),): ONE})


def derivative_name(base: str, order: int) -> str:
    if order == 0:
        return base
    if order <= 3:
        return base + "'" * order
    return f"{base}^({order})"


class SuperPolynomial:
    """Immutable-by-convention sparse polynomial over Q."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple, Fraction]):
        self.ring = ring
        self.terms = dict(terms)

    # -- basic predicates -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((), ZERO)

    def as_constant(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.constant_term()

    def monomial_parity(self, mono: tuple) -> int:
        par = self.ring.parities()
        return sum(par[i] * e for i, e in mono) & 1

    def parity(self) -> Optional[int]:
        """Parity if homogeneous, else None (zero counts as either, returns 0)."""
        seen = {self.monomial_parity(m) for m in self.terms}
        if not seen:
            return 0
        if len(seen) == 1:
            return seen.pop()
        return None

    def parity_split(self) -> tuple["SuperPolynomial", "SuperPolynomial"]:
        ev, od = {}, {}
        for m, c in self.terms.items():
            (ev if self.monomial_parity(m) == 0 else od)[m] = c
        return SuperPolynomial(self.ring, ev), SuperPolynomial(self.ring, od)

    def weight2(self) -> Optional[int]:
        """Doubled weight if homogeneous; None if mixed. Zero -> 0.

        Raises if some involved variable carries no weight.
        """
        seen = set()
        for m in self.terms:
            w = 0
            for i, e in m:
                v = self.ring.variables[i]
                if v.wt2 is None:
                    raise ValueError(f"variable {v.name} carries no weight")
                w += v.wt2 * e
            seen.add(w)
        if not seen:
            return 0
        if len(seen) == 1:
            return seen.pop()
        return None

    def variables_used(self) -> set[int]:
        out: set[int] = set()
        for m in self.terms:
            out.update(i for i, _ in m)
        return out

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other: "SuperPolynomial"):
        if self.ring is not other.ring:
            raise ValueError("polynomials belong to different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        self._check_ring(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return SuperPolynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return SuperPolynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return self.ring.zero()
            return SuperPolynomial(self.ring, {m: v * c for m, v in self.terms.items()})
        self._check_ring(other)
        out = mul_terms(self.terms, other.terms, self.ring.parities())
        return SuperPolynomial(self.ring, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        c = _as_fraction(other)
        if not c:
            raise ZeroDivisionError("division by zero scalar")
        return self * (ONE / c)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        acc = self.ring.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.ring), frozenset(self.terms.items())))

    # -- calculus ----------------------------------------------------------

    def partial_derivative(self, i: Union[int, str]) -> "SuperPolynomial":
        """Left partial derivative with respect to variable i."""
        if isinstance(i, str):
            i = self.ring.index[i]
        par = self.ring.parities()
        odd_i = par[i]
        out: dict[tuple, Fraction] = {}
        for m, c in self.terms.items():
            for pos, (j, e) in enumerate(m):
                if j != i:
                    continue
                if odd_i:
                    # left derivative: sign counts odd factors left of position pos
                    sgn = sum(par[m[q][0]] * m[q][1] for q in range(pos)) & 1
                    rest = m[:pos] + m[pos + 1:]
                    coeff = -c if sgn else c
                else:
                    coeff = c * e
                    if e == 1:
                        rest = m[:pos] + m[pos + 1:]
                    else:
                        rest = m[:pos] + ((j, e - 1),) + m[pos + 1:]
                s = out.get(rest, ZERO) + coeff
                if s:
                    out[rest] = s
                else:
                    out.pop(rest, None)
                break
        return SuperPolynomial(self.ring, out)

    def total_derivative(self) -> "SuperPolynomial":
        """Derivation sending each variable of order n to the one of order n+1."""
        ring = self.ring
        triples = [(1, ring.gen(ring.derivative_index(i)).terms,
                    self.partial_derivative(i).terms)
                   for i in sorted(self.variables_used())]
        return SuperPolynomial(ring, sum_of_products(triples, ring.parities()))

    def substitute(self, images: Mapping[int, "SuperPolynomial"],
                   target: Optional[PolyRing] = None) -> "SuperPolynomial":
        """Substitute polynomials for variables.

        ``images`` maps variable indices to polynomials in ``target``
        (default: this ring).  Unmapped variables must exist in the target
        ring under the same index when the rings differ; when target is
        the same ring they're left alone.  Parity of each image must match
        the variable (odd -> odd-homogeneous, even -> even-homogeneous);
        this keeps Koszul reordering consistent.
        """
        tgt = target if target is not None else self.ring
        par = self.ring.parities()
        cache: dict[int, tuple[dict, int]] = {}

        def image(i: int) -> tuple[dict, int]:
            """The image of variable i over its own common denominator."""
            got = cache.get(i)
            if got is not None:
                return got
            if i in images:
                p = images[i]
                if p.ring is not tgt:
                    raise ValueError("image polynomial in wrong ring")
                ip = p.parity()
                if p.is_zero():
                    pass  # zero is homogeneous of every parity
                elif ip is None:
                    raise ValueError("image must be parity homogeneous")
                elif ip != par[i]:
                    raise ValueError(
                        f"parity mismatch substituting variable "
                        f"{self.ring.variables[i].name}")
            else:
                # unmapped variables pass through; extensions keep indices stable
                p = tgt.gen(i)
            d = common_denominator(p.terms)
            got = cache[i] = (numerators(p.terms, d), d)
            return got

        # term m = c * prod image(i)^e has denominator
        # c.denominator * prod d_i^e; all terms are summed over their lcm
        dens = []
        for m, c in self.terms.items():
            d = c.denominator
            for i, e in m:
                d *= image(i)[1] ** e
            dens.append(d)
        den = lcm(*dens)
        tpar = tgt.parities()
        out: dict[tuple, int] = {}
        for (m, c), d in zip(self.terms.items(), dens):
            acc = {(): c.numerator * (den // d)}
            for i, e in m:
                gi = cache[i][0]
                for _ in range(e):
                    acc = mul_int_terms(acc, gi, tpar)
            for mono, v in acc.items():
                s = out.get(mono, 0) + v
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return SuperPolynomial(tgt, fraction_terms(out, den))

    def evaluate(self, values: Mapping[int, Scalar]) -> "SuperPolynomial":
        """Substitute scalars for variables: any for an even variable,
        only zero for an odd one."""
        imgs = {i: self.ring.const(v) for i, v in values.items()}
        return self.substitute(imgs)

    # -- rendering ----------------------------------------------------------

    def text(self) -> str:
        """Canonical deterministic rendering."""
        if not self.terms:
            return "0"
        def key(m):
            return (sum(e for _, e in m), m)
        pieces = []
        for m in sorted(self.terms, key=key):
            c = self.terms[m]
            factors = []
            for i, e in m:
                nm = self.ring.variables[i].name
                factors.append(nm if e == 1 else f"{nm}^{e}")
            body = "*".join(factors)
            a = abs(c)
            if not body:
                pieces.append((c, _frac_str(a)))
            elif a == 1:
                pieces.append((c, body))
            else:
                pieces.append((c, f"{_frac_str(a)}*{body}"))
        out = []
        for n, (c, s) in enumerate(pieces):
            if n == 0:
                out.append(("-" if c < 0 else "") + s)
            else:
                out.append((" - " if c < 0 else " + ") + s)
        return "".join(out)

    def __repr__(self):
        return f"<SuperPolynomial {self.text()}>"


def _frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"

"""Sparse superpolynomials over Q.

A ring holds an ordered list of variables, each with a parity (0 even,
1 odd), an optional half-integer weight (stored doubled, so weight 3/2 is
``wt2 = 3``), and a derivative order.  Polynomials are dicts mapping
monomial keys to Fraction coefficients.  Products of odd variables are
normalized to index order with the Koszul sign absorbed into the
coefficient, so equal polynomials always have identical dicts.

A monomial key is one Python int holding packed exponents (Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007): variable i owns the ``W``-bit field at
bit offset ``W * i``, so x_i^e is ``e << (W * i)`` and the constant
monomial is 0.  The top bit of each field is a guard bit, so an
exponent is at most ``EMAX = 2**(W-1) - 1``; odd variables hold 0 or 1
in the same fields, so the layout never depends on the ring's size and
a jet that a differential ring adds later moves no existing key.  The
product of keys ka and kb is ka + kb: disjoint odd bits add without a
carry, and an odd variable met twice, or an exponent past ``EMAX``,
sets a bit of the ring's ``over`` mask (bit 1 of an odd field, the
guard bit of an even one).  The first means the product is zero; the
second raises ``OverflowError``, so a carry never wraps silently into
the next field.  The Koszul sign is the parity of the number of pairs
(odd factor of ka, odd factor of kb) with the first of higher index,
one ``int.bit_count`` per product (see ``mul_int_terms``).
``PolyRing.masks()`` caches the (odd, over, limit) masks beside
``parities()``; ``limit`` bounds every key of the ring and every bit
from it up is in ``over`` too, so a key that names a variable the masks
do not cover raises instead of being multiplied with the wrong signs.
Tuples of (index, exponent) pairs sorted by index remain only at the
edges: ``pack`` and ``unpack`` convert, and ``text`` sorts terms by
(degree, unpacked tuple), so rendered output does not depend on the key.

A polynomial holds integer numerators over one positive denominator:
``terms`` maps keys to nonzero ints and ``den`` is an int, so the
polynomial is sum terms[m] * m / den (the content and primitive-part
split of exact arithmetic over Q; Geddes, Czapor and Labahn,
"Algorithms for Computer Algebra", 1992, ch. 2).  Every polynomial is
canonical: no numerator is zero, gcd(den, *terms.values()) == 1 and
zero is ({}, 1), so den is the lcm of the reduced coefficient
denominators and equal polynomials have equal (terms, den).  Fractions
appear only at the edges: the constructor (which takes int or Fraction
coefficients), ``PolyRing.const``, scalar ``*`` and ``/``,
``coefficient``, ``items`` and ``constant_term``; ``text`` renders
each n/den reduced by one integer gcd.

``mul_int_terms`` is the one product kernel: it multiplies and
accumulates numerators in Python ints, with a scale factor applied once
per term of the first operand, and a constant operand (one term, key 0)
makes it a scaled add (``add_scaled``) instead of a product loop.
Scaling by a nonzero integer keeps the zero test of every partial sum,
so a product has the same keys in the same order as one taken in
Fractions.  ``sum_of_products`` is the one accumulator for sums of
products and for linear combinations: it takes sum n * a * b over many
(n, a, b), n an int or a Fraction and a, b polynomials or ``IntTerms``,
over the lcm D of the products' denominators (a.den * b.den times n's),
each product scaled by n's numerator times D over its own denominator;
the result is made canonical once, by one gcd over its numerators
(``normal_terms``).  ``*`` takes its product this way, and so does every
derivation, as sum_i D(x_i) * d_i p over the variables of p with left
partials d_i: ``total_derivative``, ``cohomology.OddDerivation`` and the
rows of the Poisson bracket of ``pva``, which sums its products with it
too; ``combine`` sums a whole
{key: [triples]} table with it, one key at a time; with the unit operand
``UNIT``, (c, p, UNIT) is c * p, so series, generator images, Poisson
tables and points f + sum p v are all summed this way.  ``RingMap`` is
the one substitution path; it adds each term's last product of images
straight into its result with the same kernel.  So does
``LieSuperalgebra.bracket_poly``: each component of a bracket is one
``sum_of_products`` over the pairs of its table rows.

Odd derivatives are left derivatives: d/dt (t*u) = u and
d/dt (s*t) = -s for odd s, t.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Union

Scalar = Union[Fraction, int]

ZERO = Fraction(0)
ONE = Fraction(1)


class IntTerms(NamedTuple):
    """Integer numerators over one positive denominator: the polynomial
    sum terms[m] * m / den.  An operand of ``sum_of_products`` is an
    IntTerms or a SuperPolynomial, which has the same two fields."""
    terms: dict
    den: int


# the polynomial 1: (c, p, UNIT) stands for c * p
UNIT = IntTerms({0: 1}, 1)


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"exact rational required, got {type(c).__name__}")


# -- packed monomial keys ----------------------------------------------------

W = 8  # bits per variable field
EMAX = (1 << (W - 1)) - 1  # largest exponent: the field's top bit guards
FIELD = (1 << W) - 1


def var_key(i: int) -> int:
    """The key of the monomial x_i."""
    return 1 << (W * i)


def lowest_variable(key: int) -> int:
    """The index of the lowest variable in a nonzero key."""
    return ((key ^ (key - 1)).bit_length() - 1) // W


def key_parity(key: int, odd: int) -> int:
    """The parity of a monomial: its number of odd factors modulo 2,
    for the odd mask of ``masks()``."""
    return (key & odd).bit_count() & 1


def pack(mono) -> int:
    """The key of a monomial given as (index, exponent) pairs."""
    key = 0
    for i, e in mono:
        if not 0 <= e <= EMAX:
            raise OverflowError(f"exponent {e} outside 0..{EMAX}")
        key += e << (W * i)
    return key


def unpack(key: int) -> tuple:
    """The (index, exponent) pairs of a key, sorted by index."""
    out = []
    while key:
        i = lowest_variable(key)
        e = (key >> (W * i)) & FIELD
        out.append((i, e))
        key -= e << (W * i)
    return tuple(out)


def key_masks(parities) -> tuple[int, int, int]:
    """(odd, over, limit) for variables of the given parities: odd has
    bit 0 of every odd field, every key of these variables is below
    limit, and over has bit 1 of every odd field, the guard bit of every
    even one and every bit from limit up (a negative int), so that a sum
    of two keys meets it when an odd variable is squared, an exponent
    overflows or a key lies outside the fields."""
    odd = over = 0
    for i, p in enumerate(parities):
        if p:
            odd |= 1 << (W * i)
            over |= 2 << (W * i)
        else:
            over |= 1 << (W * i + W - 1)
    limit = 1 << (W * len(parities))
    return odd, over | -limit, limit


def _odd_below(oa: int, odd: int) -> int:
    """The odd fields below an odd number of the odd factors oa: for
    the odd part ob of another key, popcount(ob & _odd_below(oa, odd))
    counts the pairs (odd factor of oa, odd factor of ob) with the first
    of higher index, modulo 2."""
    q = 0
    while oa:
        low = oa & -oa
        q ^= low - 1  # every bit below this factor
        oa ^= low
    return q & odd


# -- the sparse product ------------------------------------------------------

def common_denominator(*term_dicts) -> int:
    """lcm of the coefficient denominators of rational term dicts (1 if
    none)."""
    return lcm(*[c.denominator for t in term_dicts for c in t.values()])


def numerators(terms, d: int) -> dict:
    """A rational term dict over d (a multiple of every denominator in
    it) as integer numerators."""
    if d == 1:
        return {m: c.numerator for m, c in terms.items()}
    return {m: c.numerator * (d // c.denominator) for m, c in terms.items()}


def normal_terms(terms: dict, den: int) -> IntTerms:
    """Integer numerators over a positive den, none of them zero, in
    canonical form: divided by gcd(den, *numerators), and zero over 1."""
    if den != 1:
        if not terms:
            return IntTerms(terms, 1)
        g = gcd(den, *terms.values())
        if g != 1:
            return IntTerms({m: n // g for m, n in terms.items()}, den // g)
    return IntTerms(terms, den)


def rational_terms(coeffs: Mapping, den: int = 1) -> IntTerms:
    """Exact rational coefficients (ints or Fractions; zeros dropped)
    over a positive int den, in canonical form."""
    if isinstance(den, bool) or not isinstance(den, int) or den <= 0:
        raise ValueError(f"denominator must be a positive int, got {den!r}")
    coeffs = {m: _as_fraction(c) for m, c in coeffs.items() if c}
    d = common_denominator(coeffs)
    return normal_terms(numerators(coeffs, d), den * d)


def add_scaled(out: dict, terms, c: int) -> dict:
    """out += c * terms over integer numerators (c a nonzero int), in the
    order of terms; a sum that reaches zero drops its key.  Returns
    out."""
    if not out:
        out.update(terms if c == 1 else {m: c * n for m, n in terms.items()})
        return out
    get = out.get
    for m, n in terms.items():
        s = get(m, 0) + c * n
        if s:
            out[m] = s
        else:
            del out[m]
    return out


def mul_int_terms(terms_a, terms_b, masks, out=None, scale: int = 1):
    """scale * (the sparse product of two term dicts over integer
    numerators), added into ``out`` (a new dict if None), which is
    returned; ``masks`` is the ring's ``masks()`` and scale a nonzero
    int, applied once per term of terms_a.

    Products are accumulated per monomial in the order the pairs meet
    (a-major); a sum that reaches zero drops its key, and a later
    contribution to that monomial appends it again.  A constant operand
    (one term, key 0) commutes with everything and carries no sign, so
    the product is ``add_scaled`` of the other operand, which meets the
    pairs in the same order.  Otherwise a pair's key is ka + kb; when it
    meets the over mask, a key lies outside the ring's fields (raises),
    an odd variable is squared (the pair is skipped) or an exponent
    overflowed (raises).
    Its sign is (-1)^(number of odd factors of ka that pass an odd
    factor of kb on the way to index order), the parity of one
    popcount against ``_odd_below`` of ka.
    """
    if out is None:
        out = {}
    if not terms_a or not terms_b:
        return out
    if len(terms_b) == 1 and 0 in terms_b:
        return add_scaled(out, terms_a, scale * terms_b[0])
    if len(terms_a) == 1 and 0 in terms_a:
        return add_scaled(out, terms_b, scale * terms_a[0])
    odd, over, limit = masks
    b = terms_b.items()
    for ka, ca in terms_a.items():
        ca *= scale
        oa = ka & odd
        qa = _odd_below(oa, odd) if oa else 0
        for kb, cb in b:
            k = ka + kb
            if k & over:
                if k >= limit:
                    raise ValueError(
                        "monomial key names a variable outside the ring")
                if oa & kb:
                    continue  # odd variable squared
                raise OverflowError(
                    f"exponent above {EMAX} in a monomial product")
            if qa and (kb & qa).bit_count() & 1:
                c = -(ca * cb)
            else:
                c = ca * cb
            prev = out.get(k)
            if prev is None:
                out[k] = c
            else:
                s = prev + c
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out


def sum_of_products(triples, masks) -> IntTerms:
    """sum n * a * b over (n, a, b) triples, n an int or a Fraction and
    a, b polynomials or ``IntTerms``, in canonical form; ``masks`` is
    the ring's ``masks()``.

    Each product n * a * b has denominator a.den * b.den * dn (dn n's
    denominator); all are summed in ints over the lcm D of those, each
    product scaled by n's numerator times D / (a.den * b.den * dn)
    inside ``mul_int_terms``, and the sum is divided by its gcd with D
    once.  Products accumulate into one dict in triple order; the
    promise is the key set and every exact coefficient of the sum taken
    in Fractions, a zero sum as ({}, 1), not the key order once a
    running sum cancels.
    """
    prepared = []
    for n, a, b in triples:
        if n and a.terms and b.terms:
            prepared.append((n, a.terms, b.terms,
                             a.den * b.den * n.denominator))
    if not prepared:
        return IntTerms({}, 1)
    den = lcm(*[p[3] for p in prepared])
    out = {}
    for n, ta, tb, d in prepared:
        mul_int_terms(ta, tb, masks, out, n.numerator * (den // d))
    return normal_terms(out, den)


def combine(ring: "PolyRing", acc: Mapping) -> dict:
    """{key: [(n, a, b), ...]} to {key: sum n * a * b as a polynomial of
    ring}, each key summed once by ``sum_of_products``; keys whose sum
    is zero are dropped.  ``UNIT`` as b makes (c, p, UNIT) the term
    c * p, so this is also the one way to take linear combinations.
    The ring's masks are read here, after any jets the operands
    needed were added."""
    out = {}
    masks = ring.masks()
    for key, triples in acc.items():
        terms, den = sum_of_products(triples, masks)
        if terms:
            out[key] = _poly(ring, terms, den)
    return out


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
    earlier stay valid: their keys name the same fields.  ``parities()``
    and ``masks()`` are read again after a growth.
    """

    def __init__(self, variables: Iterable[Variable], differential: bool = False):
        self.variables: list[Variable] = list(variables)
        self.index: dict[str, int] = {}
        for i, v in enumerate(self.variables):
            if v.name in self.index:
                raise ValueError(f"duplicate variable name {v.name!r}")
            self.index[v.name] = i
        self.differential = differential
        self._parities = ()
        self._masks = key_masks(())
        # (base, order) -> index, for differential rings
        self._jet: dict[tuple[str, int], int] = {
            (v.base, v.order): i for i, v in enumerate(self.variables)
        }

    # -- variable bookkeeping -------------------------------------------

    def parity_of(self, i: int) -> int:
        return self.variables[i].parity

    def parities(self) -> tuple[int, ...]:
        if len(self._parities) != len(self.variables):
            self._refresh()
        return self._parities

    def masks(self) -> tuple[int, int, int]:
        """The (odd, over, limit) masks of ``key_masks`` for the ring's
        variables, the argument of the product kernels."""
        if len(self._parities) != len(self.variables):
            self._refresh()
        return self._masks

    def _refresh(self) -> None:
        self._parities = tuple(v.parity for v in self.variables)
        self._masks = key_masks(self._parities)

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
        return _poly(self, {}, 1)

    def one(self) -> "SuperPolynomial":
        return _poly(self, {0: 1}, 1)

    def const(self, c: Scalar) -> "SuperPolynomial":
        c = _as_fraction(c)
        return _poly(self, {0: c.numerator}, c.denominator) if c \
            else _poly(self, {}, 1)

    def gen(self, name_or_index: Union[str, int]) -> "SuperPolynomial":
        i = (name_or_index if isinstance(name_or_index, int)
             else self.index[name_or_index])
        return _poly(self, {var_key(i): 1}, 1)


def derivative_name(base: str, order: int) -> str:
    if order == 0:
        return base
    if order <= 3:
        return base + "'" * order
    return f"{base}^({order})"


class SuperPolynomial:
    """Immutable-by-convention sparse polynomial over Q: integer
    numerators ``terms`` over one positive denominator ``den``, in the
    canonical form of the module docstring."""

    __slots__ = ("ring", "terms", "den")

    def __init__(self, ring: PolyRing, terms: Mapping[int, Scalar],
                 den: int = 1):
        """sum terms[m] * m / den, terms holding ints or Fractions."""
        self.ring = ring
        self.terms, self.den = rational_terms(terms, den)

    # -- basic predicates -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == 0 for m in self.terms)

    def coefficient(self, mono: int) -> Fraction:
        """The coefficient of the monomial key mono, as a Fraction."""
        n = self.terms.get(mono)
        return Fraction(n, self.den) if n else ZERO

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """(key, coefficient) pairs in term order, coefficients as
        Fractions."""
        den = self.den
        return ((m, Fraction(n, den)) for m, n in self.terms.items())

    def constant_term(self) -> Fraction:
        return self.coefficient(0)

    def as_constant(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.constant_term()

    def monomial_parity(self, mono: int) -> int:
        return key_parity(mono, self.ring.masks()[0])

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
        odd = self.ring.masks()[0]
        for m, c in self.terms.items():
            (od if key_parity(m, odd) else ev)[m] = c
        return (_poly(self.ring, *normal_terms(ev, self.den)),
                _poly(self.ring, *normal_terms(od, self.den)))

    def weight2(self) -> Optional[int]:
        """Doubled weight if homogeneous; None if mixed. Zero -> 0.

        Raises if some involved variable carries no weight.
        """
        seen = set()
        for m in self.terms:
            w = 0
            for i, e in unpack(m):
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
        """The nonzero fields of the OR of the keys."""
        both, out = 0, set()
        for m in self.terms:
            both |= m
        while both:
            i = lowest_variable(both)
            out.add(i)
            both &= -1 << (W * (i + 1))  # clear fields 0..i
        return out

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other: "SuperPolynomial"):
        if self.ring is not other.ring:
            raise ValueError("polynomials belong to different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        self._check_ring(other)
        da, db = self.den, other.den
        if da == db:
            out = add_scaled(dict(self.terms), other.terms, 1)
        else:
            d = lcm(da, db)
            sa = d // da
            out = add_scaled({m: sa * n for m, n in self.terms.items()},
                             other.terms, d // db)
            da = d
        return _poly(self.ring, *normal_terms(out, da))

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.ring, {m: -n for m, n in self.terms.items()},
                     self.den)

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
            n = c.numerator
            return _poly(self.ring, *normal_terms(
                {m: v * n for m, v in self.terms.items()},
                self.den * c.denominator))
        self._check_ring(other)
        return _poly(self.ring, *sum_of_products(((1, self, other),),
                                                 self.ring.masks()))

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
            n >>= 1
            if n:
                base = base * base
        return acc

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return (self.ring is other.ring and self.den == other.den
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.ring), self.den, frozenset(self.terms.items())))

    # -- calculus ----------------------------------------------------------

    def partial_derivative(self, i: Union[int, str]) -> "SuperPolynomial":
        """Left partial derivative with respect to variable i."""
        if isinstance(i, str):
            i = self.ring.index[i]
        unit = var_key(i)
        odd = self.ring.masks()[0]
        # the odd factors left of x_i, when x_i is odd: the left
        # derivative passes each of them
        left = odd & (unit - 1) if odd & unit else -1
        out: dict[int, int] = {}
        for m, c in self.terms.items():
            e = (m >> (W * i)) & FIELD
            if not e:
                continue
            # m -> m - unit is one to one, so no two terms meet
            if left < 0:
                out[m - unit] = c * e
            else:
                out[m - unit] = -c if (m & left).bit_count() & 1 else c
        # a subset of the terms, times exponents: the gcd with den may grow
        return _poly(self.ring, *normal_terms(out, self.den))

    def total_derivative(self) -> "SuperPolynomial":
        """Derivation sending each variable of order n to the one of order n+1."""
        ring = self.ring
        triples = [(1, ring.gen(ring.derivative_index(i)),
                    self.partial_derivative(i))
                   for i in sorted(self.variables_used())]
        return _poly(ring, *sum_of_products(triples, ring.masks()))

    def substitute(self, images: Mapping[int, "SuperPolynomial"],
                   target: Optional[PolyRing] = None) -> "SuperPolynomial":
        """Substitute polynomials for variables (see ``RingMap``)."""
        return RingMap(self.ring, images, target)(self)

    def evaluate(self, values: Mapping[int, Scalar]) -> "SuperPolynomial":
        """Substitute scalars for variables: any for an even variable,
        only zero for an odd one."""
        return RingMap(self.ring, {i: self.ring.const(v)
                                   for i, v in values.items()})(self)

    # -- rendering ----------------------------------------------------------

    def text(self) -> str:
        """Canonical deterministic rendering: terms by (degree, unpacked
        key), each coefficient numerator/den reduced by their gcd."""
        if not self.terms:
            return "0"
        names = [v.name for v in self.ring.variables]
        mono = {m: unpack(m) for m in self.terms}

        def key(m):
            return (sum(e for _, e in mono[m]), mono[m])
        den = self.den
        out = []
        for m in sorted(self.terms, key=key):
            n = self.terms[m]
            a = abs(n)
            body = "*".join(names[i] if e == 1 else f"{names[i]}^{e}"
                            for i, e in mono[m])
            if body and a == den:
                s = body
            else:
                g = gcd(a, den)
                s = str(a // g) if g == den else f"{a // g}/{den // g}"
                if body:
                    s = f"{s}*{body}"
            if out:
                out.append((" - " if n < 0 else " + ") + s)
            else:
                out.append(("-" if n < 0 else "") + s)
        return "".join(out)

    def __repr__(self):
        return f"<SuperPolynomial {self.text()}>"


class MonomialTrie:
    """Many polynomials as one straight-line program, run at each point
    (Kaltofen, J. ACM 1988): ``nodes`` holds (parent, last variable) per
    distinct head key, node 0 the constant; ``compile`` gives (terms,
    den), a term (numerator, head node, last variable, -1 if none)."""

    def __init__(self):
        self.nodes: list[tuple[int, int]] = [(0, -1)]
        self._node: dict[int, int] = {0: 0}

    def node(self, m: int) -> int:
        """The node of key m, added after its prefixes when new."""
        got = self._node.get(m)
        if got is None:
            i = (m.bit_length() - 1) // W  # the highest factor
            self.nodes.append((self.node(m - var_key(i)), i))
            got = self._node[m] = len(self.nodes) - 1
        return got

    def compile(self, p: SuperPolynomial) -> tuple[list, int]:
        get, terms = self._node.get, []
        for m, n in p.terms.items():
            i = (m.bit_length() - 1) // W  # -1 for the constant term
            h = m - (1 << W * i) if m else 0
            k = get(h)
            terms.append((n, self.node(h) if k is None else k, i))
        return terms, p.den


class RingMap:
    """Substitution of polynomials for variables: one map from the
    polynomials of ``source`` to those of ``target`` (default: source).

    ``images`` maps variable indices to polynomials in the target (read
    with ``get``).  Unmapped variables must exist in the target ring
    under the same index when the rings differ; when target is the same
    ring they're left alone (``unmapped``).  Parity of each image must
    match the variable (odd -> odd-homogeneous, even -> even-homogeneous);
    this keeps Koszul reordering consistent.  An image's ring and parity
    are checked on its first use, against the source parity read then,
    so a jet added to a ring after the map was built maps as any other.

    With no images, when every variable a polynomial uses exists in the
    target at the same index with the same parity, its image is a copy
    of the terms over the same denominator (a ring move); otherwise the
    general path runs, and raises on a variable the target lacks.

    A call compiles p into ``trie`` (private and growing, or shared by
    maps at many points) and ``run``s it.  ``heads[k]`` is node k's
    product of images, made on first use as (s, terms, den), meaning
    s * terms / den with s an int; a constant image {0: c} over dg gives
    (s * c, terms, den * dg) with no product.  Each term adds its head
    times its last factor straight into the result, scaled once by
    s * n * (D / den) as ``sum_of_products`` does and with its promise;
    a scalar head times a constant adds one int to the constant term.
    """

    def __init__(self, source: PolyRing,
                 images: Mapping[int, SuperPolynomial],
                 target: Optional[PolyRing] = None,
                 trie: Optional[MonomialTrie] = None):
        self.source = source
        self.images = images
        self.target = target if target is not None else source
        self.trie = MonomialTrie() if trie is None else trie
        # (terms, den, c), c the int of a constant image or 0; -1 is 1
        self._factors: dict[int, tuple] = {-1: (UNIT.terms, 1, 1)}
        self.heads: list = [(1, UNIT.terms, 1)]

    def unmapped(self, i: int) -> SuperPolynomial:
        """The target's variable i, for a variable with no image."""
        return self.target.gen(i)

    def _factor(self, i: int) -> tuple[dict, int, int]:
        """The image of variable i as (numerators, denominator, c)."""
        p = self.images.get(i)
        if p is None:
            p = self.unmapped(i)
        elif p.ring is not self.target:
            raise ValueError("image polynomial in wrong ring")
        elif p.terms:  # zero is homogeneous of every parity
            ip = p.parity()
            if ip is None:
                raise ValueError("image must be parity homogeneous")
            if ip != self.source.parity_of(i):
                raise ValueError(f"parity mismatch substituting variable "
                                 f"{self.source.variables[i].name}")
        c = p.terms.get(0, 0) if len(p.terms) == 1 else 0
        got = self._factors[i] = (p.terms, p.den, c)
        return got

    def _head(self, k: int) -> tuple[int, dict, int]:
        parent, i = self.trie.nodes[k]
        s, h, dh = self.heads[parent] or self._head(parent)
        g, dg, c = self._factors.get(i) or self._factor(i)
        # masks read after the factor, which may have added jets
        got = self.heads[k] = (s * c, h, dh * dg) if c else (
            s, mul_int_terms(h, g, self.target.masks()), dh * dg)
        return got

    def __call__(self, p: SuperPolynomial) -> SuperPolynomial:
        if p.ring is not self.source:
            raise ValueError("polynomial is not in the source ring")
        tgt = self.target
        if not self.images:
            par, tpar = self.source.parities(), tgt.parities()
            if all(i < len(tpar) and tpar[i] == par[i]
                   for i in p.variables_used()):
                return _poly(tgt, dict(p.terms), p.den)
        return self.run(self.trie.compile(p))

    def run(self, program: tuple[list, int]) -> SuperPolynomial:
        """The image of a source polynomial compiled by ``trie``."""
        terms, pden = program
        heads, factors, one = self.heads, self._factors, UNIT.terms
        heads += [None] * (len(self.trie.nodes) - len(heads))
        parts = [(n, heads[k] or self._head(k),
                  factors.get(i) or self._factor(i)) for n, k, i in terms]
        masks = self.target.masks()
        # term n * m / den has denominator den * d(m); D is their lcm
        den = lcm(*[dh * dg for _, (_, _, dh), (_, dg, _) in parts])
        out: dict[int, int] = {}
        const = 0
        for n, (s, h, dh), (g, dg, c) in parts:
            if c and h is one:
                const += s * n * c * (den // (dh * dg))
            else:
                mul_int_terms(h, g, masks, out, s * n * (den // (dh * dg)))
        if const:
            add_scaled(out, {0: const}, 1)
        return _poly(self.target, *normal_terms(out, den * pden))


_new = object.__new__


def _poly(ring: PolyRing, terms: dict, den: int) -> SuperPolynomial:
    """The polynomial with these numerators over den, taken as they are:
    the caller hands over canonical (terms, den) and keeps no alias."""
    p = _new(SuperPolynomial)
    p.ring = ring
    p.terms = terms
    p.den = den
    return p

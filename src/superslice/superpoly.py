"""Sparse superpolynomials over Q.

A ring holds an ordered list of variables, each with a parity (0 even,
1 odd), an optional half-integer weight (stored doubled, so weight 3/2 is
``wt2 = 3``), and a derivative order.  Polynomials are dicts mapping
monomials to Fraction coefficients.  A monomial is a tuple of
``(variable_index, exponent)`` pairs sorted by index; odd variables never
exceed exponent 1.  Products of odd variables are normalized to index
order with the Koszul sign absorbed into the coefficient, so equal
polynomials always have identical dicts.

Odd derivatives are left derivatives: d/dt (t*u) = u and
d/dt (s*t) = -s for odd s, t.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

Scalar = Union[Fraction, int]

ZERO = Fraction(0)
ONE = Fraction(1)


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
    the odd factors into index order.
    """
    if not ma:
        return mb, 1
    if not mb:
        return ma, 1
    # count inversions between odd factors of ma and mb
    odd_a = [i for i, e in ma if parities[i]]
    odd_b = [i for i, e in mb if parities[i]]
    sign = 1
    if odd_a and odd_b:
        seen_b = set(odd_b)
        for i in odd_a:
            if i in seen_b:
                return None, 0
        inv = 0
        for x in odd_a:
            for y in odd_b:
                if x > y:
                    inv += 1
        if inv & 1:
            sign = -1
    out = []
    ia = ib = 0
    na, nb = len(ma), len(mb)
    while ia < na and ib < nb:
        va, ea = ma[ia]
        vb, eb = mb[ib]
        if va < vb:
            out.append((va, ea))
            ia += 1
        elif vb < va:
            out.append((vb, eb))
            ib += 1
        else:
            if parities[va]:
                return None, 0  # odd variable squared
            out.append((va, ea + eb))
            ia += 1
            ib += 1
    out.extend(ma[ia:])
    out.extend(mb[ib:])
    return tuple(out), sign


def mul_terms(terms_a, terms_b, parities):
    """Sparse product of two term dicts; drops zero coefficients."""
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

    def var_index(self, name: str) -> int:
        return self.index[name]

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

    def monomial(self, pairs: Sequence[tuple[int, int]], coeff: Scalar = 1) -> "SuperPolynomial":
        p = self.one() * _as_fraction(coeff)
        for i, e in pairs:
            g = self.gen(i)
            for _ in range(e):
                p = p * g
        return p

    def __contains__(self, poly: "SuperPolynomial") -> bool:
        return poly.ring is self


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

    def total_degree(self) -> int:
        return max((sum(e for _, e in m) for m in self.terms), default=0)

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
        out = ring.zero()
        for i in sorted(self.variables_used()):
            di = ring.derivative_index(i)
            out = out + ring.gen(di) * self.partial_derivative(i)
        return out

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
        cache: dict[int, SuperPolynomial] = {}

        def image(i: int) -> SuperPolynomial:
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
            cache[i] = p
            return p

        out = tgt.zero()
        for m, c in self.terms.items():
            acc = tgt.const(c)
            for i, e in m:
                gi = image(i)
                for _ in range(e):
                    acc = acc * gi
            out = out + acc
        return out

    def evaluate(self, values: Mapping[int, Scalar]) -> "SuperPolynomial":
        """Substitute scalars for (even) variables."""
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

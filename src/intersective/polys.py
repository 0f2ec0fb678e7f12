"""Exact arithmetic on integer polynomials.

Everything here works over Z, with no rational arithmetic: Horner
evaluation, formal derivatives, reduction of a family of polynomials to a
distinct-degree module basis, and the triangular change of variables that
turns a system of distinct-degree polynomials into a "nice" system after an
x -> d*x + r substitution. One Euclid, the subresultant remainder sequence,
gives Res(f, g) and a multiple of gcd(f, g) over Q (its last nonzero member)
to every resultant, gcd and squarefree part; a squarefree input gets D and
P* from one run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

NEG_INF = float("-inf")  # degree of the zero polynomial


@dataclass(frozen=True, init=False)
class IntPoly:
    """Dense integer polynomial; coeffs[i] is the coefficient of x^i.

    Canonical form: no trailing zero coefficients. Immutable and hashable.
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _of(cls, cs: list[int]) -> "IntPoly":
        """Arithmetic results: a list of ints, trimmed but not type-checked."""
        while cs and cs[-1] == 0:
            cs.pop()
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", tuple(cs))
        return p

    @functools.cached_property
    def _hash(self) -> int:  # once per object, on first use
        return hash(self.coeffs)

    def __hash__(self) -> int:
        return self._hash

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c: int) -> "IntPoly":
        return cls((c,))

    @classmethod
    def x(cls) -> "IntPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, c: int, e: int) -> "IntPoly":
        return cls((0,) * e + (c,))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self):
        """Degree; the zero polynomial gets the -infinity marker."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, e: int) -> int:
        return self.coeffs[e] if 0 <= e < len(self.coeffs) else 0

    def content(self) -> int:
        """Positive gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self) -> "IntPoly":
        """Divide out the content, keeping the sign of the polynomial."""
        c = self.content()
        if c in (0, 1):
            return self
        return IntPoly._of([a // c for a in self.coeffs])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "IntPoly":
        a, b = self.coeffs, (other,) if isinstance(other, int) else other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly._of([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __sub__(self, other) -> "IntPoly":
        a, b = self.coeffs, (other,) if isinstance(other, int) else other.coeffs
        out = [x - y for x, y in zip(a, b)]
        out += a[len(b):] if len(a) > len(b) else [-y for y in b[len(a):]]
        return IntPoly._of(out)

    def __rsub__(self, other: int) -> "IntPoly":
        return -(self - other)

    def __neg__(self) -> "IntPoly":
        return IntPoly._of([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly._of([c * other for c in self.coeffs])
        if not isinstance(other, IntPoly):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly._of(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = IntPoly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def eval(self, x: int) -> int:
        """Exact Horner evaluation at an integer."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPoly":
        return self._derivative

    @functools.cached_property
    def _derivative(self) -> "IntPoly":  # once per object, on first use
        return IntPoly._of([i * c for i, c in enumerate(self.coeffs) if i >= 1])

    def compose_linear(self, d: int, r: int) -> "IntPoly":
        """The polynomial p(d*x + r), expanded exactly."""
        acc: list[int] = []
        for c in reversed(self.coeffs):  # Horner: acc <- acc * (d x + r) + c
            acc = [r * a + d * b for a, b in zip(acc + [0], [0] + acc)]
            acc[0] += c
        return IntPoly._of(acc)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "x" if mag == 1 else f"{mag}*x"
            else:
                body = f"x^{e}" if mag == 1 else f"{mag}*x^{e}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"IntPoly('{self}')"


@dataclass(frozen=True)
class NiceSystem:
    """Result of the nice-system transform.

    T is k x k lower triangular, a tuple of row tuples, with every diagonal
    entry equal to c, and T * (f_i(d*x + r))_i = (g_i)_i holds as an exact
    polynomial identity, where the g_i have strictly increasing degrees and
    the coefficient of x^(deg g_i) vanishes in g_j for i != j.
    """

    T: tuple[tuple[int, ...], ...]
    c: int
    g: tuple[IntPoly, ...]
    d: int
    r: int


# ---------------------------------------------------------------------------
# division helpers


def _pseudo_divmod(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Pseudo-division: lead(b)^(deg a - deg b + 1) * a = q*b + r, with
    deg r < deg b."""
    if b.is_zero:
        raise ZeroDivisionError("pseudo-division by zero polynomial")
    n = a.degree - b.degree + 1
    if n < 1:
        raise ValueError("pseudo-division needs deg a >= deg b")
    lb, low = b.lead, b.coeffs[:-1]
    r = list(a.coeffs)
    q = [0] * n
    for k in range(n - 1, -1, -1):
        # r <- lb*r - c*x^k*b cancels the leading coefficient c of r
        c = r.pop()
        q[k] = c * lb ** k
        r = [lb * x for x in r]
        for i, y in enumerate(low):
            r[k + i] -= c * y
    return IntPoly._of(q), IntPoly._of(r)


# ---------------------------------------------------------------------------
# the subresultant remainder sequence: resultants, gcds, squarefree parts


def _subresultants(f: IntPoly, g: IntPoly) -> tuple[int, IntPoly]:
    """Res(f, g) and the last nonzero member of the subresultant remainder
    sequence of f and g, a multiple of gcd(f, g) over Q."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant undefined for zero polynomial")
    A, B = f, g
    s = 1
    if A.degree < B.degree:
        if A.degree % 2 == 1 and B.degree % 2 == 1:
            s = -1
        A, B = B, A
    ca, cb = A.content(), B.content()
    A = A.primitive()
    B = B.primitive()
    t = ca ** B.degree * cb ** A.degree
    gg = 1
    h = 1
    while B.degree > 0:
        delta = A.degree - B.degree
        if A.degree % 2 == 1 and B.degree % 2 == 1:
            s = -s
        R = _pseudo_divmod(A, B)[1]
        A, B = B, _scale_exact(R, gg * h ** delta)
        gg = A.lead
        if delta:
            h = gg ** delta // h ** (delta - 1)
    if B.is_zero:
        return 0, A
    da = A.degree
    if da == 0:
        hf = 1  # resultant of two constants
    else:
        hf, rem = divmod(B.lead ** da, h ** (da - 1))
        if rem:
            raise ArithmeticError("subresultant division not exact")
    return s * t * hf, B


def _scale_exact(p: IntPoly, div: int) -> IntPoly:
    qrs = [divmod(c, div) for c in p.coeffs]
    if any(r for _, r in qrs):
        raise ArithmeticError(f"division by {div} not exact")
    return IntPoly._of([q for q, _ in qrs])


def _normal(p: IntPoly) -> IntPoly:
    """Primitive part of a nonzero p, with positive leading coefficient."""
    p = p.primitive()
    return -p if p.lead < 0 else p


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Resultant of f and g via the subresultant remainder sequence.

    Agrees exactly with the Sylvester-matrix determinant; both inputs must be
    nonzero.
    """
    return _subresultants(f, g)[0]


def gcd_primitive(ps) -> IntPoly:
    """Primitive gcd over Q of the inputs, with positive leading coefficient."""
    nz = [p for p in ps if not p.is_zero]
    if not nz:
        raise ValueError("gcd of all-zero inputs is undefined")
    g = nz[0]
    for p in nz[1:]:
        if g.degree == 0:
            break
        g = _subresultants(g, p)[1]
    return _normal(g)


@functools.lru_cache(maxsize=64)
def squarefree_disc(P: IntPoly) -> tuple[IntPoly, int]:
    """The primitive squarefree part P* of P, with positive lead, and
    D = |Res(P*, P*')|, with D = 1 when P* is constant.

    A nonzero Res(pp, pp'), for pp the primitive part of P, is D with P* = pp.
    On zero, the same sequence gave a multiple of gcd(pp, pp'), and P* is pp
    divided by it."""
    if P.is_zero:
        raise ValueError("squarefree part of zero is undefined")
    pstar = _normal(P)
    if pstar.degree < 1:
        return pstar, 1
    D, g = _subresultants(pstar, pstar.derivative())
    if D == 0:
        out, rem = _pseudo_divmod(pstar, _normal(g))
        if not rem.is_zero:
            raise ValueError("inexact polynomial division")
        pstar = out.primitive()  # the leads of pstar and g are positive
        D = resultant(pstar, pstar.derivative())
    return pstar, abs(D)


def squarefree_part(p: IntPoly) -> IntPoly:
    """Primitive part of p / gcd(p, p'), normalized to positive lead.

    Has the same root set as p over every field of characteristic zero and
    the same roots in each ring of p-adic integers.
    """
    return squarefree_disc(p)[0]


def delta_factored(factors) -> int:
    """Product of resultant(h, h') over the given irreducible factors.

    Irreducibility is the caller's responsibility; this verifies that each
    factor is nonconstant and squarefree and that the factors are pairwise
    coprime, and rejects otherwise.
    """
    hs = list(factors)
    if not hs or any(h.degree < 1 for h in hs):
        raise ValueError("input not a valid irreducible factorization")
    discs = [resultant(h, h.derivative()) for h in hs]
    # Res(h, h') = 0 exactly when h has a repeated factor, and Res(h, f) = 0
    # exactly when h and f share one
    if 0 in discs or any(resultant(h, f) == 0
                         for i, h in enumerate(hs) for f in hs[i + 1:]):
        raise ValueError("input not a valid irreducible factorization")
    return math.prod(discs)


# ---------------------------------------------------------------------------
# distinct-degree module basis


def distinct_degree_basis(hs) -> tuple[list[IntPoly], tuple[tuple[int, ...], ...]]:
    """Reduce polynomials to a basis of their Z-module with distinct degrees.

    Returns (basis, M) where the basis polynomials have strictly increasing
    degrees, generate the same Z-module of polynomials as the inputs, and
    M is the k x s integer matrix, as row tuples, with (h_i) = M * (basis_j).
    The basis is the Hermite normal form of the inputs, which is unique:
    every lead is positive, and 0 <= basis[j].coeff(deg basis[i]) <
    basis[i].lead for j > i.
    """
    hs = list(hs)
    work = [h for h in hs if not h.is_zero]
    if not work:
        raise ValueError("need at least one nonzero polynomial")
    pivots: list[IntPoly] = []  # descending degree
    while work:
        top = max(h.degree for h in work)
        live = [h for h in work if h.degree == top]
        work = [h for h in work if h.degree < top]
        while len(live) > 1:  # Euclid on the leads
            live.sort(key=lambda h: abs(h.lead))
            a = live[0]
            rest = [h - a * (h.lead // a.lead) for h in live[1:]]
            live = [a] + [h for h in rest if h.degree == top]
            work += [h for h in rest if h.degree < top and not h.is_zero]
        a = live[0] if live[0].lead > 0 else -live[0]
        # reduce the pivots of higher degree into [0, a.lead) at degree top
        pivots = [b - a * (b.coeff(top) // a.lead) for b in pivots] + [a]
    basis = pivots[::-1]
    by_degree = {b.degree: idx for idx, b in enumerate(basis)}
    m_rows = []
    for h in hs:  # greedy division from the top degree down
        coeffs = [0] * len(basis)
        while not h.is_zero:
            idx = by_degree.get(h.degree)
            if idx is None or h.lead % basis[idx].lead:
                raise ArithmeticError("module reduction failed")
            coeffs[idx] = h.lead // basis[idx].lead
            h = h - basis[idx] * coeffs[idx]
        m_rows.append(tuple(coeffs))
    return basis, tuple(m_rows)


# ---------------------------------------------------------------------------
# nice-system transform


def nice_transform(fs, d: int, r: int) -> NiceSystem:
    """Turn distinct-degree polynomials into a nice system after x -> d*x + r.

    The constant c is the least positive integer that makes the triangular
    elimination integral uniformly in d and r, so the same c comes back for
    every substitution applied to the same input system.
    """
    fs = list(fs)
    k = len(fs)
    if k == 0:
        raise ValueError("need at least one polynomial")
    if any(f.is_zero for f in fs):
        raise ValueError("zero polynomial in system")
    degs = [f.degree for f in fs]
    if any(degs[i] >= degs[i + 1] for i in range(k - 1)):
        raise ValueError("degrees must be strictly increasing")
    if not isinstance(d, int) or d < 1:
        raise ValueError("d must be a positive integer")

    # taylor[j][s]: coefficient of y^s in f_j(y + r), as a polynomial in r
    taylor = [[IntPoly(f.coeffs[t] * math.comb(t, s) for t in range(s, len(f.coeffs)))
               for s in range(len(f.coeffs))] for f in fs]

    # row i of T over Q(r) is rows[i] / dens[i], dens[i] = lead(f_0)...lead(f_(i-1));
    # entries right of the diagonal stay zero
    dens = [math.prod(f.lead for f in fs[:i]) for i in range(k)]
    rows = []
    for i in range(k):
        row = [IntPoly()] * k
        row[i] = IntPoly.constant(dens[i])
        for j in range(i - 1, -1, -1):
            acc = sum((row[jp] * taylor[jp][degs[j]] for jp in range(j + 1, i + 1)),
                      IntPoly())
            row[j] = _scale_exact(-acc, fs[j].lead)
        rows.append(row)

    # least common denominator of every coefficient of rows[i] / dens[i]
    c = math.lcm(*(abs(den) // math.gcd(den, e.content())
                   for den, row in zip(dens, rows) for e in row))

    # exact: c * rows[i] / dens[i] has integer coefficients
    T = tuple(tuple(_scale_exact(c * e, den).eval(r) for e in row)
              for den, row in zip(dens, rows))

    subs = [f.compose_linear(d, r) for f in fs]
    g = [sum((s * e for s, e in zip(subs[:i + 1], T[i])), IntPoly())
         for i in range(k)]

    for i in range(k):
        if g[i].degree != degs[i] or g[i].lead != c * d ** degs[i] * fs[i].lead:
            raise ArithmeticError("nice transform lost a leading term")
        for j in range(k):
            if j != i and g[j].coeff(degs[i]) != 0:
                raise ArithmeticError("nice transform failed to eliminate a term")
    return NiceSystem(T=T, c=c, g=tuple(g), d=d, r=r)

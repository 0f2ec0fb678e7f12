"""Exact arithmetic on integer polynomials.

Everything here works over Z, with no rational arithmetic: Horner
evaluation, formal derivatives, resultants by the subresultant remainder
sequence, primitive gcds, squarefree parts, reduction of a family of
polynomials to a distinct-degree module basis, and the triangular change of
variables that turns a system of distinct-degree polynomials into a "nice"
system after an x -> d*x + r substitution.
"""

from __future__ import annotations

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
        return IntPoly(a // c for a in self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __sub__(self, other) -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly((other,))
        return self + (-other)

    def __rsub__(self, other) -> "IntPoly":
        return (-self) + other

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

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
        return IntPoly(i * c for i, c in enumerate(self.coeffs) if i >= 1)

    def compose_linear(self, d: int, r: int) -> "IntPoly":
        """The polynomial p(d*x + r), expanded exactly."""
        lin = IntPoly((r, d))
        acc = IntPoly()
        for c in reversed(self.coeffs):
            acc = acc * lin + IntPoly((c,))
        return acc

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
    return IntPoly(q), IntPoly(r)


# ---------------------------------------------------------------------------
# resultants


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Resultant of f and g via the subresultant remainder sequence.

    Agrees exactly with the Sylvester-matrix determinant; both inputs must be
    nonzero.
    """
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
        if delta == 0:
            pass  # h unchanged
        elif delta == 1:
            h = gg
        else:
            h = gg ** delta // h ** (delta - 1)
    if B.is_zero:
        return 0
    da = A.degree
    if da == 0:
        hf = 1  # resultant of two constants
    else:
        hf, rem = divmod(B.lead ** da, h ** (da - 1))
        if rem:
            raise ArithmeticError("subresultant division not exact")
    return s * t * hf


def _scale_exact(p: IntPoly, div: int) -> IntPoly:
    if div == 1:
        return p
    out = []
    for c in p.coeffs:
        q, r = divmod(c, div)
        if r:
            raise ArithmeticError(f"division by {div} not exact")
        out.append(q)
    return IntPoly(out)


# ---------------------------------------------------------------------------
# gcds and squarefree parts


def _gcd2(a: IntPoly, b: IntPoly) -> IntPoly:
    a = a.primitive()
    b = b.primitive()
    while not b.is_zero:
        if a.degree < b.degree:
            a, b = b, a
            continue
        r = _pseudo_divmod(a, b)[1]
        a, b = b, r.primitive()
    return a


def gcd_primitive(ps) -> IntPoly:
    """Primitive gcd over Q of the inputs, with positive leading coefficient."""
    nz = [p for p in ps if not p.is_zero]
    if not nz:
        raise ValueError("gcd of all-zero inputs is undefined")
    g = nz[0].primitive()
    for p in nz[1:]:
        if g.degree == 0:
            break
        g = _gcd2(g, p)
    if g.lead < 0:
        g = -g
    return g


def squarefree_part(p: IntPoly) -> IntPoly:
    """Primitive part of p / gcd(p, p'), normalized to positive lead.

    Has the same root set as p over every field of characteristic zero and
    the same roots in each ring of p-adic integers.
    """
    if p.is_zero:
        raise ValueError("squarefree part of zero is undefined")
    pp = p.primitive()
    if pp.degree == 0:
        return IntPoly((1,))
    g = gcd_primitive([pp, pp.derivative()])
    if g.degree == 0:
        out = pp
    else:
        out, rem = _pseudo_divmod(pp, g)
        if not rem.is_zero:
            raise ValueError("inexact polynomial division")
    if out.lead < 0:
        out = -out
    return out.primitive()


def delta_factored(factors) -> int:
    """Product of resultant(h, h') over the given irreducible factors.

    Irreducibility is the caller's responsibility; this verifies that each
    factor is nonconstant and squarefree and that the factors are pairwise
    coprime, and rejects otherwise.
    """
    hs = list(factors)
    if not hs or any(h.is_zero or h.degree < 1 for h in hs):
        raise ValueError("input not a valid irreducible factorization")
    for i in range(len(hs)):
        for j in range(i + 1, len(hs)):
            if gcd_primitive([hs[i], hs[j]]).degree != 0:
                raise ValueError("input not a valid irreducible factorization")
    out = 1
    for h in hs:
        # Res(h, h') = 0 exactly when h has a repeated factor
        disc = resultant(h, h.derivative())
        if disc == 0:
            raise ValueError("input not a valid irreducible factorization")
        out *= disc
    return out


# ---------------------------------------------------------------------------
# distinct-degree module basis


def distinct_degree_basis(hs) -> tuple[list[IntPoly], tuple[tuple[int, ...], ...]]:
    """Reduce polynomials to a basis of their Z-module with distinct degrees.

    Returns (basis, M) where the basis polynomials have strictly increasing
    degrees, generate the same Z-module of polynomials as the inputs, and
    M is the k x s integer matrix, as row tuples, with (h_i) = M * (basis_j).
    """
    hs = list(hs)
    if not hs or all(h.is_zero for h in hs):
        raise ValueError("need at least one nonzero polynomial")
    width = max(len(h.coeffs) for h in hs if not h.is_zero)
    # rows in descending-degree column order
    rows = [[h.coeff(width - 1 - c) for c in range(width)] for h in hs if not h.is_zero]

    # integer row echelon (Hermite-style)
    pivot_rows: list[list[int]] = []
    pivot_cols: list[int] = []
    work = [r[:] for r in rows]
    for col in range(width):
        live = [r for r in work if r[col] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            small = live[0]
            for r in live[1:]:
                q = r[col] // small[col]
                for c in range(width):
                    r[c] -= q * small[c]
            live = [r for r in work if r[col] != 0]
        piv = live[0]
        if piv[col] < 0:
            for c in range(width):
                piv[c] = -piv[c]
        pivot_rows.append(piv)
        pivot_cols.append(col)
        work = [r for r in work if r is not piv]
    # canonical reduction: entries in a pivot column of earlier rows lie in [0, pivot)
    for j in range(len(pivot_rows)):
        pc = pivot_cols[j]
        pv = pivot_rows[j][pc]
        for i in range(j):
            q = pivot_rows[i][pc] // pv
            if q:
                for c in range(width):
                    pivot_rows[i][c] -= q * pivot_rows[j][c]

    basis = [IntPoly(reversed(r)) for r in pivot_rows]
    basis.reverse()  # ascending degree
    by_degree = {b.degree: idx for idx, b in enumerate(basis)}

    m_rows = []
    for h in hs:
        coeffs = [0] * len(basis)
        w = h
        while not w.is_zero:
            idx = by_degree.get(w.degree)
            if idx is None:
                raise ArithmeticError("module reduction failed")
            q, rem = divmod(w.lead, basis[idx].lead)
            if rem:
                raise ArithmeticError("module reduction failed")
            coeffs[idx] = q
            w = w - basis[idx] * q
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

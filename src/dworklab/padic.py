"""Exact arithmetic in Z/p^N and in unramified extensions truncated at p^N.

A :class:`PadicCtx` fixes an odd prime ``p``, a precision exponent ``N`` and
an extension degree ``m``.  Ring elements are plain integers in ``[0, p**N)``
when ``m == 1``, and tuples of ``m`` such integers (coordinates with respect
to the basis ``1, x, ..., x**(m-1)`` of ``(Z/p^N)[x]/(modulus)``) when
``m >= 2``.  The modulus is a deterministically chosen monic lift of the
lexicographically smallest irreducible polynomial over F_p, so contexts are
reproducible without external tables.

Contexts and elements are immutable; every operation is a pure function, so
values can be shared freely between concurrent workers.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .errors import (
    InvalidParameter,
    NotAUnit,
    NotPrime,
    OddPrimeRequired,
    SearchExhausted,
)

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# The irreducible-modulus search: residues mod f live in PadicCtx(p, 1, m, f),
# and only the gcd works on dense lists over F_p (low first).


def _fp_rem(a, b, p):
    """a mod b over F_p, without leading zeros; b has a nonzero top."""
    a = [c % p for c in a]
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        c = a.pop() * inv % p
        shift = len(a) - len(b) + 1
        for i, bc in enumerate(b[:-1]):
            a[shift + i] = (a[shift + i] - c * bc) % p
    while a and not a[-1]:
        a.pop()
    return a


def _coprime(a, b, p):
    """Whether a and b have no common factor of positive degree over F_p;
    b has a nonzero top."""
    while b:
        a, b = b, _fp_rem(a, b, p)
    return len(a) == 1


def _is_irreducible_mod_p(coeffs, p):
    """Ben-Or's exact test: a monic f of degree m is irreducible over F_p
    iff x^(p^i) - x is prime to f for i = 1, ..., m // 2."""
    m = len(coeffs) - 1
    field = PadicCtx(p, 1, m, [c % p for c in coeffs])
    x = y = field.from_coeffs([0, 1])
    for _ in range(m // 2):
        y = field.pow(y, p)
        if not _coprime(field.sub(y, x), field.modulus, p):
            return False
    return True


# ---------------------------------------------------------------------------


def power(mul, a, e):
    """a^e for e >= 1 under the product mul, left to right: square, then
    multiply by a at each set bit of e below the top, so every product but
    the squares has the short base a as one operand."""
    x = a
    for bit in bin(e)[3:]:
        x = mul(x, x)
        if bit == "1":
            x = mul(x, a)
    return x


def fold_steps(ctx):
    """x^k mod (modulus, q), k = m..2m-2, as steps (i, r, k): add r times
    coefficient k to coefficient i, r a nonzero signed representative in
    (-q/2, q/2] (-2, not q - 2, for x^2 + 2); none for m = 1.  Made once
    per context, as its ``fold``."""
    q, half, m = ctx.q, ctx.q // 2, ctx.m
    rows = [[-c for c in ctx.modulus[:-1]]][:m - 1]
    for _ in range(m - 2):  # x^(k+1) = x * x^k, x^m = rows[0]
        prev = rows[-1]
        rows.append([lo + prev[-1] * r for lo, r in zip([0] + prev[:-1], rows[0])])
    return [(i, c, m + k) for k, row in enumerate(rows)
            for i, c in enumerate((r + half) % q - half for r in row) if c]


class PadicCtx:
    """Modulus data governing all coefficient arithmetic.

    Attributes:
        p: odd prime.
        N: precision exponent, arithmetic is exact modulo p**N.
        m: extension degree; m == 1 is the plain residue ring.
        modulus: monic degree-m polynomial, coefficient tuple low -> high,
            irreducible modulo p (for m == 1 it is the variable itself).
        fold: fold_steps of the context, the reduction of x^m .. x^(2m-2).
    """

    __slots__ = ("p", "N", "m", "modulus", "q", "fold")

    def __init__(self, p, N, m, modulus):
        self.p = p
        self.N = N
        self.m = m
        self.modulus = tuple(modulus)
        self.q = p**N
        self.fold = fold_steps(self)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, PadicCtx)
            and (self.p, self.N, self.m, self.modulus)
            == (other.p, other.N, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.N, self.m, self.modulus))

    def __repr__(self):
        return f"PadicCtx(p={self.p}, N={self.N}, m={self.m})"

    # -- element constructors ----------------------------------------------

    def zero(self):
        return 0 if self.m == 1 else (0,) * self.m

    def one(self):
        return 1 if self.m == 1 else (1,) + (0,) * (self.m - 1)

    def from_int(self, v):
        if self.m == 1:
            return v % self.q
        return (v % self.q,) + (0,) * (self.m - 1)

    def from_coeffs(self, coeffs):
        """Element from a basis-coefficient sequence (length <= m)."""
        cs = [c % self.q for c in coeffs]
        if self.m == 1:
            return cs[0] if cs else 0
        cs += [0] * (self.m - len(cs))
        return tuple(cs[: self.m])

    def coeffs(self, x):
        return (x,) if self.m == 1 else x

    # -- ring operations -----------------------------------------------------

    def add(self, a, b):
        if self.m == 1:
            return (a + b) % self.q
        q = self.q
        return tuple((x + y) % q for x, y in zip(a, b))

    def sub(self, a, b):
        if self.m == 1:
            return (a - b) % self.q
        q = self.q
        return tuple((x - y) % q for x, y in zip(a, b))

    def neg(self, a):
        if self.m == 1:
            return -a % self.q
        q = self.q
        return tuple(-x % q for x in a)

    def mul(self, a, b):
        if self.m == 1:
            return a * b % self.q
        return self.dot((a,), (b,))

    def dot(self, xs, ys):
        """sum x y over paired elements of xs and ys, reduced once: 2m - 1
        unreduced accumulators, then x^m .. x^(2m-2) folded down.  Inputs
        may be unreduced or negative; no pairs give zero."""
        q, m = self.q, self.m
        if m == 1:
            return sum(map(mul, xs, ys)) % q
        acc = [0] * (2 * m - 1)
        for x, y in zip(xs, ys):
            for i, xi in enumerate(x):
                if xi:
                    for k, yj in enumerate(y, i):
                        acc[k] += xi * yj
        for i, r, k in self.fold:
            acc[i] += r * acc[k]
        return tuple([c % q for c in acc[:m]])

    def dot_columns(self, xs, ys):
        """``dot`` of elements given by their m plain-int columns (xs[u][t]
        the coordinate of x^u in the t-th): one sum per pair of columns."""
        q, m = self.q, self.m
        acc = [0] * (2 * m - 1)
        for i, x in enumerate(xs):
            for k, y in enumerate(ys, i):
                acc[k] += sum(map(mul, x, y))
        for i, r, k in self.fold:
            acc[i] += r * acc[k]
        return acc[0] % q if m == 1 else tuple([c % q for c in acc[:m]])

    def scal_int(self, a, k):
        """Multiply an element by a plain integer."""
        if self.m == 1:
            return a * k % self.q
        q = self.q
        return tuple(x * k % q for x in a)

    def pow(self, a, e):
        if e < 0:  # callers invert first, as LaurentPoly.eval_z does
            raise ValueError("negative powers are not supported")
        if self.m == 1:
            return pow(a, e, self.q)
        return power(self.mul, a, e) if e else self.one()

    def frob(self, a, k=1):
        """Frobenius on points: a -> a**(p**k), never a coefficient map."""
        return self.pow(a, self.p**k)

    # -- valuation and units -------------------------------------------------

    def is_zero(self, a):
        if self.m == 1:
            return a == 0
        return not any(a)

    def val(self, a):
        """Largest k <= N with a = 0 mod p^k; N stands for "at least N".
        One path for every m: the exponent of gcd(q, coefficients of a)."""
        c, v = gcd(self.q, *self.coeffs(a)), 0
        if c == self.q:
            return self.N
        while c > 1:
            c //= self.p
            v += 1
        return v

    def is_unit(self, a):
        return self.val(a) == 0

    def inv(self, a):
        """Inverse of a unit: invert in the residue field, then Hensel-double."""
        if not self.is_unit(a):
            raise NotAUnit(f"element has valuation {self.val(a)} > 0")
        p = self.p
        if self.m == 1:
            y = pow(a % p, -1, p)
        else:  # Fermat inverse in F_(p^m) = PadicCtx(p, 1, m, modulus)
            field = PadicCtx(p, 1, self.m, self.modulus)
            y = field.pow(tuple(c % p for c in a), p**self.m - 2)
        steps = max(1, (self.N - 1).bit_length())
        two = self.from_int(2)
        for _ in range(steps):
            y = self.mul(y, self.sub(two, self.mul(a, y)))
        return y

    # -- Teichmueller lift ---------------------------------------------------

    def teichmueller(self, a):
        """The unique x with x^(p^m) = x mod p^N and x = a mod p.

        Computed by iterating x <- x^(p^m): x = a is right mod p, and each
        step gains at least m p-adic digits (x = y mod p^k gives
        x^p = y^p mod p^(k+1)), so ceil((N - 1) / m) steps give the lift
        exactly.  Zero maps to zero.
        """
        if self.m == 1:
            if a % self.p == 0:
                return 0
        elif all(c % self.p == 0 for c in a):
            return self.zero()
        e = self.p**self.m
        for _ in range(-(-(self.N - 1) // self.m)):
            a = self.pow(a, e)
        return a

    # -- serialization ---------------------------------------------------------

    def elem_to_json(self, x):
        return [str(c) for c in self.coeffs(x)]

    def elem_from_json(self, data):
        """An int, a decimal string or a list of at most m of them."""
        if isinstance(data, (int, str)):
            return self.from_int(json_int(data))
        if not isinstance(data, list):
            raise TypeError(f"{data!r} is not a ring element")
        if len(data) > self.m:
            raise ValueError(f"an element has at most m = {self.m} coefficients")
        return self.from_coeffs([json_int(c) for c in data])

    def to_json(self):
        return {"p": self.p, "N": self.N, "m": self.m, "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, data):
        return cls(int(data["p"]), int(data["N"]), int(data["m"]),
                   tuple(int(c) for c in data["modulus"]))


def json_int(x):
    """x as an int, from an int that is no bool or from an ASCII string
    matching -?[0-9]+ (int() alone also takes " 3", "3_0" and non-ASCII
    digits)."""
    if (isinstance(x, int) and not isinstance(x, bool) or isinstance(x, str)
            and x.isascii() and x.removeprefix("-").isdigit()):
        return int(x)
    raise TypeError(f"{x!r} is not an integer")


def check_prime(p):
    """Raise unless p is an odd prime."""
    if p == 2:
        raise OddPrimeRequired("p = 2 is not supported")
    if p < 2 or not is_prime(p):
        raise NotPrime(f"{p} is not prime")


def ctx_new(p, N, m=1):
    """Build a context with the deterministic smallest irreducible modulus.

    The degree-m modulus is the lexicographically smallest monic irreducible
    polynomial over F_p (coefficients compared high degree first), lifted
    with coefficients in [0, p).
    """
    check_prime(p)
    if N < 1:
        raise InvalidParameter("precision N must be >= 1")
    if m < 1:
        raise InvalidParameter("extension degree m must be >= 1")
    if m == 1:
        return PadicCtx(p, N, 1, (0, 1))
    for k in range(p**m):
        digits = []
        kk = k
        for _ in range(m):
            digits.append(kk % p)
            kk //= p
        coeffs = tuple(digits) + (1,)
        if _is_irreducible_mod_p(coeffs, p):
            return PadicCtx(p, N, m, coeffs)
    raise SearchExhausted(f"no irreducible monic polynomial of degree {m} found")

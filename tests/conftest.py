import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import random

import pytest

import dworklab as dl
from dworklab import laurent
from dworklab.ghosts import AdmissibleTuple
from dworklab.hasse_witt import SymbolicKit
from dworklab.laurent import LaurentPoly
from oracles import rand


def rand_coeff(rng, ctx, nonzero=False):
    while True:
        c = rand(ctx, rng)
        if not nonzero or not ctx.is_zero(c):
            return c


def rand_laurent(rng, ctx, r, n, tlo, thi, max_terms, zdeg=2, neg_z=False):
    """Random polynomial in r t-variables and n z-variables, with t-support
    inside [tlo, thi]."""
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        key = tuple(
            [rng.randint(tlo, thi) for _ in range(r)]
            + [rng.randint(-zdeg if neg_z else 0, zdeg) for _ in range(n)]
        )
        terms[key] = rand_coeff(rng, ctx, nonzero=True)
    return LaurentPoly(ctx, r, n, terms)


_PATTERNS = ("wide", "kz", "zero", "negzero")


def _pattern_interval(pattern, p, g):
    if pattern == "wide":
        return (-(p - 1) // 2, 3 * (p - 1) // 2), (0, 1)
    if pattern == "kz":
        return (0, (p - 1) * (2 * g + 1) // 2), tuple(range(1, g + 1))
    if pattern == "zero":
        return (0, p - 1), (0,)
    return (-(p - 1), 0), (0,)


def rand_admissible_tuple(rng, p=None, l=None, N=None):
    """Random admissible tuple built on a known-admissible box pattern.

    Term counts shrink with the index so that high powers stay sparse.
    """
    p = p or rng.choice((3, 5))
    if l is None:
        l = rng.choice((1, 2, 2, 3, 3, 4)) if p == 3 else rng.choice((1, 2, 2, 3))
    N = N or (l + 1)
    ctx = dl.ctx_new(p, N, 1)
    g = rng.choice((1, 2)) if p >= 5 else 1
    pattern = rng.choice(_PATTERNS)
    (lo, hi), delta = _pattern_interval(pattern, p, g)
    n = rng.choice((1, 2))
    lams = []
    for k in range(l + 1):
        span = hi - lo
        a = lo + rng.randint(0, span)
        b = a + rng.randint(0, hi - a)
        cap = 3 if k < 2 else 2
        lams.append(rand_laurent(rng, ctx, 1, n, a, b, cap, zdeg=2,
                                 neg_z=rng.random() < 0.3))
    tup = AdmissibleTuple(lams, delta, periodic=False)
    assert tup.certificate.ok
    return tup


def seeded(seed):
    return random.Random(seed)


class PlantedGhostFault(AdmissibleTuple):
    """A tuple whose products W_s (s >= 1) carry an extra unit constant term.

    Then V_1 = W_1 + 1 - V_0 W_1^(1)(x^p) has a unit coefficient: a planted
    violation of ghost divisibility, which no honest tuple can produce.
    """

    def W(self, s, j=0):
        w = super().W(s, j)
        if s >= 1 and j == 0:
            return w + LaurentPoly.one(self.ctx, w.r, w.n)
        return w


@pytest.fixture
def kit_log(monkeypatch):
    """In order, every SymbolicKit made and a "product" for every product
    of expanded polynomials (``laurent._convolve``)."""
    log = []
    init, convolve = SymbolicKit.__init__, laurent._convolve

    def made(kit, *args):
        init(kit, *args)
        log.append(kit)

    def product(*args):
        log.append("product")
        return convolve(*args)

    monkeypatch.setattr(SymbolicKit, "__init__", made)
    monkeypatch.setattr(laurent, "_convolve", product)
    return log

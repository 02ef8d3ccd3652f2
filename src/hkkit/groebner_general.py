"""Polynomials over F_p and buchberger on them, the reference for the oracle's
engine in groebner, which shares with it only _minimal, _chain_length and
_check_members.  No command runs it: hkkit and hkkit.groebner import it on
first use (PEP 562)."""

import heapq
from collections.abc import Mapping, Sequence

from . import numtheory  # is_prime is looked up at each call (see closed_form._lazy)
from .closed_form import RingSpec, _Value
from .groebner import (PAIR_BUDGET_DEFAULT, Monomial, PairBudgetExceededError, _chain_length,
                       _check_members, _minimal)


class CharacteristicMismatchError(ValueError):
    """Polynomials over different prime fields were combined."""


class FpPoly:
    """Element of F_p[x, y]: a sparse map from Monomial to coefficient.

    FpPoly(p, terms) takes a mapping from exponent pairs to integer
    coefficients, rejects a composite p and negative exponents, and reduces
    each coefficient mod p.  Stored coefficients are least nonnegative
    representatives in [1, p-1]; the zero polynomial is the empty map.
    Instances are immutable by convention, so the leading term is found on
    its first read and kept.  The operations are the ones buchberger,
    s_polynomial and reduce use: leading_term, subtraction, mul_monomial,
    monic, equality and str; there is no addition, product or hash.
    """

    __slots__ = ("p", "terms", "_lead")

    def __init__(self, p: int, terms: Mapping):
        if not numtheory.is_prime(p):
            raise ValueError(f"coefficient field needs a prime characteristic, got {p}")
        clean: dict[Monomial, int] = {}
        for mono, coeff in terms.items():
            mono = Monomial(*mono)
            if mono.i < 0 or mono.j < 0:
                raise ValueError(f"negative exponent in {mono!r}")
            c = coeff % p
            if c:
                clean[mono] = c
        self.p = p
        self.terms = clean
        self._lead = None

    @classmethod
    def _raw(cls, p: int, terms: dict[Monomial, int]) -> "FpPoly":
        # internal fast path: p must be prime and terms already normalized
        poly = object.__new__(cls)
        poly.p = p
        poly.terms = terms
        poly._lead = None
        return poly

    def is_zero(self) -> bool:
        return not self.terms

    def leading_term(self) -> tuple[Monomial, int]:
        lead = self._lead
        if lead is None:
            if not self.terms:
                raise ValueError("the zero polynomial has no leading term")
            mono = max(self.terms)
            lead = self._lead = (mono, self.terms[mono])
        return lead

    def _check_char(self, other: "FpPoly") -> None:
        if self.p != other.p:
            raise CharacteristicMismatchError(
                f"characteristics differ: {self.p} and {other.p}"
            )

    def __sub__(self, other: "FpPoly") -> "FpPoly":
        if not isinstance(other, FpPoly):
            return NotImplemented
        self._check_char(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = (out.get(mono, 0) - coeff) % self.p
            if c:
                out[mono] = c
            else:
                out.pop(mono, None)
        return FpPoly._raw(self.p, out)

    def mul_monomial(self, mono: Monomial, coeff: int = 1) -> "FpPoly":
        """Product with the single term coeff * x^mono.i * y^mono.j."""
        mono = Monomial(*mono)
        if mono.i < 0 or mono.j < 0:
            raise ValueError(f"negative exponent in {mono!r}")
        c0 = coeff % self.p
        if c0 == 0:
            return FpPoly._raw(self.p, {})
        # c * c0 stays nonzero: both are units mod a prime
        return FpPoly._raw(
            self.p, {m.mul(mono): (c * c0) % self.p for m, c in self.terms.items()}
        )

    def monic(self) -> "FpPoly":
        """Scale so the leading coefficient is 1."""
        _, lc = self.leading_term()
        if lc == 1:
            return self
        inv = pow(lc, -1, self.p)
        return FpPoly._raw(self.p, {m: (c * inv) % self.p for m, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FpPoly):
            return NotImplemented
        return self.p == other.p and self.terms == other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for mono in sorted(self.terms, reverse=True):
            coeff = self.terms[mono]
            if mono == (0, 0):  # a plain tuple: Monomial(0, 0) would run __new__ per term
                chunks.append(str(coeff))
            elif coeff == 1:
                chunks.append(str(mono))
            else:
                chunks.append(f"{coeff}*{mono}")
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"FpPoly(p={self.p}: {self})"


def s_polynomial(f: FpPoly, g: FpPoly) -> FpPoly:
    """Leading-term cancellation (L/lt f)*f - (L/lt g)*g, L the lcm, both monic."""
    if f.is_zero() or g.is_zero():
        raise ValueError("s_polynomial of the zero polynomial is undefined")
    f._check_char(g)
    lm_f, lc_f = f.leading_term()
    lm_g, lc_g = g.leading_term()
    big = lm_f.lcm(lm_g)
    left = f.mul_monomial(big.div(lm_f), pow(lc_f, -1, f.p))
    right = g.mul_monomial(big.div(lm_g), pow(lc_g, -1, g.p))
    return left - right


def _rule(g: FpPoly, earlier: Sequence[Monomial]) -> tuple:
    """g's rewrite rule (lm, chain, rest), with earlier the leads listed before g.

    A term c*m with lm | m is removed, and c*c2 is added at m2 + (m - lm) for
    each (m2, c2) in rest: the other terms of -g/lc, lc the leading
    coefficient.  A binomial's chain is (di, dj, earlier), its tail minus lm
    and the leads that can cut its chain of rewrites (see reduce).
    """
    lm, lc = g.leading_term()
    p, inv = g.p, pow(lc, -1, g.p)
    rest = [(m, -c * inv % p) for m, c in g.terms.items() if m != lm]
    if len(rest) != 1:
        return lm, None, rest
    tail = rest[0][0]
    return lm, (tail.i - lm.i, tail.j - lm.j, tuple(earlier)), rest


def reduce(f: FpPoly, basis: Sequence[FpPoly]) -> FpPoly:
    """Full normal form of f modulo a list of nonzero polynomials.

    Always rewrites the largest remaining monomial, using the first basis
    element (in list order) whose leading monomial divides it, so the result
    is deterministic for a fixed list.  No monomial of the output is
    divisible by any basis leading monomial.  Rewriting only ever introduces
    monomials strictly below the one removed, and lex on nonnegative
    exponents is a well-order, so this terminates.

    reduce works on a dict of waiting terms, whatever the inputs: each basis
    element's rewrite rule (_rule) is built once per call, and every rewrite
    merges into that dict (_normal_form, which buchberger calls directly);
    the oracle's engine reduces one monomial at a time (_reduce_term).

    A binomial g = lc*lm + ct*tail rewrites c*mono into -(ct/lc)*c times
    mono + (tail - lm), and so on until lm stops dividing the moving monomial
    or an earlier basis lead starts to.  Such a chain of T rewrites (T from a
    few integer divisions, see _chain_length) is one jump: c*(-ct/lc)^T at
    mono + T*(tail - lm) merges into the waiting terms as one rewrite would.
    Every binomial rewrite takes the jump, a one-step chain (T = 1) included.
    Which rewrite a monomial gets depends on that monomial alone, so the
    normal form is linear in f: a waiting term the jump passes runs down the
    same chain later, and the output is term for term that of rewriting one
    step at a time, as reducers of three or more terms still do.  For the
    oracle's ideals, whose reducers are all monomials or binomials, the jump
    turns the O(q/n) rewrites of a chain by x^n - y^n into one.
    """
    for g in basis:
        if g.is_zero():
            raise ValueError("basis elements must be nonzero")
        f._check_char(g)
    return _normal_form(f, _rules(basis))


def _rules(basis: Sequence[FpPoly]) -> list[tuple]:
    leads = [g.leading_term()[0] for g in basis]
    return [_rule(g, leads[:idx]) for idx, g in enumerate(basis)]


def _normal_form(f: FpPoly, rules: Sequence[tuple]) -> FpPoly:  # see reduce
    p, work, out = f.p, dict(f.terms), {}
    while work:
        mono = max(work)
        coeff = work.pop(mono)
        for lm, chain, rest in rules:
            if lm.i <= mono.i and lm.j <= mono.j:
                si, sj = mono.i - lm.i, mono.j - lm.j
                if chain:
                    # skip the first T - 1 rewrites of the chain in one jump
                    di, dj, earlier = chain
                    skip = _chain_length(mono, lm, di, dj, earlier) - 1
                    si, sj = si + skip * di, sj + skip * dj
                    coeff = coeff * pow(rest[0][1], skip, p)
                for m, c in rest:
                    key = Monomial(m.i + si, m.j + sj)
                    c = (work.get(key, 0) + coeff * c) % p
                    if c:
                        work[key] = c
                    else:
                        work.pop(key, None)
                break
        else:
            out[mono] = coeff
    return FpPoly._raw(p, out)


class GroebnerBasis(_Value):
    """A reduced lex Groebner basis and its leading-term staircase.

    generators are monic, pairwise tail-reduced, and sorted by ascending
    leading monomial; staircase holds exactly those leading monomials, which
    are pairwise incomparable under divisibility.  Reduced bases are unique
    for a given ideal and order, so equal ideals give equal objects here.
    """

    __match_args__ = ("generators", "staircase")

    def __init__(self, generators: tuple[FpPoly, ...], staircase: tuple[Monomial, ...]) -> None:
        fields = self.__dict__
        fields["generators"], fields["staircase"] = generators, staircase


def buchberger(gens: Sequence[FpPoly], pair_budget: int = PAIR_BUDGET_DEFAULT) -> GroebnerBasis:
    """Reduced lex Groebner basis of the ideal the generators span.

    Textbook Buchberger: a queue of index pairs ordered by the lcm of leading
    monomials (normal strategy, smallest first), pairs with coprime leading
    monomials skipped, every nonzero S-polynomial remainder appended.  A final
    pass minimalizes and tail-reduces, so the output is the unique reduced
    basis no matter how the generators were ordered, and checks that every
    generator reduces to zero modulo it.

    pair_budget caps how many pairs may be processed; exhausting it raises
    PairBudgetExceededError rather than returning anything partial.

    Every element is a monic FpPoly, and every remainder is
    reduce(s_polynomial(f, g), basis), from rules built once per element
    (_normal_form): the public primitives, which work for generators of any
    length.  The final pass reduces each survivor of _minimal against the
    others, and the member check reduces each generator modulo the result.

    The oracle does not come through here: _colength runs
    _binomial_buchberger on pairs (see the module docstring).  The two
    engines share only the pair order, _minimal, _chain_length and
    _check_members, so the tests that compare them compare two computations.
    """
    if not gens:
        raise ValueError("need at least one generator")
    for g in gens:
        g._check_char(gens[0])
        if g.is_zero():
            raise ValueError("generators must be nonzero")
    basis: list[FpPoly] = []
    leads: list[Monomial] = []
    rules: list[tuple] = []
    heap: list[tuple[Monomial, int, int]] = []

    def append(g: FpPoly) -> None:
        lm = g.leading_term()[0]
        for k, lm_k in enumerate(leads):
            if (lm_k.i == 0 or lm.i == 0) and (lm_k.j == 0 or lm.j == 0):
                continue  # coprime leading monomials: S-poly reduces to zero
            heapq.heappush(heap, (lm_k.lcm(lm), k, len(basis)))
        rules.append(_rule(g, leads))
        basis.append(g)
        leads.append(lm)

    for g in gens:
        append(g.monic())
    processed = 0
    while heap:
        _, a, b = heapq.heappop(heap)
        processed += 1
        if processed > pair_budget:
            raise PairBudgetExceededError(f"more than {pair_budget} S-pairs processed")
        remainder = _normal_form(s_polynomial(basis[a], basis[b]), rules)
        if not remainder.is_zero():
            append(remainder.monic())
    minimal = _minimal(basis, leads)
    # a survivor's lead, left in the chains of later rules, only splits a jump
    rules = _rules(minimal)
    final = [_normal_form(g, rules[:idx] + rules[idx + 1:]) for idx, g in enumerate(minimal)]
    rules = _rules(final)
    _check_members(_normal_form(g, rules).terms for g in gens)
    return GroebnerBasis(tuple(final), tuple(g.leading_term()[0] for g in final))


def frobenius_power_generators(spec: RingSpec, e: int) -> list[FpPoly]:
    """Generators x^q, y^q, x^n - y^n with q = p^e, as polynomials over F_p.

    They take p from a RingSpec, which has checked it, so they skip the
    checking constructor; -1 is stored as p - 1.
    """
    if e < 0:
        raise ValueError(f"e must be nonnegative, got {e}")
    p, n, q = spec.p, spec.n, spec.p**e
    return [
        FpPoly._raw(p, {Monomial(q, 0): 1}),
        FpPoly._raw(p, {Monomial(0, q): 1}),
        FpPoly._raw(p, {Monomial(n, 0): 1, Monomial(0, n): p - 1}),
    ]

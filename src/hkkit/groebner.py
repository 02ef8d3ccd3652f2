"""The Groebner-basis colength oracle over F_p.

The point of this module is an independent colength oracle: the dimension of
F_p[x,y]/(x^q, y^q, x^n - y^n) as an F_p-vector space, computed by finding a
reduced lex Groebner basis and counting the lattice points under its
staircase.  Nothing here consults the closed Hilbert-Kunz formula; the
agreement of the two routes is checked in the test suite, and that agreement
is only evidence because the routes share no code.

Monomial order is lex with x > y throughout, which for exponent pairs (i, j)
is plain tuple comparison.

The oracle (_colength) runs its own Buchberger engine, _binomial_buchberger.
Its generators are x^q, y^q and the difference x^n - y^n, and every
S-polynomial and remainder they lead to is again 0, a monomial or a
difference of two monomials, since a rewrite by lead - tail maps a term to one
term with the same coefficient: it keeps each element as a pair (lead, tail)
of plain (i, j) int tuples, standing for lead - tail, reduces one monomial at
a time by one walk down first-divisor rewrites (_reduce_term), and returns the
basis as pairs, which the gb command prints: no field arithmetic, no FpPoly,
and a Monomial (the public, printed type) only where a public result holds
one.  A pair of two monomials is counted against the budget as buchberger
counts it, but not reduced: its S-polynomial is lcm - lcm = 0.

The general engine (FpPoly, reduce, buchberger, ...), which the tests compare
this one with, is in groebner_general, imported on first use (PEP 562).
"""
import heapq
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .closed_form import Q_CAP_DEFAULT, RingSpec, _lazy, _Value

PAIR_BUDGET_DEFAULT = 100_000
__getattr__ = _lazy(__name__, {"groebner_general": "CharacteristicMismatchError FpPoly "
                               "GroebnerBasis buchberger frobenius_power_generators reduce "
                               "s_polynomial"})

# Monomial(i, j) runs namedtuple's Python-level __new__; _new(Monomial, (i, j))
# builds the same object in C.  The oracle's engine makes none: its monomials
# are plain (i, j) tuples, turned into Monomials at the public boundary only.
_new = tuple.__new__


class Monomial(namedtuple("Monomial", "i j")):
    """Power product x^i * y^j.  Tuple order coincides with lex(x > y)."""

    __slots__ = ()

    def divides(self, other: "Monomial") -> bool:
        return self.i <= other.i and self.j <= other.j

    def lcm(self, other: "Monomial") -> "Monomial":
        return _new(Monomial, _lcm(self, other))

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(self.i + other.i, self.j + other.j)

    def div(self, other: "Monomial") -> "Monomial":
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(self.i - other.i, self.j - other.j)

    def __str__(self) -> str:
        i, j = self
        x = "" if not i else "x" if i == 1 else f"x^{i}"
        y = "" if not j else "y" if j == 1 else f"y^{j}"
        return f"{x}*{y}" if x and y else x or y or "1"


def _lcm(a: tuple, b: tuple) -> tuple:
    """The lcm of two monomials (Monomials or plain pairs) as a plain pair:
    conditional expressions, not max(), since Buchberger takes one per pair."""
    return a[0] if a[0] > b[0] else b[0], a[1] if a[1] > b[1] else b[1]


class PairBudgetExceededError(RuntimeError):
    """The S-pair queue outlived its budget; the run is aborted, not trusted."""


class QCapExceededError(ValueError):
    """q = p^e exceeds the cap the brute-force oracle was given."""

    def __init__(self, p: int, e: int, q_cap: int):
        self.p = p
        self.e = e
        self.q_cap = q_cap
        super().__init__(f"q = {p}^{e} exceeds the oracle cap {q_cap}")

    @property
    def q(self) -> int:
        """p^e itself, built only on request: it can be astronomically large."""
        return self.p**self.e


def capped_q(p: int, e: int, q_cap: int) -> int:
    """q = p^e; ValueError if e < 0 or q_cap < 1, QCapExceededError if q > q_cap.

    For p >= 2, p^e >= 2^(e * (bits(p) - 1)), so an e at which that bound
    has more bits than q_cap is refused from bit lengths alone, in O(1)
    whatever e is.  Otherwise e * bits(p) < 2 * bits(q_cap) - 1, and the one
    power built, p^e, stays below q_cap^2.
    """
    if e < 0:
        raise ValueError(f"e must be nonnegative, got {e}")
    if q_cap < 1:
        raise ValueError(f"q_cap must be positive, got {q_cap}")
    if e * (p.bit_length() - 1) >= q_cap.bit_length() or (q := p**e) > q_cap:
        raise QCapExceededError(p, e, q_cap)
    return q


def _chain_length(mono: tuple, lm: tuple, di: int, dj: int, earlier: Sequence[tuple]) -> int:
    """How many rewrites in a row a binomial with lead lm makes, from mono.

    (di, dj) is the binomial's tail minus lm, and step k rewrites
    mono + k*(di, dj).  The chain ends at the first k >= 1 where lm no longer
    divides that monomial or an earlier lead does.  Read by index, as
    Monomials (reduce) or plain pairs (the oracle's engine) alike.
    """
    mi, mj = mono
    # the tail is below lm in lex, so di < 0, or di == 0 and dj < 0
    if di == 0:
        steps = (mj - lm[1]) // -dj
    elif dj < 0:
        steps = min((mi - lm[0]) // -di, (mj - lm[1]) // -dj)
    else:
        steps = (mi - lm[0]) // -di
    steps += 1
    for li, lj in earlier:
        # the smallest k in [lo, hi] = [1, steps) with lead dividing the
        # monomial at step k, i.e. k*di >= gap_i and k*dj >= gap_j
        lo, hi = 1, steps - 1
        gap = li - mi
        if di:  # di < 0: k <= gap_i // di
            if (k := gap // di) < hi:
                hi = k
        elif gap > 0:
            continue
        gap = lj - mj
        if dj > 0:
            if (k := -(-gap // dj)) > lo:
                lo = k
        elif dj < 0:
            if (k := gap // dj) < hi:
                hi = k
        elif gap > 0:
            continue
        if lo <= hi:
            steps = lo
    return steps


# The oracle's binomial path (see the module docstring).  An element is a
# pair (lead, tail) that stands for lead - tail, with tail < lead, and tail
# None for the monomial lead; a rewrite by a monomial maps a term to none.


def _binomial_rule(g: tuple, earlier: Sequence[tuple]) -> tuple:
    """A pair's rewrite rule (lm, chain), with earlier the leads listed before
    it: chain is (di, dj, earlier) as in _rule, or None for a monomial."""
    lm, tail = g
    if tail is None:
        return lm, None
    return lm, (tail[0] - lm[0], tail[1] - lm[1], tuple(earlier))


def _binomial_rules(basis: Sequence[tuple]) -> list[tuple]:
    leads = [g[0] for g in basis]
    return [_binomial_rule(g, leads[:idx]) for idx, g in enumerate(basis)]


def _reduce_term(mono: tuple, rules: Sequence[tuple]) -> tuple | None:
    """The normal form of mono modulo binomial rules: a monomial, or None (zero).

    One walk down first-divisor rewrites: a monomial rule ends it at zero, and
    a binomial rule moves mono down its whole chain (_chain_length) in one
    jump, before the rules are scanned again from the first.
    """
    mi, mj = mono
    while True:
        for lm, chain in rules:
            if lm[0] <= mi and lm[1] <= mj:
                break
        else:
            return mono
        if chain is None:
            return None
        di, dj, earlier = chain
        steps = _chain_length(mono, lm, di, dj, earlier)
        mono = mi, mj = mi + steps * di, mj + steps * dj


def _binomial_nf(a: tuple | None, b: tuple | None, rules: Sequence[tuple]) -> tuple | None:
    """Normal form of a - b modulo binomial rules, a or b None for zero, as a
    pair up to sign, or None for zero.

    The normal form is linear and each monomial reduces on its own
    (_reduce_term), so it is the difference of the two normal forms: two
    that land on one monomial cancel.
    """
    if a is not None:
        a = _reduce_term(a, rules)
    if b is not None:
        b = _reduce_term(b, rules)
    if a == b:
        return None
    if a is None or b is None:
        return (a or b), None
    return (a, b) if a > b else (b, a)


def _binomial_s_pair(lcm: tuple, f: tuple, g: tuple, rules: Sequence[tuple]) -> tuple | None:
    """The normal form modulo rules of the S-polynomial of pairs f and g whose
    leads divide lcm, as _binomial_nf gives it.  The leads cancel, so only the
    tails are left, each shifted by lcm over its own lead.  Two monomials (both
    tails None) have S-polynomial lcm - lcm = 0, so no caller passes them."""
    lm, tail = f
    a = None if tail is None else (tail[0] + lcm[0] - lm[0], tail[1] + lcm[1] - lm[1])
    lm, tail = g
    b = None if tail is None else (tail[0] + lcm[0] - lm[0], tail[1] + lcm[1] - lm[1])
    return _binomial_nf(a, b, rules)


# Buchberger's pair loop, once per engine: a queue of index pairs by lcm of
# leads, pairs with coprime leads skipped, every nonzero remainder appended,
# and a budget on the pairs processed.  Both loops take the same pairs in the
# same order, so both engines return the same basis or raise at the same
# budget; the binomial loop counts a pair of two monomials but does not reduce
# it, since its S-polynomial is zero, where buchberger reduces it to zero.


def _binomial_pair_loop(gens: Sequence[tuple], pair_budget: int
                        ) -> tuple[list[tuple], list[tuple]]:
    """Every element the pair loop appends to the pairs gens, with their
    leads; each S-polynomial is the difference of at most two monomials,
    reduced in _binomial_s_pair, except that of two monomials, which is zero."""
    basis: list[tuple] = []
    leads: list[tuple] = []
    rules: list[tuple] = []
    heap: list[tuple[tuple, int, int]] = []
    todo = list(gens)
    processed = 0
    while todo:
        for g in todo:
            lm = g[0]
            for k, lm_k in enumerate(leads):
                if (lm_k[0] == 0 or lm[0] == 0) and (lm_k[1] == 0 or lm[1] == 0):
                    continue  # coprime leading monomials: S-poly reduces to zero
                heapq.heappush(heap, (_lcm(lm_k, lm), k, len(basis)))
            rules.append(_binomial_rule(g, leads))
            basis.append(g)
            leads.append(lm)
        todo = []
        while heap and not todo:
            lcm, a, b = heapq.heappop(heap)
            processed += 1
            if processed > pair_budget:
                raise PairBudgetExceededError(f"more than {pair_budget} S-pairs processed")
            f, g = basis[a], basis[b]
            # two monomials: counted above, but their S-polynomial is zero
            if (f[1] is not None or g[1] is not None) and (
                    reduced := _binomial_s_pair(lcm, f, g, rules)) is not None:
                todo.append(reduced)
    return basis, leads


def _minimal(basis: Sequence, leads: Sequence[tuple]) -> list:
    """The elements no other lead divides, by ascending lead: scanned in that
    order, a survivor is seen before any of its multiples, and of equal leads
    the first listed stays.  Leads are Monomials or plain pairs, read by index."""
    minimal, kept = [], []
    for idx in sorted(range(len(basis)), key=leads.__getitem__):
        lm = i, j = leads[idx]
        for ki, kj in kept:
            if ki <= i and kj <= j:
                break
        else:
            minimal.append(basis[idx])
            kept.append(lm)
    return minimal


def _check_members(remainders: Iterable) -> None:
    """Each input was used to build the basis, and must in turn vanish modulo it."""
    if any(remainders):
        raise RuntimeError(
            "input generator fails to reduce to zero modulo the computed "
            "basis: library bug"
        )


def _binomial_buchberger(gens: Sequence[tuple], pair_budget: int) -> list[tuple]:
    """buchberger on pairs, over any field, since no coefficient other than
    1 and -1 ever arises: the checked reduced basis as the pairs it holds, by
    ascending lead."""
    basis, leads = _binomial_pair_loop(gens, pair_budget)
    minimal = _minimal(basis, leads)
    # tail-reduce as buchberger does.  No other lead divides a survivor's
    # lead, so of lead - tail only the tail moves: to a monomial, or to zero.
    # Its own rule cannot fire: the walk starts below the lead in lex and only
    # moves down, and a monomial the lead divides is at or above it
    rules = _binomial_rules(minimal)
    final = minimal[:]
    for idx, (lead, tail) in enumerate(minimal):
        if tail is not None:
            final[idx] = lead, _reduce_term(tail, rules)
    if final != minimal:
        rules = _binomial_rules(final)
    _check_members([_binomial_nf(lead, tail, rules) for lead, tail in gens])
    return final


def count_under_staircase(staircase: Sequence[tuple]) -> int | None:
    """Monomials divisible by no staircase element; None when infinitely many.

    In two variables the count is finite exactly when the staircase blocks
    both axes, i.e. contains pure powers x^a and y^c.  Corner walk, one pass
    over the sorted corners: column i contributes min{m.j : m.i <= i}, which
    changes only at corners, so each gap between corners adds its width
    times that running minimum.  The walk needs a first corner on the y-axis
    (i = 0) and ends where the minimum reaches 0, at the first corner on the
    x-axis; a staircase without either has infinitely many standard monomials.
    """
    corners = sorted(staircase)
    if not corners or corners[0][0]:
        return None
    total, (i, height) = 0, corners[0]
    for ci, cj in corners:
        if not height:
            return total
        total += (ci - i) * height
        i = ci
        if cj < height:
            height = cj
    return None if height else total


def hk_brute(spec: RingSpec, e: int, q_cap: int = Q_CAP_DEFAULT) -> int:
    """Colength of (x^q, y^q, x^n - y^n) in F_p[x, y], the slow honest way.

    Runs Buchberger on the raw generators and counts standard monomials
    (_colength), on pairs: no coefficient, no FpPoly.  The closed formula is
    never consulted, which makes agreement with hk_value meaningful.  q above
    q_cap raises QCapExceededError: the caller falls back to the formula.
    """
    return _colength(spec, capped_q(spec.p, e, q_cap))[1]


def _relation(n: int) -> tuple:
    """x^n - y^n as a pair of the binomial path."""
    return (n, 0), (0, n)


def _colength(spec: RingSpec, q: int) -> tuple[list[tuple], int]:
    """Reduced basis of (x^q, y^q, x^n - y^n), q = p^e already built as by
    capped_q, as pairs by ascending lead, and its staircase count: the one
    Buchberger run on these generators that every oracle caller shares.

    The generators are built as pairs of plain (i, j) tuples, x^n - y^n as
    ((n, 0), (0, n)), and go straight to _binomial_buchberger, which does no
    field arithmetic: p enters only through q.  No FpPoly or Monomial is
    made, of them or of the basis (gb prints the pairs), and buchberger's
    input checks, which the three pass by construction, are not run.  Every
    check on the result runs: each generator must reduce to zero modulo the
    basis (_check_members), and the staircase must block both axes.
    """
    gens = [((q, 0), None), ((0, q), None), _relation(spec.n)]
    basis = _binomial_buchberger(gens, PAIR_BUDGET_DEFAULT)
    count = count_under_staircase([g[0] for g in basis])
    if count is None:
        # x^q and y^q are in the ideal, so both axes are always blocked
        raise RuntimeError("staircase misses a pure power: library bug")
    return basis, count


def _telescopes(spec: RingSpec, q: int, b: int) -> bool:
    """Whether x^n - y^n divides x^q - x^b y^(q-b), n from spec.

    Division by a single polynomial leaves a zero remainder exactly when it
    divides, and the quotient is then the ladder
    x^(q-n) + x^(q-2n) y^n + ... + x^b y^(q-b-n); the term reducer walks the
    ladder in one binomial jump instead of multiplying it out.
    """
    return _binomial_nf((q, 0), (b, q - b), [_binomial_rule(_relation(spec.n), ())]) is None


def _predicted_staircase(n: int, q: int, b: int) -> tuple[tuple, ...]:
    """The leads y^q, x^b y^(q-b), x^n of the predicted basis, ascending."""
    return (0, q), (b, q - b), (n, 0)


class BasisCheck(_Value):
    """Outcome of verify_closed_form_basis, one flag per sub-check."""

    __match_args__ = ("ok", "telescoping_ok", "spoly_ok", "staircase_ok",
                      "expected_staircase", "computed_staircase", "q", "b")

    def __init__(self, ok: bool, telescoping_ok: bool, spoly_ok: bool, staircase_ok: bool,
                 expected_staircase: tuple[Monomial, ...],
                 computed_staircase: tuple[Monomial, ...], q: int, b: int) -> None:
        fields = self.__dict__
        fields["ok"], fields["telescoping_ok"], fields["spoly_ok"] = ok, telescoping_ok, spoly_ok
        fields["staircase_ok"], fields["q"], fields["b"] = staircase_ok, q, b
        fields["expected_staircase"] = expected_staircase
        fields["computed_staircase"] = computed_staircase

    def __bool__(self) -> bool:
        return self.ok


def verify_closed_form_basis(
    spec: RingSpec, e: int, q_cap: int = Q_CAP_DEFAULT
) -> BasisCheck:
    """Check the predicted reduced basis {x^b y^(q-b), y^q, x^n - y^n} head-on.

    Requires q = p^e > n, with b = q mod n (so 1 <= b <= n-1).  Three
    independent checks:

    (a) telescoping: x^q - x^b y^(q-b) equals
        (x^(q-n) + x^(q-2n) y^n + ... + x^b y^(q-b-n)) * (x^n - y^n),
        so swapping x^q for x^b y^(q-b) leaves the ideal unchanged.  Checked
        by exact division (see _telescopes), at a cost independent of q;
    (b) all three S-polynomials of the predicted basis reduce to zero modulo
        it (Buchberger's criterion, so the predicted set is a Groebner basis):
        the two with x^n - y^n are reduced, and that of the monomials
        x^b y^(q-b) and y^q is zero by definition;
    (c) Buchberger run on the raw generators lands on the staircase
        (y^q, x^b y^(q-b), x^n): pairwise indivisible because q > n > b >= 1,
        and listed in ascending lex order, as _colength returns the basis.
    The checks run on plain pairs, and both staircases are returned as Monomials.
    """
    q = capped_q(spec.p, e, q_cap)
    n = spec.n
    if q <= n:
        raise ValueError(f"need q > n, got q = {q} and n = {n}")
    basis = _colength(spec, q)[0]
    telescoping_ok, spoly_ok, staircase_ok = _check_basis(spec, q, basis)
    b = q % n
    return BasisCheck(
        ok=telescoping_ok and spoly_ok and staircase_ok,
        telescoping_ok=telescoping_ok,
        spoly_ok=spoly_ok,
        staircase_ok=staircase_ok,
        expected_staircase=tuple([_new(Monomial, m) for m in _predicted_staircase(n, q, b)]),
        computed_staircase=tuple([_new(Monomial, g[0]) for g in basis]),
        q=q,
        b=b,
    )


def _check_basis(spec: RingSpec, q: int, basis: Sequence[tuple]) -> tuple[bool, bool, bool]:
    """The flags (a), (b), (c) of verify_closed_form_basis, for a q = p^e > n
    already built, as by capped_q, and the pairs _colength computed for it.
    The CLI reads these flags alone, so no BasisCheck is built per row."""
    n = spec.n
    b = q % n
    telescoping_ok = _telescopes(spec, q, b)
    predicted = [((b, q - b), None), ((0, q), None), relation := _relation(n)]
    rules = _binomial_rules(predicted)
    # the S-pairs with x^n - y^n; that of the two monomials is zero by definition
    spoly_ok = not any(
        _binomial_s_pair(_lcm(f[0], relation[0]), f, relation, rules) for f in predicted[:2]
    )
    return telescoping_ok, spoly_ok, tuple([g[0] for g in basis]) == _predicted_staircase(n, q, b)

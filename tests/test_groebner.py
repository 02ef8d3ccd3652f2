import heapq
import importlib
import itertools
import json
import sys
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from hkkit import cli, groebner
from hkkit.cli import _generators
from hkkit.closed_form import RingSpec, hk_value
from hkkit.groebner import (
    BasisCheck,
    CharacteristicMismatchError,
    FpPoly,
    GroebnerBasis,
    Monomial,
    PairBudgetExceededError,
    QCapExceededError,
    buchberger,
    capped_q,
    count_under_staircase,
    frobenius_power_generators,
    hk_brute,
    reduce,
    s_polynomial,
    verify_closed_form_basis,
)
from hkkit.numtheory import _MR_CERTIFIED_BOUND, is_prime

X = Monomial(1, 0)
Y = Monomial(0, 1)


def mono_poly(p, i, j, c=1):
    return FpPoly(p, {Monomial(i, j): c})


class TestMonomial:
    def test_order_is_lex_x_over_y(self):
        assert Monomial(2, 0) > Monomial(1, 9)
        assert Monomial(1, 3) > Monomial(1, 2)
        assert Monomial(0, 5) < Monomial(1, 0)
        assert max([Monomial(0, 9), Monomial(3, 1), Monomial(3, 0)]) == Monomial(3, 1)

    def test_divides(self):
        assert Monomial(1, 2).divides(Monomial(3, 2))
        assert not Monomial(1, 2).divides(Monomial(3, 1))
        assert Monomial(0, 0).divides(Monomial(0, 0))

    def test_lcm_mul_div(self):
        a, b = Monomial(3, 1), Monomial(2, 5)
        assert a.lcm(b) == Monomial(3, 5)
        assert a.mul(b) == Monomial(5, 6)
        assert Monomial(3, 5).div(a) == Monomial(0, 4)
        with pytest.raises(ValueError):
            a.div(b)

    def test_str_forms(self):
        assert str(Monomial(0, 0)) == "1"
        assert str(Monomial(1, 0)) == "x"
        assert str(Monomial(0, 1)) == "y"
        assert str(Monomial(2, 1)) == "x^2*y"
        assert str(Monomial(1, 3)) == "x*y^3"


class TestFpPoly:
    def test_normalizes_coefficients(self):
        f = FpPoly(5, {Monomial(1, 0): 7, Monomial(0, 1): -1})
        assert f.terms == {Monomial(1, 0): 2, Monomial(0, 1): 4}

    def test_drops_zero_terms(self):
        f = FpPoly(3, {Monomial(1, 0): 3, Monomial(0, 0): 1})
        assert f.terms == {Monomial(0, 0): 1}
        assert FpPoly(3, {}).is_zero()

    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            FpPoly(4, {Monomial(0, 0): 1})
        with pytest.raises(ValueError):
            FpPoly(1, {})

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            FpPoly(3, {Monomial(-1, 0): 1})

    def test_char2_addition_collapses(self):
        relation = FpPoly(2, {Monomial(3, 0): 1, Monomial(0, 3): -1})  # x^3 + y^3
        assert relation.terms == {Monomial(3, 0): 1, Monomial(0, 3): 1}
        cube = mono_poly(2, 0, 3)
        assert relation - cube == mono_poly(2, 3, 0)
        assert cube - mono_poly(2, 3, 0) == relation  # minus is plus
        assert (relation - relation).is_zero()

    def test_leading_term(self):
        f = FpPoly(3, {Monomial(5, 0): 1, Monomial(0, 5): -1})
        assert f.leading_term() == (Monomial(5, 0), 1)
        with pytest.raises(ValueError):
            FpPoly(3, {}).leading_term()

    def test_mul_monomial_distributes(self):
        f = FpPoly(5, {Monomial(1, 0): 1, Monomial(0, 1): -1})  # x - y
        assert f.mul_monomial(Monomial(0, 2)) == FpPoly(
            5, {Monomial(1, 2): 1, Monomial(0, 3): -1}
        )
        assert f.mul_monomial(Monomial(0, 0), 0).is_zero()

    @pytest.mark.parametrize("coeff", [0, 1])
    def test_mul_monomial_rejects_negative_exponent_for_any_coefficient(self, coeff):
        # the exponent is checked even where the product would be zero
        f = FpPoly(5, {Monomial(1, 0): 1})
        with pytest.raises(ValueError, match="negative exponent"):
            f.mul_monomial((-1, 0), coeff)

    def test_monic_scales_by_inverse(self):
        f = FpPoly(5, {Monomial(1, 0): 2, Monomial(0, 1): 1})
        assert f.monic() == FpPoly(5, {Monomial(1, 0): 1, Monomial(0, 1): 3})

    def test_mixed_characteristic_rejected(self):
        with pytest.raises(CharacteristicMismatchError):
            mono_poly(2, 1, 0) - mono_poly(3, 1, 0)
        with pytest.raises(CharacteristicMismatchError):
            mono_poly(5, 1, 0) - mono_poly(2, 1, 0)

    def test_str_rendering(self):
        assert str(FpPoly(2, {})) == "0"
        f = FpPoly(3, {Monomial(0, 0): 1, Monomial(1, 1): 2, Monomial(3, 0): 1})
        assert str(f) == "x^3 + 2*x*y + 1"

    def test_equal_after_reduction_mod_p(self):
        assert FpPoly(5, {Monomial(1, 2): 3}) == FpPoly(5, {Monomial(1, 2): -2})
        assert FpPoly(5, {Monomial(1, 2): 3}) != FpPoly(7, {Monomial(1, 2): 3})


@st.composite
def poly_pair(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    monos = st.tuples(
        st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)
    )
    coeffs = st.integers(min_value=1, max_value=p - 1) if p > 2 else st.just(1)
    d1 = draw(st.dictionaries(monos, coeffs, max_size=4))
    d2 = draw(st.dictionaries(monos, coeffs, max_size=4))
    return FpPoly(p, d1), FpPoly(p, d2)


def product(f, g):
    """f * g, multiplied out term by term; FpPoly itself has no product."""
    out = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            mono = m1.mul(m2)
            out[mono] = out.get(mono, 0) + c1 * c2
    return FpPoly(f.p, out)


class TestPolyAlgebra:
    @given(poly_pair())
    def test_product_reduces_to_zero_mod_factor(self, pair):
        f, g = pair
        if g.is_zero():
            return
        assert reduce(product(f, g), [g]).is_zero()


class TestLeadingTermCache:
    """leading_term is read once and kept; it must stay the largest term's."""

    @given(poly_pair())
    def test_cached_lead_is_the_largest_term(self, pair):
        f, g = pair
        for operand in (f, g):  # an operand's kept lead must not leak into results
            if not operand.is_zero():
                operand.leading_term()
        results = [f - g, g - f, f.mul_monomial(Monomial(1, 2), 3),
                   f.mul_monomial(Monomial(0, 0), 0), FpPoly._raw(f.p, dict(f.terms)),
                   FpPoly(f.p, f.terms)]
        if not f.is_zero():
            results.append(f.monic())
        if not g.is_zero():
            results.append(reduce(f, [g]))
        for h in results:
            if h.is_zero():
                for _ in range(2):
                    with pytest.raises(ValueError, match="zero polynomial"):
                        h.leading_term()
                continue
            unread = FpPoly(h.p, h.terms)
            top = max(h.terms)
            for _ in range(2):
                assert h.leading_term() == (top, h.terms[top])
            assert h == unread and unread == h
            assert unread.leading_term() == h.leading_term()


class TestSPolynomial:
    def test_predicted_basis_pair_cancels_exactly(self):
        # b = 2, q = 8, p = 3: the mixed generator against the pure y power
        f = mono_poly(3, 2, 6)
        g = mono_poly(3, 0, 8)
        assert s_polynomial(f, g).is_zero()

    def test_mixed_generator_against_relation(self):
        # b = 3, q = 8, n = 5, p = 2
        f = mono_poly(2, 3, 5)
        relation = FpPoly(2, {Monomial(5, 0): 1, Monomial(0, 5): -1})
        assert s_polynomial(f, relation) == mono_poly(2, 0, 10)

    def test_pure_power_against_relation(self):
        g = mono_poly(2, 0, 8)
        relation = FpPoly(2, {Monomial(5, 0): 1, Monomial(0, 5): -1})
        assert s_polynomial(g, relation) == mono_poly(2, 0, 13)

    def test_makes_inputs_monic_first(self):
        f = FpPoly(5, {Monomial(2, 0): 3, Monomial(0, 1): 1})
        g = FpPoly(5, {Monomial(1, 1): 2})
        s = s_polynomial(f, g)
        # (x^2 y) / (3 x^2) * f - (x^2 y)/(2 x y) * g = x^2 y + 2 y^2 - x^2 y
        assert s == FpPoly(5, {Monomial(0, 2): 2})

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            s_polynomial(FpPoly(2, {}), mono_poly(2, 1, 0))

    def test_mixed_characteristic_rejected(self):
        with pytest.raises(CharacteristicMismatchError):
            s_polynomial(mono_poly(2, 1, 0), mono_poly(3, 0, 1))


class TestReduce:
    def test_pure_power_swallows_spolynomials(self):
        basis = [
            mono_poly(2, 3, 5),
            mono_poly(2, 0, 8),
            FpPoly(2, {Monomial(5, 0): 1, Monomial(0, 5): -1}),
        ]
        assert reduce(mono_poly(2, 0, 10), basis).is_zero()

    def test_self_reduction_vanishes(self):
        f = FpPoly(3, {Monomial(2, 1): 2, Monomial(0, 0): 1})
        assert reduce(f, [f]).is_zero()

    def test_unrelated_leading_monomial_is_inert(self):
        assert reduce(mono_poly(2, 1, 0), [mono_poly(2, 0, 1)]) == mono_poly(2, 1, 0)

    def test_zero_reduces_to_zero(self):
        assert reduce(FpPoly(5, {}), [mono_poly(5, 1, 0)]).is_zero()

    def test_first_divisor_in_list_order_wins(self):
        x = mono_poly(3, 1, 0)
        x_minus_y = FpPoly(3, {Monomial(1, 0): 1, Monomial(0, 1): -1})
        assert reduce(x, [x_minus_y, x]) == mono_poly(3, 0, 1)
        assert reduce(x, [x, x_minus_y]).is_zero()

    def test_zero_basis_element_rejected(self):
        with pytest.raises(ValueError):
            reduce(mono_poly(2, 1, 0), [FpPoly(2, {})])

    def test_result_is_in_normal_form(self):
        basis = [
            FpPoly(3, {Monomial(2, 0): 1, Monomial(0, 1): 1}),
            FpPoly(3, {Monomial(0, 3): 1, Monomial(1, 0): 2}),
        ]
        lead = [g.leading_term()[0] for g in basis]
        out = reduce(FpPoly(3, {Monomial(4, 4): 1, Monomial(1, 1): 2}), basis)
        for mono in out.terms:
            assert not any(lm.divides(mono) for lm in lead)


def lead_of(g):
    """g's leading term by max(), never through leading_term's kept value."""
    mono = max(g.terms)
    return mono, g.terms[mono]


def reduce_stepwise(f, basis):
    """Reference normal form that reduce must match term for term.

    One rewrite per loop, no jumps: the largest monomial, by the first basis
    element (in list order) whose leading monomial divides it.
    """
    leads = [lead_of(g) for g in basis]
    p = f.p
    work = dict(f.terms)
    out = {}
    while work:
        mono = max(work)
        coeff = work.pop(mono)
        for g, (lm, lc) in zip(basis, leads):
            if lm.divides(mono):
                factor = (coeff * pow(lc, -1, p)) % p
                shift = mono.div(lm)
                for m2, c2 in g.terms.items():
                    if m2 == lm:
                        continue
                    key = m2.mul(shift)
                    c = (work.get(key, 0) - factor * c2) % p
                    if c:
                        work[key] = c
                    else:
                        work.pop(key, None)
                break
        else:
            out[mono] = coeff
    return FpPoly(p, out)


def small_polys(p, max_exp, max_terms, min_terms=1):
    monos = st.tuples(
        st.integers(min_value=0, max_value=max_exp),
        st.integers(min_value=0, max_value=max_exp),
    )
    coeffs = st.integers(min_value=1, max_value=p - 1)
    return st.dictionaries(monos, coeffs, min_size=min_terms, max_size=max_terms).map(
        lambda d: FpPoly(p, d)
    )


def relation(p, n):
    return FpPoly(p, {Monomial(n, 0): 1, Monomial(0, n): -1})


def unit_binomials(p, max_exp):
    """Monomials c*m and differences c*(m1 - m2), c a unit mod p: the whole
    input domain of the oracle's engine.  Drawn as small_polys draws one or
    two terms, with the second coefficient then set to minus the first."""
    def difference(g):
        (m1, c), *rest = g.terms.items()
        return FpPoly(p, {m1: c, **{m2: -c for m2, _ in rest}})

    return small_polys(p, max_exp, 2).map(difference)


def pair(g):
    """g, a monomial or a unit multiple of a difference of two monomials, as
    the pair (lead, tail) of the oracle's binomial path, which stands for
    lead - tail."""
    assert len(g.terms) == 1 or sum(g.terms.values()) % g.p == 0, g
    return lead_of(g)[0], min(g.terms) if len(g.terms) == 2 else None


def chain_length_stepwise(mono, lm, di, dj, earlier):
    """First k >= 1 at which the chain from mono stops, by walking it."""
    k = 1
    while True:
        m = Monomial(mono.i + k * di, mono.j + k * dj)
        if not lm.divides(m) or any(lead.divides(m) for lead in earlier):
            return k
        k += 1


class TestBinomialChainJump:
    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_chain_length_matches_walking_the_chain(self, data):
        monos = st.builds(Monomial, st.integers(0, 12), st.integers(0, 12))
        lm = data.draw(monos.filter(lambda m: m > Monomial(0, 0)))
        tail = data.draw(monos.filter(lambda m: m < lm))
        mono = lm.mul(data.draw(monos))
        earlier = data.draw(st.lists(monos.filter(lambda m: not m.divides(mono)), max_size=3))
        di, dj = tail.i - lm.i, tail.j - lm.j
        assert groebner._chain_length(mono, lm, di, dj, earlier) == (
            chain_length_stepwise(mono, lm, di, dj, earlier)
        )

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_stepwise_reference(self, data):
        # monomial, binomial and trinomial reducers, several per basis, so
        # chains get cut by earlier leads and land on waiting terms
        p = data.draw(st.sampled_from((2, 3, 5, 7)))
        basis = data.draw(st.lists(small_polys(p, 8, 3), min_size=1, max_size=4))
        f = data.draw(small_polys(p, 16, 6))
        assert reduce(f, basis).terms == reduce_stepwise(f, basis).terms

    @pytest.mark.parametrize(
        "p, basis, f, expected",
        [
            # the earlier lead x^4*y^2 divides x^4*y^3, one step into the
            # chain; running on past it would leave 4*x^2*y^5
            (5, [{(4, 2): 1}, {(4, 0): 1, (2, 2): 1}], {(6, 1): 4}, {}),
            # the chain lands on a waiting term and merges with it
            (5, [{(2, 0): 1, (0, 2): -1}], {(7, 0): 1, (1, 6): 2}, {(1, 6): 3}),
            # ... or cancels it
            (5, [{(2, 0): 1, (0, 2): -1}], {(7, 0): 1, (1, 6): -1}, {}),
            # the chain drops past a waiting term's column
            (5, [{(2, 0): 1, (0, 2): -1}], {(7, 0): 1, (4, 1): 3},
             {(1, 6): 1, (0, 5): 3}),
            # the chain enters a waiting term's column below it
            (5, [{(2, 0): 1, (0, 2): -1}], {(7, 0): 1, (3, 5): 3},
             {(1, 7): 3, (1, 6): 1}),
            # a tail in the lead's column: the chain moves down in y only
            (3, [{(0, 3): 1, (0, 1): 1}], {(2, 11): 1, (2, 4): 1},
             {(2, 2): 2, (2, 1): 2}),
            # a one-step chain: the first rewrite already leaves x^2's
            # multiples, so the jump skips nothing
            (5, [{(2, 0): 1, (0, 2): -1}], {(3, 0): 1}, {(1, 2): 1}),
        ],
    )
    def test_chain_edge_cases(self, p, basis, f, expected):
        basis = [FpPoly(p, g) for g in basis]
        out = reduce(FpPoly(p, f), basis)
        assert out == reduce_stepwise(FpPoly(p, f), basis)
        assert out == FpPoly(p, expected)

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_term_reducer_matches_stepwise_reference(self, data):
        # the binomial path's normal form: monomial and binomial reducers,
        # several per basis, and a difference of two terms that may cancel
        p = data.draw(st.sampled_from((2, 3, 5, 7)))
        basis = data.draw(st.lists(unit_binomials(p, 8), min_size=1, max_size=4))
        f = data.draw(unit_binomials(p, 16))
        rules = groebner._binomial_rules([pair(g) for g in basis])
        got = groebner._binomial_nf(*pair(f), rules)
        expected = reduce_stepwise(f, basis)
        if expected.is_zero():
            assert got is None
        else:
            assert as_poly(p, got) == expected.monic()

    def test_chain_of_2_pow_60_steps_is_one_jump(self):
        # far too long to walk step by step: about q/7 rewrites of x^q
        q = 2**60
        b = q % 7
        assert reduce(mono_poly(2, q, 0), [relation(2, 7)]) == mono_poly(2, b, q - b)
        # an earlier lead y^(q-14) cuts the chain one step before its end
        cut = [mono_poly(2, 0, q - 14), relation(2, 7)]
        assert reduce(mono_poly(2, q, 0), cut).is_zero()


def buchberger_reference(gens):
    """Textbook Buchberger that buchberger must match, and the pairs it processed.

    The same pair queue (smallest lcm of leads first, then the index pair,
    coprime leads skipped) and the same final pass, but every S-polynomial
    comes from s_polynomial, every remainder from reduce_stepwise and every
    lead it reads itself from max(): no rewrite rules and no kept leads.
    """
    p = gens[0].p

    def monic(g):
        inv = pow(lead_of(g)[1], -1, p)
        return FpPoly(p, {m: c * inv for m, c in g.terms.items()})

    basis, heap = [], []

    def push_pairs(new):
        lm_new = lead_of(basis[new])[0]
        for k in range(new):
            lm_k = lead_of(basis[k])[0]
            if min(lm_k.i, lm_new.i) or min(lm_k.j, lm_new.j):
                heapq.heappush(heap, (lm_k.lcm(lm_new), k, new))

    for g in gens:
        basis.append(monic(g))
        push_pairs(len(basis) - 1)
    processed = 0
    while heap:
        _, a, b = heapq.heappop(heap)
        processed += 1
        remainder = reduce_stepwise(s_polynomial(basis[a], basis[b]), basis)
        if not remainder.is_zero():
            basis.append(monic(remainder))
            push_pairs(len(basis) - 1)
    minimal = []
    for g in sorted(basis, key=lambda g: lead_of(g)[0]):
        if not any(lead_of(k)[0].divides(lead_of(g)[0]) for k in minimal):
            minimal.append(g)
    final = [reduce_stepwise(g, minimal[:idx] + minimal[idx + 1:])
             for idx, g in enumerate(minimal)]
    return GroebnerBasis(tuple(final), tuple(lead_of(g)[0] for g in final)), processed


def assert_matches_reference(gens):
    expected, processed = buchberger_reference(gens)
    assert buchberger(gens, pair_budget=processed) == expected
    if processed:
        with pytest.raises(PairBudgetExceededError):
            buchberger(gens, pair_budget=processed - 1)


class TestBuchbergerMatchesReference:
    # p = 2 always runs: there -1 == 1, so the subtracted half of an
    # S-polynomial cannot be told apart by its sign
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_small_ideals(self, p, data):
        # one trinomial among up to three monomials, binomials and
        # trinomials, so both kinds of rule and chains cut by earlier leads
        # all occur
        gens = data.draw(st.lists(small_polys(p, 5, 3), max_size=3), label="gens")
        at = data.draw(st.integers(0, len(gens)), label="at")
        gens.insert(at, data.draw(small_polys(p, 5, 3, min_terms=3), label="trinomial"))
        assert_matches_reference(gens)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_small_binomial_ideals(self, p, data):
        # monomials and binomials only, the oracle's kind of generator
        assert_matches_reference(data.draw(st.lists(small_polys(p, 5, 2), min_size=1,
                                                    max_size=4), label="gens"))

    # the benchmark's oracle box: p <= 13, n <= 40, q <= 2^17
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_frobenius_power_generators(self, p, data):
        n = data.draw(st.integers(2, 40).filter(lambda n: n % p), label="n")
        e = data.draw(st.sampled_from([e for e in range(18) if p**e <= 2**17]), label="e")
        assert_matches_reference(frobenius_power_generators(RingSpec(p, n), e))


def basis_or_error(run, gens, pair_budget):
    try:
        return run(gens, pair_budget)
    except PairBudgetExceededError as exc:
        return str(exc)


def as_poly(p, g):
    """The FpPoly over F_p that the oracle's pair (lead, tail) stands for:
    lead - tail, or lead alone when tail is None."""
    lead, tail = g
    return FpPoly(p, {lead: 1} if tail is None else {lead: 1, tail: -1})


def as_polys(p, pairs):
    """The generators and staircase a GroebnerBasis over F_p would hold for
    the oracle's pairs: each pair as an FpPoly (as_poly), and the leads."""
    return tuple(as_poly(p, g) for g in pairs), tuple(g[0] for g in pairs)


class TestBinomialPathMatchesDictPath:
    """The oracle's engine on pairs against buchberger, which keeps dicts of
    terms (FpPolys), does field arithmetic and shares no reducer with it."""

    # p = 2 matters: there -1 == 1, so lead - tail and lead + tail are one
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_basis_and_budget(self, data):
        p = data.draw(st.sampled_from((2, 3, 5, 7, 11, 13)), label="p")
        gens = data.draw(st.lists(unit_binomials(p, 8), min_size=1, max_size=4), label="gens")
        budget = data.draw(st.integers(0, 40), label="pair_budget")

        def binomial_engine(gens, pair_budget):
            return as_polys(p, groebner._binomial_buchberger([pair(g) for g in gens],
                                                             pair_budget))

        def general_engine(gens, pair_budget):
            gb = buchberger(gens, pair_budget)
            # the premise of the pairs, checked with field arithmetic: the basis
            # holds only monomials and differences lead + (p-1)*tail
            for g in gb.generators:
                assert [g.terms[m] for m in sorted(g.terms, reverse=True)] in (
                    [1], [1, p - 1]), g
            return gb.generators, gb.staircase

        assert basis_or_error(binomial_engine, gens, budget) == (
            basis_or_error(general_engine, gens, budget))

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_own_rule_never_fires(self, data):
        # _binomial_buchberger tail-reduces each survivor against every rule,
        # its own included: the walk from the tail stays below the lead, so
        # the result must be that against the other rules alone
        p = data.draw(st.sampled_from((2, 3, 5, 7, 11, 13)), label="p")
        gens = data.draw(st.lists(unit_binomials(p, 8), min_size=1, max_size=4), label="gens")
        basis, leads = groebner._binomial_pair_loop([pair(g) for g in gens],
                                                    groebner.PAIR_BUDGET_DEFAULT)
        minimal = groebner._minimal(basis, leads)
        rules = groebner._binomial_rules(minimal)
        for idx, (_, tail) in enumerate(minimal):
            if tail is not None:
                assert groebner._reduce_term(tail, rules) == (
                    groebner._reduce_term(tail, rules[:idx] + rules[idx + 1:]))


# the benchmark's oracle box as (p, n, e): p <= 13, 2 <= n <= 40 coprime to p,
# q = p^e <= 2^17; CI's oracle sweep runs every row
ORACLE_BOX = [(p, n, e) for p in (2, 3, 5, 7, 11, 13) for n in range(2, 41) if n % p
              for e in range(18) if p**e <= 2**17]


class TestMonomialPairsAreNotReduced:
    """The S-polynomial of two monomials is lcm - lcm = 0, so neither the
    pair loop nor _check_basis reduces one: no normal form over the
    benchmark's oracle box (p <= 13, n <= 40 coprime to p, q <= 2^17) is
    asked of two zeros.  test_same_basis_and_budget and
    TestBuchbergerMatchesReference show that such pairs are still counted."""

    def test_no_normal_form_of_two_zeros(self, monkeypatch):
        honest, calls = groebner._binomial_nf, []

        def recording_nf(a, b, rules):
            calls.append((a, b))
            return honest(a, b, rules)

        monkeypatch.setattr(groebner, "_binomial_nf", recording_nf)
        rows = [(RingSpec(p, n), p**e) for p, n, e in ORACLE_BOX]
        for spec, q in rows:
            basis = groebner._colength(spec, q)[0]
            if q > spec.n:
                assert groebner._check_basis(spec, q, basis) == (True, True, True)
        assert len(rows) == 1474 and calls
        assert (None, None) not in calls


# the largest e with p^e <= 2^4096, per prime the oracle tests draw from
MAX_E_4096 = {p: max(e for e in range(4097) if p**e <= 2**4096) for p in (2, 3, 5, 7, 11, 13)}


@st.composite
def frobenius_rings(draw):
    """(RingSpec(p, n), e): n in 2..60 coprime to p, q = p^e up to 2^4096."""
    p = draw(st.sampled_from(sorted(MAX_E_4096)), label="p")
    n = draw(st.integers(2, 60).filter(lambda n: n % p), label="n")
    e = draw(st.integers(0, MAX_E_4096[p]), label="e")
    return RingSpec(p, n), e


def assert_colength_matches_buchberger(spec, e):
    expected = buchberger(frobenius_power_generators(spec, e))
    pairs, count = groebner._colength(spec, spec.p**e)
    assert as_polys(spec.p, pairs) == (expected.generators, expected.staircase)
    assert count == count_under_staircase(expected.staircase)


class TestColengthMatchesBuchberger:
    """_colength builds the generators as pairs, skips buchberger's input
    checks and returns its basis as pairs; as FpPolys (as_poly) and leads,
    that basis must equal the one buchberger computes from the generator
    FpPolys, and its count that basis's count."""

    @given(ring=frobenius_rings())
    @example(ring=(RingSpec(2, 7), 65536))  # one chain of about 2^65536/7 rewrites
    @example(ring=(RingSpec(3, 10), 2))  # q < n: x^n - y^n drops out of the basis
    @example(ring=(RingSpec(13, 60), 0))  # q = 1: the basis is x, y
    @settings(max_examples=300, deadline=None)
    def test_same_basis_and_count(self, ring):
        assert_colength_matches_buchberger(*ring)

    # a large characteristic, where a coefficient left in the oracle's engine,
    # or a fault in buchberger's inverses, would show: p - 1 is no small unit
    @pytest.mark.parametrize("p, e", [(10007, 1), (10007, 2), (10007, 3),
                                      (2**61 - 1, 1), (2**61 - 1, 2)])
    def test_large_characteristic(self, p, e):
        for n in range(2, 41):
            assert_colength_matches_buchberger(RingSpec(p, n), e)

    def test_member_check_refuses_a_wrong_basis(self, monkeypatch):
        # x^5 - y^6 in place of x^5 - y^5 over F_3: x^27 and y^27 still reduce
        # to zero modulo the basis, the binomial generator x^5 - y^5 does not
        honest = groebner._minimal

        def corrupt(basis, leads):
            return [g if g[1] is None else (g[0], (g[1][0], g[1][1] + 1))
                    for g in honest(basis, leads)]

        monkeypatch.setattr(groebner, "_minimal", corrupt)
        with pytest.raises(RuntimeError, match="input generator fails to reduce to zero"):
            hk_brute(RingSpec(3, 5), 3)


class TestBuchberger:
    @pytest.mark.parametrize("gens", [
        # three generators with a trinomial over F_5, and the Frobenius ones
        [FpPoly(5, {(3, 0): 1, (1, 1): 2, (0, 2): 3}), FpPoly(5, {(0, 4): 1, (2, 0): 4}),
         FpPoly(5, {(2, 2): 1, (0, 1): 1})],
        frobenius_power_generators(RingSpec(3, 10), 6)])
    def test_each_rule_built_once_per_run(self, monkeypatch, gens):
        # one rule per element the basis gains, one more per survivor of
        # _minimal for the final pass, and one per element of the result for
        # the member check; none per S-pair
        general = importlib.import_module("hkkit.groebner_general")
        honest_rule, honest_s = general._rule, general.s_polynomial
        made, pairs = [], []  # made keeps each polynomial alive, so ids stay unique

        def counted_rule(g, earlier):
            made.append(g)
            return honest_rule(g, earlier)

        def counted_s(f, g):
            pairs.append((f, g))
            return honest_s(f, g)

        expected = buchberger(gens)
        monkeypatch.setattr(general, "_rule", counted_rule)
        monkeypatch.setattr(general, "s_polynomial", counted_s)
        gb = buchberger(gens)
        assert gb == expected
        times = Counter(id(g) for g in made)
        assert [times[id(g)] for g in gb.generators] == [1] * len(gb.generators)
        assert set(times.values()) == {1, 2}
        assert len(made) == len(times) + len(gb.generators)
        assert pairs

    def test_frobenius_generators_give_predicted_staircase(self):
        gb = buchberger(frobenius_power_generators(RingSpec(2, 3), 2))
        assert gb.staircase == (Monomial(0, 4), Monomial(1, 3), Monomial(3, 0))
        assert count_under_staircase(gb.staircase) == 10

    def test_single_generator_returned_monic(self):
        f = FpPoly(5, {Monomial(3, 0): 2, Monomial(0, 3): 3})
        gb = buchberger([f])
        assert gb.generators == (FpPoly(5, {Monomial(3, 0): 1, Monomial(0, 3): 4}),)
        assert gb.staircase == (Monomial(3, 0),)

    def test_monomial_ideal_is_its_own_basis(self):
        gens = [mono_poly(7, 2, 0), mono_poly(7, 1, 1), mono_poly(7, 0, 2)]
        gb = buchberger(gens)
        assert gb.staircase == (Monomial(0, 2), Monomial(1, 1), Monomial(2, 0))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            buchberger([])

    def test_zero_generator_rejected(self):
        with pytest.raises(ValueError):
            buchberger([mono_poly(2, 1, 0), FpPoly(2, {})])

    def test_mixed_characteristic_rejected(self):
        with pytest.raises(CharacteristicMismatchError):
            buchberger([mono_poly(2, 1, 0), mono_poly(3, 0, 1)])

    def test_pair_budget_is_a_hard_stop(self):
        gens = [mono_poly(5, 2, 1), mono_poly(5, 1, 2)]
        with pytest.raises(PairBudgetExceededError):
            buchberger(gens, pair_budget=0)

    def test_permutations_give_identical_output(self):
        gens = frobenius_power_generators(RingSpec(3, 5), 3)
        expected = buchberger(gens)
        for perm in itertools.permutations(gens):
            assert buchberger(list(perm)) == expected

    def test_output_is_reduced(self):
        gb = buchberger(frobenius_power_generators(RingSpec(2, 5), 3))
        lead = [g.leading_term()[0] for g in gb.generators]
        assert lead == sorted(lead)
        for idx, g in enumerate(gb.generators):
            assert g.leading_term()[1] == 1
            others = lead[:idx] + lead[idx + 1 :]
            for mono in g.terms:
                assert not any(lm.divides(mono) for lm in others)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_buchberger_certificates(self, data):
        p = data.draw(st.sampled_from((2, 3, 5)))
        monos = st.tuples(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=4),
        )
        coeffs = st.integers(min_value=1, max_value=p - 1) if p > 2 else st.just(1)
        gens = data.draw(
            st.lists(
                st.dictionaries(monos, coeffs, min_size=1, max_size=3).map(
                    lambda d: FpPoly(p, d)
                ),
                min_size=1,
                max_size=3,
            )
        )
        gb = buchberger(gens)
        basis = list(gb.generators)
        # ideal containment one way: inputs vanish modulo the basis
        for g in gens:
            assert reduce(g, basis).is_zero()
        # Buchberger's criterion holds post hoc
        for f, g in itertools.combinations(basis, 2):
            assert reduce(s_polynomial(f, g), basis).is_zero()
        # staircase is minimal: pairwise incomparable
        for a, b in itertools.combinations(gb.staircase, 2):
            assert not a.divides(b)
            assert not b.divides(a)


class TestStandardMonomialCount:
    def test_hand_counted_staircases(self):
        assert count_under_staircase([Monomial(1, 3), Monomial(0, 4), Monomial(3, 0)]) == 10
        assert count_under_staircase([Monomial(1, 0), Monomial(0, 1)]) == 1
        assert count_under_staircase([Monomial(2, 0)]) is None
        assert count_under_staircase([Monomial(0, 2)]) is None
        assert count_under_staircase([Monomial(0, 0)]) == 0

    def test_box_staircase(self):
        assert count_under_staircase([Monomial(3, 0), Monomial(0, 4)]) == 12

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),
                st.integers(min_value=0, max_value=6),
            ).map(lambda t: Monomial(*t)),
            min_size=1,
            max_size=5,
        )
    )
    def test_agrees_with_lattice_enumeration(self, monos):
        got = count_under_staircase(monos)
        has_x = any(m.j == 0 for m in monos)
        has_y = any(m.i == 0 for m in monos)
        if not (has_x and has_y):
            assert got is None
            return
        bound = 13  # exponents cap at 6, so nothing outside a 13x13 box survives
        brute = sum(
            1
            for i in range(bound)
            for j in range(bound)
            if not any(m.divides(Monomial(i, j)) for m in monos)
        )
        assert got == brute

    def test_predicted_staircase_identity_exhaustive(self):
        # staircase {x^b y^(q-b), y^q, x^n} pins n*q - b*(n-b) lattice points
        for n in range(2, 13):
            for q in range(n + 1, 65):
                for b in range(1, n):
                    count = count_under_staircase(
                        [Monomial(b, q - b), Monomial(0, q), Monomial(n, 0)]
                    )
                    assert count == n * q - b * (n - b), (n, q, b)


class TestHKBrute:
    def test_known_colengths(self):
        assert hk_brute(RingSpec(2, 5), 3) == 34
        assert hk_brute(RingSpec(3, 4), 1) == 9
        assert hk_brute(RingSpec(2, 15), 4) == 226

    def test_tiny_q_cases(self):
        assert hk_brute(RingSpec(2, 5), 0) == 1
        assert hk_brute(RingSpec(5, 3), 1) == hk_value(RingSpec(5, 3), 1)

    def test_cap_is_inclusive(self):
        spec = RingSpec(2, 5)
        assert hk_brute(spec, 9, q_cap=512) == hk_value(spec, 9)
        with pytest.raises(QCapExceededError):
            hk_brute(spec, 10, q_cap=512)

    def test_cap_error_carries_details(self):
        with pytest.raises(QCapExceededError) as info:
            hk_brute(RingSpec(2, 5), 4, q_cap=8)
        assert info.value.q == 16
        assert info.value.q_cap == 8

    def test_cap_check_never_builds_p_to_the_e(self):
        # p^e here would have 3 * 10^10 digits; the check must stop at the cap
        for check in (hk_brute, verify_closed_form_basis):
            with pytest.raises(QCapExceededError) as info:
                check(RingSpec(2, 5), 10**11)
            assert (info.value.p, info.value.e, info.value.q_cap) == (2, 10**11, 512)
            assert str(info.value) == "q = 2^100000000000 exceeds the oracle cap 512"

    @pytest.mark.parametrize("p, n, e", [(2, 3, 20), (10007, 3, 2), (2, 7, 60)])
    def test_large_q_agrees_with_closed_form(self, p, n, e):
        spec = RingSpec(p, n)
        assert hk_brute(spec, e, q_cap=p**e) == hk_value(spec, e)
        assert verify_closed_form_basis(spec, e, q_cap=p**e).ok

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="e must be nonnegative, got -1"):
            hk_brute(RingSpec(2, 5), -1)
        with pytest.raises(ValueError, match="q_cap must be positive, got 0"):
            hk_brute(RingSpec(2, 5), 1, q_cap=0)


def capped_q_by_steps(p, e, q_cap):
    """The cap rule one factor of p at a time: the reference capped_q must match."""
    if e < 0:
        raise ValueError(f"e must be nonnegative, got {e}")
    if q_cap < 1:
        raise ValueError(f"q_cap must be positive, got {q_cap}")
    q = 1
    for _ in range(e):
        q *= p
        if q > q_cap:
            raise QCapExceededError(p, e, q_cap)
    return q


def cap_outcome(check, p, e, q_cap):
    """q, or the type, text and attributes of the error check raises."""
    try:
        return check(p, e, q_cap)
    except ValueError as exc:  # QCapExceededError included
        return type(exc), str(exc), vars(exc)


# small primes, one of 14 bits, a Mersenne prime, and the primes just below
# the certified primality bound, which is about 2^81.5
CAP_PRIMES = [2, 3, 5, 7, 13, 10007, 2**61 - 1,
              *(m for m in range(_MR_CERTIFIED_BOUND - 300, _MR_CERTIFIED_BOUND) if is_prime(m))]


class TestCappedQ:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_matches_stepwise_reference(self, data):
        p = data.draw(st.sampled_from(CAP_PRIMES), label="p")
        k = data.draw(st.integers(0, 64), label="k")
        q_cap = p**k + data.draw(st.integers(-1, 1), label="offset")  # 0 once, at k = 0
        # e from the whole range, near k, and where the bit-length bound of
        # p^e first passes the cap's bit length
        edge = -(-q_cap.bit_length() // (p.bit_length() - 1))
        e = data.draw(st.one_of(st.integers(0, 64), st.integers(k - 1, k + 1),
                                st.integers(edge - 1, edge)), label="e")
        assert cap_outcome(capped_q, p, e, q_cap) == cap_outcome(capped_q_by_steps, p, e, q_cap)

    def test_cost_does_not_grow_with_e(self):
        # multiplying in one factor of p per step takes about 1.7 s here; a
        # bit-length test and one power take tens of ms
        spec, e = RingSpec(2, 7), 2**18
        expected = hk_value(spec, e)
        start = time.perf_counter()
        got = hk_brute(spec, e, q_cap=2**e)
        assert time.perf_counter() - start < 0.5
        assert got == expected


class TestPowerBuiltOnce:
    """The generators take q from capped_q, which has already built p^e."""

    # capped_q patched to answer 2^5 for p = 2, e = 3: generators that built
    # p^e again would give the colength at q = 8, 7*8 - 1*6 = 50, not 212
    SPEC, E, Q, COLENGTH = RingSpec(2, 7), 3, 32, 7 * 32 - 4 * 3

    def stand_in(self, p, e, q_cap):
        assert (p, e) == (self.SPEC.p, self.E)
        return self.Q

    def test_library_oracle(self, monkeypatch):
        monkeypatch.setattr(groebner, "capped_q", self.stand_in)
        assert hk_brute(self.SPEC, self.E) == self.COLENGTH
        check = verify_closed_form_basis(self.SPEC, self.E)
        assert (check.ok, check.q, check.b) == (True, self.Q, self.Q % self.SPEC.n)

    def test_gb_command(self, monkeypatch, capsys):
        # the cli reads capped_q off hkkit.groebner, which it loads on first use
        monkeypatch.setattr(groebner, "capped_q", self.stand_in)
        assert cli.main(["gb", "--p", "2", "--n", "7", "--e", "3", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["q"], doc["count"]) == (self.Q, self.COLENGTH)
        assert doc["staircase"] == [[0, self.Q], [4, self.Q - 4], [7, 0]]

    def test_verify_command(self, monkeypatch, capsys):
        # each row's q, from the cli's one capped_q call per row, serves both of
        # its oracle paths: the count below n and the basis check above it
        built, capped_q = [], groebner.capped_q

        def count(p, e, q_cap):
            if (p, e) in built:
                raise AssertionError(f"a verify row built {p}^{e} again")
            built.append((p, e))
            return capped_q(p, e, q_cap)

        monkeypatch.setattr(groebner, "capped_q", count)
        argv = ["verify", "--p", "2", "--n", "7", "--emax", "5", "--format", "json"]
        assert cli.main(argv) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [(r["q"], r["basis_check"], r["pass"]) for r in rows] == [
            (1, None, True), (2, None, True), (4, None, True),
            (8, True, True), (16, True, True), (32, True, True)]
        assert built == [(2, e) for e in range(6)]


class TestVerifyClosedFormBasis:
    def test_passes_on_known_instances(self):
        check = verify_closed_form_basis(RingSpec(2, 5), 3)
        assert check.ok and check.telescoping_ok and check.spoly_ok and check.staircase_ok
        assert check.q == 8
        assert check.b == 3
        assert bool(check)

    def test_smallest_instance(self):
        check = verify_closed_form_basis(RingSpec(3, 2), 1)
        assert check.ok
        assert check.b == 1
        assert check.computed_staircase == (
            Monomial(0, 3),
            Monomial(1, 2),
            Monomial(2, 0),
        )

    def test_expected_staircase_echoed(self):
        check = verify_closed_form_basis(RingSpec(2, 7), 3)
        assert check.expected_staircase == check.computed_staircase
        assert check.expected_staircase == (
            Monomial(0, 8),
            Monomial(1, 7),
            Monomial(7, 0),
        )

    def test_requires_q_above_n(self):
        with pytest.raises(ValueError):
            verify_closed_form_basis(RingSpec(2, 3), 1)  # q = 2 < 3
        with pytest.raises(ValueError):
            verify_closed_form_basis(RingSpec(2, 5), 0)

    def test_telescoping_is_exact_division(self):
        spec = RingSpec(2, 3)  # divides by x^3 - y^3
        q = 2**16
        assert groebner._telescopes(spec, q, q % 3)
        assert groebner._telescopes(spec, q, q % 3 + 3)  # same class mod n
        assert not groebner._telescopes(spec, q, q % 3 + 1)

    def test_wrong_b_fails_telescoping(self, monkeypatch):
        honest = groebner._telescopes
        monkeypatch.setattr(
            groebner, "_telescopes", lambda rel, q, b: honest(rel, q, b + 1)
        )
        check = verify_closed_form_basis(RingSpec(2, 5), 3)
        assert not check.telescoping_ok
        assert not check.ok
        assert check.spoly_ok and check.staircase_ok

    def test_respects_q_cap(self):
        with pytest.raises(QCapExceededError):
            verify_closed_form_basis(RingSpec(2, 5), 10, q_cap=512)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="e must be nonnegative, got -1"):
            verify_closed_form_basis(RingSpec(2, 5), -1)
        with pytest.raises(ValueError, match="q_cap must be positive, got 0"):
            verify_closed_form_basis(RingSpec(2, 5), 3, q_cap=0)

    def test_check_object_is_falsy_when_failed(self):
        failed = BasisCheck(
            ok=False,
            telescoping_ok=True,
            spoly_ok=True,
            staircase_ok=False,
            expected_staircase=(),
            computed_staircase=(),
            q=8,
            b=3,
        )
        assert not failed


@pytest.fixture
def is_prime_calls(monkeypatch):
    """Count the calls that the oracle's module and the general engine's make
    to is_prime from here on: neither holds it, and the engine's checking
    constructor looks it up in numtheory at each call."""
    calls = []

    def counting(m):
        calls.append(m)
        return is_prime(m)

    general = importlib.import_module("hkkit.groebner_general")
    assert "is_prime" not in vars(groebner) and "is_prime" not in vars(general)
    monkeypatch.setattr(general.numtheory, "is_prime", counting)
    return calls


class TestPrimalityDecidedOnce:
    """RingSpec decides that p is prime; the oracle never asks again."""

    def test_checking_constructor_still_asks(self, is_prime_calls):
        FpPoly(5, {Monomial(1, 0): 1})
        assert is_prime_calls == [5]

    @pytest.mark.parametrize("p, n, e", [(2, 7, 5), (3, 4, 3), (10007, 3, 1)])
    def test_oracle_makes_no_primality_calls(self, is_prime_calls, p, n, e):
        spec = RingSpec(p, n)
        hk_brute(spec, e, q_cap=p**e)
        verify_closed_form_basis(spec, e, q_cap=p**e)
        assert is_prime_calls == []

    def test_gb_command_makes_no_calls_after_the_ring(self, is_prime_calls, capsys):
        from hkkit.cli import main

        assert main(["gb", "--p", "3", "--n", "5", "--e", "4", "--qcap", "81"]) == 0
        assert "count      401" in capsys.readouterr().out
        assert is_prime_calls == []


def is_plain_pair(m):
    """An (i, j) monomial as the oracle's engine holds it: a plain tuple of two
    nonnegative ints, no Monomial."""
    return type(m) is tuple and len(m) == 2 and all(type(k) is int and k >= 0 for k in m)


class TestInternalPolynomialsAreNormalized:
    """The unchecked polynomials equal what the checking constructor builds."""

    CASES = [(2, 5, 4), (3, 4, 3), (10007, 3, 1)]

    @pytest.mark.parametrize("p, n, e", CASES)
    def test_frobenius_power_generators(self, p, n, e):
        q = p**e
        assert frobenius_power_generators(RingSpec(p, n), e) == [
            FpPoly(p, {(q, 0): 1}),
            FpPoly(p, {(0, q): 1}),
            FpPoly(p, {(n, 0): 1, (0, n): -1}),
        ]

    @pytest.mark.parametrize("p, n, e", CASES)
    def test_verify_closed_form_basis(self, monkeypatch, p, n, e):
        # every normal form runs through _binomial_nf, against rules that
        # _binomial_rule builds one pair at a time: record both
        made = {}  # id of each rule -> (rule, the pair it was built from)
        seen = []  # ((a, b), reducers) of every normal form of a - b
        honest_rule, honest_nf = groebner._binomial_rule, groebner._binomial_nf

        def recording_rule(g, earlier):
            rule = honest_rule(g, earlier)
            made[id(rule)] = rule, g  # the rule is kept, so its id stays unique
            return rule

        def recording_nf(a, b, rules):
            seen.append(((a, b), [made[id(r)][1] for r in rules]))
            return honest_nf(a, b, rules)

        monkeypatch.setattr(groebner, "_binomial_rule", recording_rule)
        monkeypatch.setattr(groebner, "_binomial_nf", recording_nf)
        check = verify_closed_form_basis(RingSpec(p, n), e, q_cap=p**e)
        assert check.ok
        for terms, reducers in seen:
            assert all(m is None or is_plain_pair(m) for m in terms)
            for lead, tail in reducers:
                assert is_plain_pair(lead)
                if tail is not None:
                    assert is_plain_pair(tail) and tail < lead
        q, b = check.q, check.b
        lhs = (Monomial(q, 0), Monomial(b, q - b))
        relation = (Monomial(n, 0), Monomial(0, n))  # x^n - y^n
        predicted = [(Monomial(b, q - b), None), (Monomial(0, q), None), relation]
        assert (lhs, [relation]) in seen
        assert any(reducers == predicted for _, reducers in seen)
        # the basis's pairs hold plain tuples, which gb prints as FpPoly would
        basis = groebner._colength(RingSpec(p, n), q)[0]
        assert all(is_plain_pair(lead) and (tail is None or is_plain_pair(tail) and tail < lead)
                   for lead, tail in basis)
        assert _generators(p, basis) == [str(g) for g in as_polys(p, basis)[0]]


class TestPlainPairBoundary:
    """The oracle's engine runs on plain (i, j) tuples; Monomial is built at
    the public boundary only, where a result holds one."""

    @pytest.mark.parametrize("p, n, q", [(2, 7, 512), (3, 10, 9), (13, 60, 1), (2, 3, 2**70)])
    def test_colength_returns_plain_tuples(self, p, n, q):
        basis, _ = groebner._colength(RingSpec(p, n), q)
        assert basis and all(is_plain_pair(lead) and (tail is None or is_plain_pair(tail))
                             for lead, tail in basis)

    def test_basis_check_staircases_are_monomials(self):
        check = verify_closed_form_basis(RingSpec(2, 5), 3)
        for staircase in (check.expected_staircase, check.computed_staircase):
            assert type(staircase) is tuple
            assert all(type(m) is Monomial for m in staircase)
        monomials = "(Monomial(i=0, j=8), Monomial(i=3, j=5), Monomial(i=5, j=0))"
        assert repr(check) == (
            "BasisCheck(ok=True, telescoping_ok=True, spoly_ok=True, staircase_ok=True, "
            f"expected_staircase={monomials}, computed_staircase={monomials}, q=8, b=3)")

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_count_under_staircase_reads_either_type(self, pairs):
        assert count_under_staircase(pairs) == (
            count_under_staircase([Monomial(*m) for m in pairs]))


FORMULA_NAMES = {"hk_value", "phi_value", "residue_b", "hk_table", "period_of",
                 "multiplicative_order"}


class TestOracleIndependence:
    """The oracle's agreement with the formula is evidence only if it never calls it."""

    def test_namespace_holds_no_formula_name(self):
        assert not FORMULA_NAMES & set(vars(groebner))

    def test_answers_with_the_formula_disabled(self, monkeypatch):
        # ring, e, colength n*q - b*(n - b), q and b; rings built before patching
        cases = [(RingSpec(2, 7), 5, 212, 32, 4), (RingSpec(3, 5), 4, 401, 81, 1)]

        def refuse(*args):
            raise AssertionError("the oracle consulted the formula")

        patched = set()
        for name in ("closed_form", "period", "numtheory"):
            module = importlib.import_module(f"hkkit.{name}")
            for attr in FORMULA_NAMES & set(vars(module)):
                monkeypatch.setattr(module, attr, refuse)
                patched.add(attr)
        assert patched == FORMULA_NAMES
        for spec, e, colength, q, b in cases:
            assert hk_brute(spec, e) == colength
            check = verify_closed_form_basis(spec, e)
            assert (check.ok, check.q, check.b) == (True, q, b)
            assert check.computed_staircase == (
                Monomial(0, q), Monomial(b, q - b), Monomial(spec.n, 0))


def refuse_all(monkeypatch, names, caller):
    """Set each function in names to raise when called, in every hkkit module
    that holds it: the general engine's module, where groebner looks up each
    name it serves (so groebner.<name> is the refusal too), and any that
    imported it."""
    def refuse(name):
        def refused(*args):
            raise AssertionError(f"{caller} called {name}")
        return refused

    importlib.import_module("hkkit.groebner_general")
    for name in names:
        holders = [module for key, module in list(sys.modules.items())
                   if key.startswith("hkkit.") and name in vars(module)]
        assert holders, name
        refusal = refuse(name)
        for module in holders:
            monkeypatch.setattr(module, name, refusal)
        assert getattr(groebner, name, refusal) is refusal


class TestOracleTakesTheBinomialPath:
    """The oracle's generators are two monomials and a binomial, built as
    pairs, so neither a dict of terms nor a generator FpPoly is ever built:
    a silent fall-back to buchberger or its primitives, or to the generator
    FpPolys of frobenius_power_generators, fails here instead of only
    costing time."""

    @pytest.fixture(autouse=True)
    def no_fall_back(self, monkeypatch):
        refuse_all(monkeypatch, ("buchberger", "reduce", "s_polynomial", "_rule",
                                 "frobenius_power_generators"), "the oracle")

    def test_library_oracle(self):
        # the colength n*q - b*(n - b), b = q mod n, computed here
        for spec, e in [(RingSpec(2, 7), 5), (RingSpec(3, 5), 4), (RingSpec(2, 7), 4096)]:
            q = spec.p**e
            b = q % spec.n
            assert hk_brute(spec, e, q_cap=q) == spec.n * q - b * (spec.n - b)
            assert verify_closed_form_basis(spec, e, q_cap=q).ok

    def test_gb_and_verify_commands(self, capsys):
        from hkkit.cli import main

        assert main(["gb", "--p", "2", "--n", "7", "--e", "5", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["count"], doc["generators"]) == (212, ["y^32", "x^4*y^28", "x^7 + y^7"])
        assert main(["verify", "--p", "3", "--n", "5", "--emax", "4", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [(r["oracle"], r["basis_check"], r["pass"]) for r in rows] == [
            (1, None, True), (9, None, True), (41, True, True), (129, True, True),
            (401, True, True)]


class TestNoCliPathBuildsPolynomials:
    """_colength returns its basis as pairs, and every caller reads them as
    they stand: hk_brute, verify_closed_form_basis, verify's rows and gb's
    printing build neither an FpPoly, by either constructor, nor a
    GroebnerBasis.  With all three refusing, the library answers as before
    and every command, in every format, prints the same bytes."""

    @staticmethod
    def refuse(monkeypatch):
        """Make FpPoly(...), FpPoly._raw(...) and GroebnerBasis(...) raise."""
        def refused(name):
            def call(*args, **kwargs):
                raise AssertionError(f"the oracle built {name}")
            return call

        monkeypatch.setattr(FpPoly, "__init__", refused("FpPoly"))
        monkeypatch.setattr(FpPoly, "_raw", classmethod(refused("FpPoly")))
        monkeypatch.setattr(GroebnerBasis, "__init__", refused("GroebnerBasis"))

    def test_library_and_verify_build_none(self, monkeypatch):
        library = [(RingSpec(2, 7), 5), (RingSpec(3, 5), 4), (RingSpec(2, 7), 4096)]

        def answers():
            return [(hk_brute(spec, e, q_cap=spec.p**e),
                     verify_closed_form_basis(spec, e, q_cap=spec.p**e))
                    for spec, e in library]

        expected, gens = answers(), frobenius_power_generators(RingSpec(2, 7), 5)
        self.refuse(monkeypatch)
        assert answers() == expected
        # the refusal is in force: the general engine meets it
        with pytest.raises(AssertionError, match="the oracle built"):
            buchberger(gens)
        with pytest.raises(AssertionError, match="the oracle built FpPoly"):
            FpPoly(2, {})

    def test_gb_and_verify_keep_the_corpus_bytes(self, monkeypatch):
        from cli_corpus import line
        from test_cli_corpus import committed

        self.refuse(monkeypatch)
        assert [want for argv, want in committed() if line(argv) != want] == []

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_other_commands_keep_their_bytes(self, monkeypatch, fmt):
        argvs = [f"{argv} --format {fmt}".split() for argv in
                 ("table --p 3 --n 5 --emax 6", "period --p 2 --n 7", "realize --pi 6")]
        expected = [cli.run(argv) for argv in argvs]
        self.refuse(monkeypatch)
        assert [cli.run(argv) for argv in argvs] == expected


class TestPairPrinter:
    """gb prints each pair (lead, tail) as str of the FpPoly lead - tail."""

    @pytest.mark.parametrize("p", [2, 3, 13])
    def test_every_small_pair(self, p):
        monos = [Monomial(i, j) for i in range(4) for j in range(4)]
        pairs = [(m, None) for m in monos] + [(a, b) for a in monos for b in monos if b < a]
        assert _generators(p, pairs) == [str(as_poly(p, g)) for g in pairs]

    @pytest.mark.parametrize("p, text", [(2, "x + 1"), (3, "x + 2"), (13, "x + 12")])
    def test_constant_tail(self, p, text):
        pair = (X, Monomial(0, 0))
        assert _generators(p, [pair]) == [text] == [str(as_poly(p, pair))]

    @pytest.mark.parametrize("p, text", [(2, "x^7 + y^7"), (3, "x^7 + 2*y^7"),
                                         (13, "x^7 + 12*y^7")])
    def test_binomial_and_monomials(self, p, text):
        assert _generators(p, [(Monomial(0, 9), None), (Monomial(7, 0), Monomial(0, 7))]) == [
            "y^9", text]


class TestBuchbergerTakesTheGeneralPath:
    """buchberger never enters the oracle's binomial engine, even on the
    monomials and binomials that engine is built for: with the engine
    refusing every call, it still lands on the oracle's basis and on the
    reference's.  So the tests that compare buchberger with _colength
    compare two computations, not one with itself."""

    ENGINE = ("_binomial_buchberger", "_binomial_pair_loop", "_reduce_term", "_binomial_nf")

    @given(ring=frobenius_rings())
    @example(ring=(RingSpec(2, 7), 65536))  # one chain of about 2^65536/7 rewrites
    @example(ring=(RingSpec(3, 10), 2))  # q < n: x^n - y^n drops out of the basis
    @settings(max_examples=50, deadline=None)
    def test_frobenius_generators(self, ring):
        spec, e = ring
        expected = as_polys(spec.p, groebner._colength(spec, spec.p**e)[0])
        gens = frobenius_power_generators(spec, e)
        with pytest.MonkeyPatch.context() as mp:
            refuse_all(mp, self.ENGINE, "buchberger")
            gb = buchberger(gens)
            assert (gb.generators, gb.staircase) == expected

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_binomial_ideals(self, data):
        p = data.draw(st.sampled_from((2, 3, 5, 7, 11, 13)), label="p")
        gens = data.draw(st.lists(small_polys(p, 8, 2), min_size=1, max_size=4), label="gens")
        with pytest.MonkeyPatch.context() as mp:
            refuse_all(mp, self.ENGINE, "buchberger")
            assert_matches_reference(gens)

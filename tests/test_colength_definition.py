"""The oracle's colength against the definition, with no Groebner theory.

A = F[x,y]/(x^q, y^q) has the q^2 monomials x^i y^j (i, j < q) as a basis,
and the image of the ideal (x^n - y^n) in A is spanned by the products
m*(x^n - y^n), m a monomial of A.  A term that leaves the box is zero in A,
so each product is e_u - e_v (both terms in the box), e_u (one) or 0
(none).  The span of the two-term products is that of a graph's edges,
whose rank is the number of vertices less the number of connected
components; a one-term product raises the rank by one for its component
only, the first time.  So the colength of (x^q, y^q, x^n - y^n) is the
number of components that hold no one-term product, whatever the field.

The count needs no term order, no field arithmetic and no basis, and shares
no code with _colength, public buchberger or count_under_staircase: a fault
in any piece they share shows here.  The same components also check the
basis _colength returns (basis_faults), which a fault that leaves the count
alone, such as a divisible lead kept, still changes.

The union-find costs O(q^2).  Its components are chains, one per
antidiagonal and residue class, so colength_by_chains counts the same live
components in O(q*n), which reaches q far past 512; it is checked against
the union-find, and checks the count of _colength only, not its basis.
"""

import pytest

from hkkit import RingSpec
from hkkit.groebner import _colength


def quotient(n: int, q: int) -> tuple[list[int], set[int]]:
    """Each monomial's component, as a root node (x^i y^j is node i*q + j),
    and the roots of the live components: those with no one-term product."""
    parent = list(range(q * q))

    def root(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    killed = set()
    for i in range(q):
        for j in range(q):
            # x^i y^j * (x^n - y^n) = x^(i+n) y^j - x^i y^(j+n), terms past q dropped
            left = (i + n) * q + j if i + n < q else None
            right = i * q + j + n if j + n < q else None
            if left is not None and right is not None:
                parent[root(left)] = root(right)
            elif left is not None or right is not None:
                killed.add(left if right is None else right)
    roots = [root(u) for u in range(q * q)]
    return roots, set(roots) - {roots[u] for u in killed}


def colength_by_definition(n: int, q: int) -> int:
    """dim F[x,y]/(x^q, y^q, x^n - y^n), by a union-find over the q^2 monomials."""
    return len(quotient(n, q)[1])


def colength_by_chains(n: int, q: int) -> int:
    """dim F[x,y]/(x^q, y^q, x^n - y^n): the union-find's live components,
    counted as chains in O(q*n).

    A two-term product joins x^a y^b to x^(a-n) y^(b+n), both in the box, so a
    component is the set of box monomials on one antidiagonal a + b = s whose
    a lies in one class r mod n: those with lo <= a <= hi below.  A one-term
    product hits x^a y^b exactly when a >= n and b >= q - n (its other term,
    x^(a-n) y^(b+n), leaves the box), or a >= q - n and b >= n.  So a chain is
    live when its class meets [lo, hi] and misses both intervals of hit a."""
    count = 0
    for s in range(2 * q - 1):
        lo, hi = max(0, s - q + 1), min(q - 1, s)
        # the hit a on this antidiagonal, b = s - a, as two intervals in [lo, hi]
        lo1, hi1 = max(lo, n), min(hi, s - q + n)
        lo2, hi2 = max(lo, q - n), min(hi, s - n)
        for r in range(n):
            # the least a == r (mod n) at or past an interval's start must pass its end
            if (lo + (r - lo) % n <= hi and lo1 + (r - lo1) % n > hi1
                    and lo2 + (r - lo2) % n > hi2):
                count += 1
    return count


def basis_faults(p: int, n: int, q: int, basis) -> list[str]:
    """What keeps the pairs (lead, tail), each lead - tail, from being the
    reduced basis of the ideal, read off the definition alone.

    A polynomial lies in the ideal when, in each live component, its
    coefficients on the monomials of the box sum to 0 mod p.  Elements of
    the ideal whose leads leave as standard (divisible by no lead) one
    monomial per live component, and none in a dead one or outside the box,
    are a Groebner basis, if each lead is above its tail in lex (x > y), which
    is tuple order; it is reduced when no lead divides another lead or a
    tail."""
    roots, live = quotient(n, q)
    faults = []
    for lead, tail in basis:
        sums = dict.fromkeys(live, 0)
        for (i, j), coeff in [(lead, 1)] + ([] if tail is None else [(tail, -1)]):
            if i < q and j < q and roots[i * q + j] in live:
                sums[roots[i * q + j]] += coeff
        if any(total % p for total in sums.values()):
            faults.append(f"{(lead, tail)} is not in the ideal")
    leads = [lead for lead, _ in basis]

    def dividing(mono):
        return [(a, b) for a, b in leads if a <= mono[0] and b <= mono[1]]

    if not (dividing((q, 0)) and dividing((0, q))):
        faults.append("a monomial outside the box is standard")
    # column i of the box holds the standard x^i y^j with j below every lead x^a y^b, a <= i
    standard = [roots[i * q + j] for i in range(q)
                for j in range(min([q] + [b for a, b in leads if a <= i]))]
    if sorted(standard) != sorted(live):
        faults.append("the standard monomials are not one per live component")
    for lead, tail in basis:
        if len(dividing(lead)) > 1 or tail is not None and (dividing(tail) or tail > lead):
            faults.append(f"{(lead, tail)} is not reduced")
    return faults


# every prime p <= 13, every 2 <= n < 30 coprime to p, every q = p^e <= 128
ROWS = [(p, n, p**e) for p in (2, 3, 5, 7, 11, 13) for n in range(2, 30) if n % p
        for e in range(8) if p**e <= 128]


@pytest.mark.parametrize("n, q, colength", [
    (3, 1, 1),  # A is F itself
    (5, 4, 16),  # q <= n: every product leaves the box, nothing is cut
    (3, 4, 10),  # the staircase y^4, x y^3, x^3: 4 + 3 + 3
    (2, 3, 5),  # x^2 = y^2, and x y^2, x^2 y and x^2 y^2 vanish: 9 - 1 - 3
])
def test_definition_on_hand_counted_rings(n, q, colength):
    assert colength_by_definition(n, q) == colength
    assert colength_by_chains(n, q) == colength


def test_colength_matches_the_definition():
    assert len(ROWS) == 501
    wrong = [(p, n, q) for p, n, q in ROWS
             if _colength(RingSpec(p, n), q)[1] != colength_by_definition(n, q)]
    assert wrong == []


def test_basis_is_the_reduced_basis_of_the_definition():
    wrong = [(p, n, q, faults) for p, n, q in ROWS
             if (faults := basis_faults(p, n, q, _colength(RingSpec(p, n), q)[0]))]
    assert wrong == []


def test_chain_count_matches_the_union_find():
    wrong = [(p, n, q) for p, n, q in ROWS
             if colength_by_chains(n, q) != colength_by_definition(n, q)]
    assert wrong == []


def chain_rows(tops) -> list[tuple[int, int, int]]:
    """(p, n, p^e) for each (p, top) in tops: every 128 < p^e <= p^top, and
    every 2 <= n < 30 coprime to p (CI's chain-count sweep reads them too)."""
    return [(p, n, p**e) for p, top in tops for e in range(top + 1)
            if p**e > 128 for n in range(2, 30) if n % p]


# past ROWS' q <= 128: q = 2^8..2^10 and 3^5..3^6, every 2 <= n < 30 coprime to p
CHAIN_ROWS = chain_rows(((2, 10), (3, 6)))


def test_colength_matches_the_chain_count_past_128():
    assert len(CHAIN_ROWS) == 80
    wrong = [(p, n, q) for p, n, q in CHAIN_ROWS
             if _colength(RingSpec(p, n), q)[1] != colength_by_chains(n, q)]
    assert wrong == []

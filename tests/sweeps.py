"""CI's evidence sweeps, each run by its name:

    PYTHONPATH=src python tests/sweeps.py oracle|definition|chains|enumerate

run_sweep checks each row, prints a summary line that names the failed
rows, and returns 1 on a failed row, a count other than the guard's, or a
run past the time limit.  Any argument but one sweep's name exits 2.
"""

import math
import sys
import time
from collections import Counter
from collections.abc import Callable, Sequence
from typing import NamedTuple

from hkkit import RingSpec, hk_brute, verify_closed_form_basis
from hkkit.cli import _generators
from hkkit.groebner import (PairBudgetExceededError, _binomial_buchberger, _colength,
                            buchberger, frobenius_power_generators)
from hkkit.realize import enumerate_realizations
from test_cli_bytes import lifted_digit_limit
from test_colength_definition import (basis_faults, chain_rows, colength_by_chains,
                                      colength_by_definition)
from test_groebner import ORACLE_BOX, as_poly
from test_realize import enumerate_by_sweep


class Sweep(NamedTuple):
    line: str  # the summary less the time; it may name rows, failed and tally
    rows: Sequence
    check: Callable[..., bool]  # check(row, tally); it may count into the Counter tally
    count: int  # the guard: how many rows, or how many of the tally's unit
    unit: str = "rows"
    limit: float = math.inf  # seconds


def run_sweep(sweep: Sweep) -> int:
    start, failed, tally = time.perf_counter(), [], Counter()
    for row in sweep.rows:
        if not sweep.check(row, tally):
            failed.append(row)
    elapsed = time.perf_counter() - start
    found = len(sweep.rows) if sweep.unit == "rows" else tally[sweep.unit]
    limit = f" (limit {sweep.limit} s)" if sweep.limit < math.inf else ""
    print(sweep.line.format(rows=len(sweep.rows), failed=failed,
                            tally=dict(sorted(tally.items()))) + f", {elapsed:.2f} s{limit}")
    return int(found != sweep.count or bool(failed) or elapsed > sweep.limit)


def returns(run, gens, budget):
    """Whether run(gens, budget) returns, rather than raising at the budget."""
    try:
        run(gens, budget)
    except PairBudgetExceededError:
        return False
    return True


# every ring of the benchmark's oracle box with every q = p^e <= 2^17, then
# two large powers of 2; the colength n*q - b*(n - b), b = q mod n, is
# computed here, never by hk_value, and the basis of the oracle's
# binomial engine, which builds its generators as pairs (lead, tail)
# and returns pairs, must equal, as FpPolys and leads, the basis the
# general buchberger computes from the generator FpPolys; gb's text,
# printed from the pairs, must be str() of buchberger's generators; and
# at the smallest pair budget k at which buchberger returns, the
# binomial engine, which counts a pair of two monomials but does not
# reduce it, must return too, and raise at k - 1 as buchberger does
ORACLE_ROWS = ORACLE_BOX + [(2, n, e) for e in (4096, 65536) for n in range(3, 41, 2)]


def oracle_row(row, budgets) -> bool:
    """Whether the row passes; its smallest pair budget k is counted in budgets."""
    p, n, e = row
    spec, q = RingSpec(p, n), p**e
    b = q % n
    ok = hk_brute(spec, e, q_cap=q) == n * q - b * (n - b)
    if q > n:
        ok = ok and verify_closed_form_basis(spec, e, q_cap=q).ok
    pairs = _colength(spec, q)[0]
    expected = buchberger(frobenius_power_generators(spec, e))
    ok = ok and tuple(as_poly(p, g) for g in pairs) == expected.generators
    ok = ok and tuple(g[0] for g in pairs) == expected.staircase
    # q = 2^65536 prints with 19,729 digits, past CPython's int/str limit
    with lifted_digit_limit():
        ok = ok and _generators(p, pairs) == [str(g) for g in expected.generators]
    gens, k = frobenius_power_generators(spec, e), 0
    while not returns(buchberger, gens, k):
        k += 1
    budgets[k] += 1
    gens = [((q, 0), None), ((0, q), None), ((n, 0), (0, n))]
    ok = ok and returns(_binomial_buchberger, gens, k)
    return ok and not (k and returns(_binomial_buchberger, gens, k - 1))


# tier-1 checks q <= 128 against the union-find over the q^2 monomials;
# here p = 2 with q = 256 and 512, and p = 3 with q = 243, for every
# 2 <= n < 30 coprime to p: the count and the returned basis
DEFINITION_ROWS = [(p, n, q) for p, qs in ((2, (256, 512)), (3, (243,))) for q in qs
                   for n in range(2, 30) if n % p]


def definition_row(row, tally) -> bool:
    p, n, q = row
    basis, count = _colength(RingSpec(p, n), q)
    return count == colength_by_definition(n, q) and not basis_faults(p, n, q, basis)


def chain_row(row, tally) -> bool:
    p, n, q = row
    return _colength(RingSpec(p, n), q)[1] == colength_by_chains(n, q)


# the 300 x 300 box for every pi the benchmark draws: the sieve's
# results, their order and every search_stats snapshot must equal
# the sweep that runs period_of on every ring (well under a minute)
def enumerate_row(pi, tally) -> bool:
    want = enumerate_by_sweep(pi, 300, 300, 10**6)
    tally["rings"] += len(want)
    return enumerate_realizations(pi, 300, 300, 10**6) == want


SWEEPS = {
    "oracle": Sweep("oracle sweep: {rows} rows, failed {failed}, "
                    "rows per smallest budget {tally}", ORACLE_ROWS, oracle_row, 1512),
    "definition": Sweep("definition sweep: {rows} rows, failed {failed}",
                        DEFINITION_ROWS, definition_row, 47),
    # the union-find stops at q = 512; the chain count, checked against it in
    # tier-1, counts the same components in O(q*n): every q = p^e past 128 up
    # to 2^14, 3^9 and 5^6, for every 2 <= n < 30 coprime to p
    "chains": Sweep("chain-count sweep: {rows} rows, failed {failed}",
                    chain_rows(((2, 14), (3, 9), (5, 6))), chain_row, 262),
    "enumerate": Sweep("enumerate sweep: pi = 1..24, {tally[rings]} rings, failed {failed}",
                       range(1, 25), enumerate_row, 11869, "rings", 60),
}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in SWEEPS:
        print(f"usage: sweeps.py {{{','.join(SWEEPS)}}}", file=sys.stderr)
        return 2
    return run_sweep(SWEEPS[argv[0]])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

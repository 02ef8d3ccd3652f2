"""Seeded op streams for the oracle, formula and search workloads.

A workload is a list of strata.  A stratum is an op kind plus a band on the
kind's work estimate, a quantity the benchmark computes from the inputs with
its own arithmetic (q/n Buchberger rewrite chains for the oracle, the order
omega for period ops, the naive order-loop steps of realize's residue scan for
search).  Op time tracks the estimate closely, so a round, which holds a fixed
number of ops from each stratum, costs nearly the same whatever the seed, and
the latency percentiles land in the same strata on every run.  The seed picks
the inputs inside each band; no op is repeated within a run.

Every op carries a check against the benchmark's own arithmetic (reference.py).
An op fails when its check fails, or when it exits with another code than
expected.  One op kind is a documented defect: a p=10007 table whose values
pass CPython's 4300-digit int/str limit exits 2 today (ROADMAP open item 4).
It is counted as a known defect, not as a pass, and passes once fixed.
"""

import csv
import json
import math
import random
import re
from dataclasses import dataclass, field
from typing import Callable

import reference as ref

FORMATS = ("plain", "csv", "json")
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
ORACLE_QCAP = 2**17  # the oracle's q reaches about 2^16; the default cap is 512
SEARCH_LIMIT = 100_000  # raised --nlimit/--plimit for realize
INT_DIGITS = re.compile(r"\d+")
INT_LIMIT_ERROR = "Exceeds the limit (4300 digits) for integer string conversion"


@dataclass
class Outcome:
    rc: int | None = None  # exit code of a CLI op; None for a library call
    out: str = ""
    err: str = ""
    value: object = None  # return value of a library call
    error: str | None = None  # an exception that escaped hkkit
    counters: dict = field(default_factory=dict)  # set by a check, for the trace


@dataclass
class Op:
    key: tuple  # identity, for the no-repeat rule
    check: Callable[[Outcome], bool]
    argv: list[str] | None = None  # CLI op: argv for hkkit.cli.main
    func: str | None = None  # library op: name of a public hkkit function
    spec: tuple | None = None  # library op: (p, n), passed first as RingSpec(p, n)
    args: tuple = ()
    expect_rc: int = 0
    known_defect: str | None = None  # stderr text of a documented defect
    kind: str = ""  # the stratum it was drawn from, set by Sampler.take


# ---------------------------------------------------------------- parsing


def _pairs(text: str) -> dict[str, str]:
    out = {}
    for line in text.split("\n"):
        if line and not line.startswith(" ") and line != "basis:":
            key, _, value = line.partition(" ")
            out[key] = value.strip()
    return out


def _json(text: str):
    return json.loads(text, parse_int=ref.to_int)


def _json_without_profile(text: str):
    """The JSON document with phi_profile emptied, and the profile's text.

    Profiles run to 10^6 entries; scanning their digits in place keeps the
    benchmark's own memory well below hkkit's, so peak RSS stays hkkit's.
    """
    head, marker, rest = text.partition('"phi_profile": [')
    body, close, tail = rest.partition("]")
    return json.loads(head + marker + close + tail), body


def _tokens(text: str):
    return (m.group() for m in INT_DIGITS.finditer(text))


def _flag(value) -> bool:
    return value is True or value == "true"


# ---------------------------------------------------------------- checks


def check_table(p: int, n: int, emax: int, fmt: str) -> Callable[[Outcome], bool]:
    def expected():
        q = 1
        for e in range(emax + 1):
            b = q % n
            yield (e, q, b, n * q - b * (n - b), b * (n - b))
            q *= p

    def check(o: Outcome) -> bool:
        if o.rc != 0:
            return False
        header = ["e", "q", "b", "hk", "phi"]
        if fmt == "json":
            doc = _json(o.out)
            if (doc["p"], doc["n"]) != (p, n):
                return False
            rows = ([r[k] for k in header] for r in doc["rows"])
            count = len(doc["rows"])
        else:
            sep = "," if fmt == "csv" else None
            lines = o.out.split("\n")
            if lines[0].split(sep) != header:
                return False
            body = [ln for ln in lines[1:] if ln]
            count = len(body)
            rows = ([ref.to_int(t) for t in ln.split(sep)] for ln in body)
        if count != emax + 1:
            return False
        return all(list(got) == list(want) for got, want in zip(rows, expected()))

    return check


def check_period(p: int, n: int, omega: int, fmt: str) -> Callable[[Outcome], bool]:
    def check(o: Outcome) -> bool:
        if o.rc != 0:
            return False
        if fmt == "json":
            doc, profile = _json_without_profile(o.out)
            fields = [doc[k] for k in ("p", "n", "omega", "pi", "branch", "involution")]
        elif fmt == "csv":
            header, row = o.out.split("\n", 1)
            if header != "p,n,omega,pi,branch,involution,phi_profile":
                return False
            *fields, profile = row.rstrip("\n").split(",")
        else:
            kv = _pairs(o.out)
            fields = [kv[k] for k in ("p", "n", "omega", "pi", "branch", "involution")]
            profile = kv["phi_profile"]
        got_p, got_n, got_omega, pi = (int(v) for v in fields[:4])
        return (
            (got_p, got_n, got_omega) == (p, n, omega)
            and ref.period_ok(p, n, omega, pi, fields[4], _flag(fields[5]))
            and ref.profile_ok(p, n, omega, _tokens(profile))
        )

    return check


def check_verify(p: int, n: int, emax: int, cap: int, fmt: str) -> Callable[[Outcome], bool]:
    rows, skipped = [], []
    q = 1
    for e in range(emax + 1):
        if q > cap:
            skipped.append(e)
        else:
            rows.append((e, q, ref.hk(p, n, e), q > n))
        q *= p

    def check(o: Outcome) -> bool:
        if o.rc != 0:
            return False
        if fmt == "json":
            doc = _json(o.out)
            got = [
                (r["e"], r["q"], r["closed_form"], r["oracle"], r["basis_check"], r["pass"])
                for r in doc["rows"]
            ]
            want = [(e, q, v, v, True if big else None, True) for e, q, v, big in rows]
            return (
                (doc["p"], doc["n"], doc["q_cap"]) == (p, n, cap)
                and got == want
                and doc["skipped_e"] == skipped
                and doc["all_pass"] is True
            )
        lines = [ln for ln in o.out.split("\n") if ln]
        if fmt == "csv":
            if lines[0] != "e,q,closed_form,oracle,basis_check,status":
                return False
            got = [ln.split(",") for ln in lines[1:]]
            basis = ("pass", "na")
        else:
            if lines[0].split() != ["e", "q", "closed_form", "oracle", "basis", "status"]:
                return False
            got = [ln.split() for ln in lines[1:]]
            basis = ("ok", "-")
        want = [
            [str(e), str(q), str(v), str(v), basis[0] if big else basis[1], "PASS"]
            for e, q, v, big in rows
        ]
        return got == want

    return check


def check_gb(p: int, n: int, e: int, fmt: str) -> Callable[[Outcome], bool]:
    q = p**e
    basis = ref.reduced_basis(p, n, q)
    count = ref.hk(p, n, e)

    def check(o: Outcome) -> bool:
        if o.rc != 0:
            return False
        if fmt == "json":
            doc = _json(o.out)
            return (
                (doc["p"], doc["n"], doc["e"], doc["q"], doc["count"]) == (p, n, e, q, count)
                and doc["generators"] == [g for g, _, _ in basis]
                and doc["staircase"] == [[i, j] for _, i, j in basis]
            )
        if fmt == "csv":
            rows = list(csv.reader(o.out.splitlines()))
            return rows == [["generator", "lead_i", "lead_j"]] + [
                [g, str(i), str(j)] for g, i, j in basis
            ]
        kv = _pairs(o.out)
        head, _, gens = o.out.partition("basis:\n")
        return (
            [kv[k] for k in ("p", "n", "e", "q", "count")] == [str(v) for v in (p, n, e, q, count)]
            and kv["staircase"].split("  ") == [ref.monomial(i, j) for _, i, j in basis]
            and [g.strip() for g in gens.splitlines()] == [g for g, _, _ in basis]
        )

    return check


def check_realize(pi: int, want: tuple, fmt: str) -> Callable[[Outcome], bool]:
    """want = (p, n, residue, n_candidates, p_candidates) from simulate_realize."""

    def check(o: Outcome) -> bool:
        if o.rc != 0:
            return False
        profile = None
        if fmt == "json":
            doc, profile = _json_without_profile(o.out)
            rep, stats = doc["report"], doc["search_stats"]
            got = (
                doc["target_pi"], doc["spec"]["p"], doc["spec"]["n"], rep["omega"],
                rep["pi"], rep["branch"], rep["involution"], doc["residue_used"],
                stats["n_candidates"], stats["p_candidates"],
            )
        else:
            if fmt == "csv":
                header, row, *_ = o.out.split("\n")
                keys = header.split(",")
                kv = dict(zip(keys, row.split(",")))
            else:
                kv = _pairs(o.out)
            got = tuple(
                kv[k] if k == "branch" else int(kv[k])
                for k in ("target_pi", "p", "n", "omega", "pi", "branch", "residue_used",
                          "n_candidates", "p_candidates")
            )
            got = got[:6] + (got[5] == "HALF",) + got[6:]
        target, p, n, omega, got_pi, branch, involution, residue, n_cand, p_cand = got
        return (
            target == pi
            and (p, n, residue, n_cand, p_cand) == want
            and pow(p, pi, n) == n - 1
            and got_pi == pi
            and ref.period_ok(p, n, omega, got_pi, branch, involution)
            and (profile is None or ref.profile_ok(p, n, omega, _tokens(profile)))
        )

    return check


def check_exhausted(o: Outcome) -> bool:
    return o.rc == 3 and o.out == "" and "no realization of period" in o.err


def check_hk_brute(p: int, n: int, e: int) -> Callable[[Outcome], bool]:
    want = ref.hk(p, n, e)
    return lambda o: o.error is None and o.value == want


def check_minimal_period(p: int, n: int, omega: int) -> Callable[[Outcome], bool]:
    pi = ref.minimal_period(p, n, omega)

    def phi(e: int) -> int:
        b = pow(p, e, n)
        return b * (n - b)

    def check(o: Outcome) -> bool:
        if o.error is not None or not o.value.ok:
            return False
        witnesses = o.value.divisor_witnesses
        if sorted(witnesses) != [d for d in range(1, pi) if pi % d == 0]:
            return False
        return all(
            phi(e + d) != phi(e) and all(phi(k + d) == phi(k) for k in range(e))
            for d, e in witnesses.items()
        )

    return check


def check_enumerate(pi: int, n_limit: int, p_limit: int, max_results: int):
    def check(o: Outcome) -> bool:
        if o.error is not None:
            return False
        primes = [p for p in range(2, p_limit + 1) if ref.is_prime(p)]
        want, rings = [], 0
        for n in range(2, n_limit + 1):
            lam_factors = ref.lambda_factors(n)
            for p in primes:
                if n % p == 0:
                    continue
                rings += 1
                omega = ref.order(p, n, lam_factors)
                if ref.minimal_period(p, n, omega) == pi:
                    want.append((p, n, omega))
        truncated = len(want) >= max_results
        want = want[:max_results]
        o.counters = {
            "realize.enumerate.rings_examined": (
                o.value[-1].search_stats.p_candidates if truncated else rings
            )
        }
        got = [(r.spec.p, r.spec.n, r.report.omega) for r in o.value]
        return got == want and all(
            r.report.pi == pi and r.residue_used is None for r in o.value
        )

    return check


# ---------------------------------------------------------------- sampling


class Sampler:
    """The seeded state shared by a run's op kinds."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.seen: set[tuple] = set()
        self.issued: dict[str, int] = {}  # ops taken, per stratum
        self.stratum = ""  # the stratum being drawn from
        self._sieve: bytearray | None = None

    def count(self) -> int:
        return self.issued.get(self.stratum, 0)

    def fmt(self) -> str:
        """Formats rotate inside each stratum, so every stratum's cost mix is fixed."""
        return FORMATS[self.count() % len(FORMATS)]

    def take(self, op: Op) -> Op | None:
        if op.key in self.seen:
            return None
        self.seen.add(op.key)
        self.issued[self.stratum] = self.count() + 1
        op.kind = self.stratum
        return op

    def sieve(self) -> bytearray:
        if self._sieve is None:
            limit = SEARCH_LIMIT
            s = bytearray([1]) * (limit + 1)
            s[0] = s[1] = 0
            for i in range(2, math.isqrt(limit) + 1):
                if s[i]:
                    s[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
            self._sieve = s
        return self._sieve


def _coprime_prime(rng: random.Random, n: int) -> int | None:
    choices = [p for p in SMALL_PRIMES if n % p]
    return rng.choice(choices) if choices else None


# ---- oracle kinds.  Work estimate w = q/n: Buchberger's rewrite chain for
# x^q against x^n - y^n has about 2q/n steps, and op time follows it.


def gb_op(s: Sampler, lo: float, hi: float) -> Op | None:
    p = s.rng.choice(SMALL_PRIMES)
    n = s.rng.randint(2, 40)
    if n % p == 0:
        return None
    fits = [e for e in range(0, 18) if lo <= p**e / n <= hi and p**e <= ORACLE_QCAP]
    if not fits:
        return None
    e = s.rng.choice(fits)
    fmt = s.fmt()
    argv = ["gb", "--p", str(p), "--n", str(n), "--e", str(e),
            "--qcap", str(ORACLE_QCAP), "--format", fmt]
    return s.take(Op(tuple(argv), check_gb(p, n, e, fmt), argv=argv))


def verify_op(s: Sampler, lo: float, hi: float) -> Op | None:
    """verify rows e = 0..emax, all under the raised cap; w sums q/n over rows."""
    p = s.rng.choice(SMALL_PRIMES)
    n = s.rng.randint(2, 40)
    if n % p == 0:
        return None
    fits = []
    for emax in range(0, 18):
        if p**emax > ORACLE_QCAP:
            break
        w = sum(p**e / n for e in range(emax + 1) if p**e > n)
        if lo <= w <= hi:
            fits.append(emax)
    if not fits:
        return None
    emax = s.rng.choice(fits)
    fmt = s.fmt()
    argv = ["verify", "--p", str(p), "--n", str(n), "--emax", str(emax),
            "--qcap", str(ORACLE_QCAP), "--format", fmt]
    return s.take(Op(tuple(argv), check_verify(p, n, emax, ORACLE_QCAP, fmt), argv=argv))


def verify_skip_op(s: Sampler, lo: float, hi: float) -> Op | None:
    """verify with emax in the thousands at the default cap: rows past q = 512 are
    skipped, but p**e is still built for each.  Work: sum_e digits(p^e)^1.585
    (Karatsuba) = emax^2.585 log10(p)^1.585 / 2.585, in [lo, hi]."""
    p = s.rng.choice(SMALL_PRIMES)
    n = s.rng.randint(2, 40)
    if n % p == 0:
        return None
    emax = round((2.585 * s.rng.uniform(lo, hi) / math.log10(p) ** 1.585) ** (1 / 2.585))
    fmt = s.fmt()
    argv = ["verify", "--p", str(p), "--n", str(n), "--emax", str(emax), "--format", fmt]
    return s.take(Op(tuple(argv), check_verify(p, n, emax, 512, fmt), argv=argv))


def hk_brute_op(s: Sampler, lo: float, hi: float) -> Op | None:
    """Library hk_brute with q/n in [lo, hi]; q reaches 2^17, around the
    ROADMAP baseline row at q = 2^16."""
    p = s.rng.choice(SMALL_PRIMES)
    n = s.rng.randint(2, 40)
    if n % p == 0:
        return None
    fits = [e for e in range(18) if p**e <= ORACLE_QCAP and lo <= p**e / n <= hi]
    if not fits:
        return None
    e = s.rng.choice(fits)
    return s.take(Op(("hk_brute", p, n, e), check_hk_brute(p, n, e),
        func="hk_brute", spec=(p, n), args=(e, ORACLE_QCAP),
    ))


# ---- formula kinds.  Work estimate: omega, the order of p mod n; period_of
# runs an omega-step order loop and builds an omega-long profile.


def _smooth_numbers(limit: int) -> list[int]:
    out = [1]
    for q in (2, 3, 5, 7):
        out = [m * q**k for m in out for k in range(40) if m * q**k <= limit]
    return sorted(out)


SMOOTH = _smooth_numbers(1_050_000)


def period_op(s: Sampler, lo: int, hi: int) -> Op | None:
    """period --p P --n N with omega in [lo, hi] and N in about [10^4, 10^6].

    Where a prime N in range can have omega in the band (omega >= 10^4), prime
    and composite N alternate.  A composite N is m*c with m prime and c
    7-smooth, so omega can be small while N stays above 10^4.
    """
    prime = lo >= 600_000 or (lo >= 10_000 and s.count() % 2 == 0)
    if prime:
        d = 1 if lo >= 600_000 else s.rng.choice((1, 2))
        n = s.rng.randint(d * lo + 1, d * hi + 1)
        if not ref.is_prime(n):
            return None
    else:
        m = s.rng.randint(lo + 1, 2 * hi + 1)
        if not ref.is_prime(m):
            return None
        fits = [c for c in SMOOTH if 10_000 <= m * c <= 1_050_000 and c > 1]
        if not fits:
            return None
        n = m * s.rng.choice(fits)
    p = _coprime_prime(s.rng, n)
    if p is None:
        return None
    omega = ref.order(p, n)
    if not lo <= omega <= hi:
        return None
    fmt = s.fmt()
    argv = ["period", "--p", str(p), "--n", str(n), "--format", fmt]
    return s.take(Op(tuple(argv), check_period(p, n, omega, fmt), argv=argv))


def table_op(s: Sampler, lo: int, hi: int) -> Op | None:
    """table with work sum_e digits(p^e)^2 = emax^3 log10(p)^2 / 3 in [lo, hi]:
    CPython's int-to-decimal conversion is quadratic in the digit count."""
    p = s.rng.choice(SMALL_PRIMES)
    n = s.rng.randint(2, 40)
    if n % p == 0:
        return None
    emax = round((3 * s.rng.uniform(lo, hi) / math.log10(p) ** 2) ** (1 / 3))
    fmt = s.fmt()
    argv = ["table", "--p", str(p), "--n", str(n), "--emax", str(emax), "--format", fmt]
    return s.take(Op(tuple(argv), check_table(p, n, emax, fmt), argv=argv))


def table_defect_op(s: Sampler, lo: int, hi: int) -> Op | None:
    """A p=10007 table whose last values pass 4300 digits (e >= ~1075)."""
    p = 10007
    n = s.rng.randint(2, 40)
    emax = s.rng.randint(lo, hi)
    fmt = s.fmt()
    argv = ["table", "--p", str(p), "--n", str(n), "--emax", str(emax), "--format", fmt]
    return s.take(Op(tuple(argv), check_table(p, n, emax, fmt), argv=argv,
        known_defect=INT_LIMIT_ERROR,
    ))


def minimal_period_op(s: Sampler, lo: int, hi: int) -> Op | None:
    """Library verify_minimal_period(spec, 2) with omega in [lo, hi]."""
    d = s.rng.choice((1, 2, 3))
    n = s.rng.randint(d * lo, d * hi + 1)
    p = _coprime_prime(s.rng, n)
    if p is None:
        return None
    omega = ref.order(p, n)
    if not lo <= omega <= hi:
        return None
    return s.take(Op(("vmp", p, n), check_minimal_period(p, n, omega),
        func="verify_minimal_period", spec=(p, n), args=(2,),
    ))


# ---- search kinds.  Work estimate for realize: the naive order-loop steps of
# its residue scan, plus 15 per profile entry built at the end (2*pi of them).


def simulate_realize(s: Sampler, pi: int, limit: int, budget: int):
    """realize's documented smallest-first search, replayed with fast orders.

    Returns ((p, n, residue, n_candidates, p_candidates), work), ("exhausted",
    work), or None once the work passes budget.
    """
    sieve = s.sieve()
    step = 2 * pi
    n, work, n_cand, p_cand = 1 + step, 15 * step, 0, 0
    while n <= limit:
        n_cand += 1
        if sieve[n]:
            lam_factors = (n - 1, list(ref.factorize(n - 1)))  # n is prime
            for r in range(2, n):
                w = ref.order(r, n, lam_factors)
                work += w
                if work > budget:
                    return None
                if w != step:
                    continue
                c = r
                while c <= limit and not sieve[c]:
                    c += n
                if c <= limit:
                    p_cand += (c - r) // n + 1
                    return (c, n, r, n_cand, p_cand), work
                p_cand += (limit - r) // n + 1 if limit >= r else 0
        n += step
    return ("exhausted", work)


def realize_op(s: Sampler, lo: int, hi: int, pi: int | None = None) -> Op | None:
    """realize --pi PI with raised limits, work estimate in [lo, hi]."""
    pi = pi or s.rng.randint(1, 5000)
    sim = simulate_realize(s, pi, SEARCH_LIMIT, hi)
    if sim is None or sim[0] == "exhausted" or not lo <= sim[1] <= hi:
        return None
    fmt = s.fmt()
    argv = ["realize", "--pi", str(pi), "--nlimit", str(SEARCH_LIMIT),
            "--plimit", str(SEARCH_LIMIT), "--format", fmt]
    return s.take(Op(("realize", pi), check_realize(pi, sim[0], fmt), argv=argv))


def realize_exhaust_op(s: Sampler, lo: int, hi: int) -> Op | None:
    """realize whose --nlimit stops just short of the first prime n = 1 mod 2*pi,
    so it must exhaust (exit 3) after testing every candidate modulus."""
    pi = s.rng.randint(lo, hi)
    n = 1 + 2 * pi
    while not ref.is_prime(n):
        n += 2 * pi
    argv = ["realize", "--pi", str(pi), "--nlimit", str(n - 1), "--format", s.fmt()]
    return s.take(Op(("exhaust", pi), check_exhausted, argv=argv, expect_rc=3))


def enumerate_op(s: Sampler, lo: int, hi: int) -> Op | None:
    """Library enumerate_realizations over an n_limit x p_limit box, both in
    [lo, hi], with max_results above any hit count: a full sweep."""
    pi = s.rng.randint(1, 24)
    n_limit = s.rng.randint(lo, hi)
    p_limit = s.rng.randint(lo, hi)
    return s.take(Op(("enumerate", pi, n_limit, p_limit),
        check_enumerate(pi, n_limit, p_limit, 10**6),
        func="enumerate_realizations", args=(pi, n_limit, p_limit, 10**6),
    ))


# ---------------------------------------------------------------- workloads

# (kind function, work band lo, hi, ops per round).  Each workload has a
# majority of light ops, where the median falls; a block of mid ops that holds
# the 90th percentile away from its edges; and about one op in thirty that is
# heavy and carries much of the time.  Band units are each kind's work
# estimate (see the kind functions).
WORKLOADS = {
    "oracle": [
        (gb_op, 0.05, 128, 22),
        (verify_op, 4, 32, 5),
        (gb_op, 362, 2048, 4),
        (verify_op, 128, 724, 4),
        (hk_brute_op, 1000, 4000, 1),
        (verify_skip_op, 1e8, 1.2e8, 1),
        (gb_op, 4096, 8192, 1),
        (verify_op, 1024, 2048, 1),
    ],
    "formula": [
        (period_op, 20, 99, 6),
        (period_op, 1000, 1050, 5),
        (table_op, 1e6, 1.5e6, 5),
        (minimal_period_op, 500, 600, 4),
        (minimal_period_op, 1800, 2200, 3),
        (table_op, 3e7, 4e7, 4),
        (period_op, 10_000, 10_500, 4),
        (period_op, 100_000, 105_000, 1),
    ],
    "search": [
        (realize_exhaust_op, 100, 5000, 4),
        (realize_op, 2**12, 2**15, 14),
        (realize_op, 2**15, 2**17, 4),
        (realize_op, 2**18, 2**19, 6),
        (enumerate_op, 95, 100, 1),
        (enumerate_op, 290, 300, 1),
    ],
}

# Ops placed once per run, in the first round: the ROADMAP baseline rows too
# slow to repeat every round, a multi-MB table, and the documented defect.
ONCE = {
    "oracle": [],
    "formula": [
        (period_op, 1_000_000, 1_010_000),
        (table_op, 1e9, 1.2e9),
        (table_defect_op, 1100, 1200),
    ],
    "search": [(realize_op, 1, 10**9, 4999)],
}

TINY = {
    "oracle": [(gb_op, 0.05, 64, 1), (verify_op, 4, 32, 1), (hk_brute_op, 1000, 4000, 1),
               (verify_skip_op, 1e6, 1.2e6, 1)],
    "formula": [(period_op, 20, 99, 1), (period_op, 1000, 1050, 1), (table_op, 1e6, 1.5e6, 1),
                (minimal_period_op, 200, 300, 1)],
    "search": [(realize_op, 2**12, 2**15, 1), (realize_exhaust_op, 100, 500, 1),
               (enumerate_op, 20, 25, 1)],
}
TINY_ONCE = {
    "oracle": [],
    "formula": [(table_defect_op, 1100, 1200)],
    "search": [],
}

MAX_TRIES = 20_000


class InputsExhausted(Exception):
    """A stratum has no fresh input left in its band."""


def _draw(s: Sampler, kind, *band) -> Op:
    s.stratum = f"{kind.__name__[:-3]}[{band[0]:g},{band[1]:g}]"
    for _ in range(MAX_TRIES):
        op = kind(s, *band)
        if op is not None:
            return op
    raise InputsExhausted(f"{kind.__name__}{band}")


def rounds(workload: str, seed: int, tiny: bool = False):
    """Yield the run's rounds, each a shuffled list of fresh ops.

    Ends when some stratum runs out of fresh inputs: a run never repeats an op.
    """
    s = Sampler(seed)
    strata = (TINY if tiny else WORKLOADS)[workload]
    once = (TINY_ONCE if tiny else ONCE)[workload]
    first = True
    while True:
        try:
            ops = [_draw(s, kind, lo, hi) for kind, lo, hi, count in strata for _ in range(count)]
            if first:
                ops += [_draw(s, kind, *band) for kind, *band in once]
        except InputsExhausted:
            return
        first = False
        s.rng.shuffle(ops)
        yield ops

"""The benchmark's own arithmetic: the yardstick every op output is checked against.

Nothing here imports hkkit.  Values come from HK(e) = n*q - b*(n-b) with
q = p**e and b = q % n, orders come from factoring Carmichael's lambda by trial
division, and primality is trial division, so a defect in hkkit's closed form,
period layer or number theory cannot hide behind the same defect here.

Decimal strings past CPython's 4300-digit int conversion limit are parsed in
chunks, so the limit itself is never raised.
"""

import math

_CHUNK = 4000  # decimal digits per conversion step, below the 4300 limit


def factorize(m: int) -> dict[int, int]:
    """Prime factorization of m >= 1 by trial division."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def is_prime(m: int) -> bool:
    return m >= 2 and factorize(m) == {m: 1}


def carmichael(n: int) -> int:
    """Exponent of the unit group mod n."""
    lam = 1
    for q, a in factorize(n).items():
        if q == 2 and a >= 3:
            part = 2 ** (a - 2)
        else:
            part = (q - 1) * q ** (a - 1)
        lam = lam * part // math.gcd(lam, part)
    return lam


def lambda_factors(n: int) -> tuple[int, list[int]]:
    """Carmichael's lambda of n and its prime factors."""
    lam = carmichael(n)
    return lam, list(factorize(lam))


def order(p: int, n: int, lam_factors: tuple[int, list[int]] | None = None) -> int:
    """Multiplicative order of p mod n (gcd(p, n) = 1), by stripping lambda's
    primes.  Callers that query many p for one n pass lambda_factors(n)."""
    omega, primes = lam_factors or lambda_factors(n)
    for q in primes:
        while omega % q == 0 and pow(p, omega // q, n) == 1:
            omega //= q
    return omega


def minimal_period(p: int, n: int, omega: int) -> int:
    """pi: omega / 2 when p^(omega/2) = n - 1 (mod n), else omega."""
    if omega % 2 == 0 and pow(p, omega // 2, n) == n - 1:
        return omega // 2
    return omega


def hk(p: int, n: int, e: int) -> int:
    q = p**e
    b = q % n
    return n * q - b * (n - b)


def period_ok(p: int, n: int, omega: int, pi: int, branch: str, involution: bool) -> bool:
    """omega is the order of p mod n, and pi/branch follow the involution test."""
    if omega < 1 or pow(p, omega, n) != 1:
        return False
    if any(pow(p, omega // q, n) == 1 for q in factorize(omega)):
        return False
    halves = minimal_period(p, n, omega) < omega
    want = ("HALF", omega // 2) if halves else ("FULL", omega)
    return involution is halves and (branch, pi) == want


def profile_ok(p: int, n: int, omega: int, tokens) -> bool:
    """tokens (decimal strings) are phi(0), ..., phi(omega - 1), phi(e) = b(n-b)."""
    b = 1
    count = 0
    for tok in tokens:
        if count == omega or int(tok) != b * (n - b):
            return False
        b = b * p % n
        count += 1
    return count == omega


def to_int(s: str) -> int:
    """int(s) for a decimal string of any length, in sub-limit chunks."""
    s = s.strip()
    sign = -1 if s.startswith("-") else 1
    digits = s.lstrip("+-")
    if not digits.isdigit():
        raise ValueError(f"not a decimal integer: {s[:40]!r}")
    value = 0
    for i in range(0, len(digits), _CHUNK):
        chunk = digits[i : i + _CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def monomial(i: int, j: int) -> str:
    """hkkit's rendering of x^i*y^j."""
    parts = []
    for var, k in (("x", i), ("y", j)):
        if k == 1:
            parts.append(var)
        elif k > 1:
            parts.append(f"{var}^{k}")
    return "*".join(parts) or "1"


def reduced_basis(p: int, n: int, q: int) -> list[tuple[str, int, int]]:
    """Reduced lex basis of (x^q, y^q, x^n - y^n) as (text, lead_i, lead_j), ascending.

    For q < n the relation reduces to zero and the basis is {y^q, x^q};
    for q > n it is {y^q, x^b y^(q-b), x^n - y^n} with b = q mod n.
    """
    if q < n:
        return [(monomial(0, q), 0, q), (monomial(q, 0), q, 0)]
    b = q % n
    tail = monomial(0, n) if p == 2 else f"{p - 1}*{monomial(0, n)}"
    return [
        (monomial(0, q), 0, q),
        (monomial(b, q - b), b, q - b),
        (f"{monomial(n, 0)} + {tail}", n, 0),
    ]

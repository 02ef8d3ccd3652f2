"""The same-bytes corpus of `hkkit gb`, `verify`, `table`, `period` and `realize`.

A fixed list of argvs (ARGVS), and a digest file (cli_corpus.txt) with one
line per argv: its exit code, the first 12 hex digits of the sha256 of its
stdout and of its stderr, and the argv.  In an argv a token B^E stands for
the integer B**E, written out in full when the argv is run.

    PYTHONPATH=src python tests/cli_corpus.py > tests/cli_corpus.txt

writes the file from the code checked out; test_cli_corpus.py runs every
argv in-process and names each one whose line differs.  Regenerate the file
only with a documented change of output format, whose diff then names each
argv that changed.

Coverage: every p <= 13 and 2 <= n < 30 (at an n that p divides, one
argv of each command: bad input), in every format, at p = 2 and at p > 2:
  - gb at e = 0, 1 and 3 under the default q cap, at e = 7 and at the
    largest e with q <= 2^4096 under --qcap 2^4096;
  - verify at --emax 6 under the default cap (rows past it are skipped), and
    at --emax 60 under --qcap 2^4096 for a few n per p;
  - bad input (exit 2), an output too large to build (exit 4) and argvs
    that argparse reads, refusing or accepting them;
  - table at --emax 0 and 1, and at the last --emax whose q = p^emax the
    int walk takes and the first the exact Decimal walk takes (cli's
    _INT_TABLE_BITS), at one n per p that p divides, at --emax -1, and at
    p = 10007 with values past 4,300 digits;
  - period at every such p and n, one that p divides included;
  - realize at --pi 1 to 12, at --pi 0 (bad input), and two searches that
    exhaust their limits (exit 3);
  - README's five CLI examples, as written there.
Exit 1 (a closed form the oracle refutes) is not among them: it takes a
faulty library.  Neither is help, whose layout varies with the Python
version and the terminal's width.
"""

import hashlib
import math
import os
import sys

from hkkit.cli import _INT_TABLE_BITS, LIMITS, run

PRIMES = (2, 3, 5, 7, 11, 13)
FORMATS = ("plain", "csv", "json")
CAP = "2^4096"
# the largest e with p^e <= 2^4096
MAX_E = {p: max(e for e in range(4097) if p**e <= 2**4096) for p in PRIMES}
# the n per p that verify runs to e = 60: small, prime, composite, and q < n
LONG_VERIFY_N = (2, 3, 10, 29)
# table's --emax per p: 0, 1, the last the int walk takes and the first past it
TABLE_EMAX = {p: (0, 1, last, last + 1) for p in PRIMES
              for last in [int(_INT_TABLE_BITS / math.log2(p))]}


def _argvs() -> list[str]:
    argvs = []
    for p in PRIMES:
        for n in range(2, 30):
            ring = f"--p {p} --n {n}"
            if n % p == 0:  # refused as bad input before any work
                argvs += [f"{cmd} {ring} --format {fmt}" for fmt in FORMATS
                          for cmd in ("gb --e 1", "verify --emax 6")]
                continue
            for fmt in FORMATS:
                argvs += [f"gb {ring} --e {e} --format {fmt}" for e in (0, 1, 3)]
                argvs += [f"gb {ring} --e {e} --qcap {CAP} --format {fmt}"
                          for e in (7, MAX_E[p])]
                argvs.append(f"verify {ring} --emax 6 --format {fmt}")
                if n in LONG_VERIFY_N:
                    argvs.append(f"verify {ring} --emax 60 --qcap {CAP} --format {fmt}")
    for fmt in FORMATS:
        argvs += [
            f"gb --p 4 --n 5 --e 1 --format {fmt}",  # composite p
            f"gb --p 318665857834031151167461 --n 7 --e 1 --format {fmt}",  # strong pseudoprime
            f"gb --p 2 --n 1 --e 1 --format {fmt}",
            f"gb --p 2 --n 5 --e -1 --format {fmt}",
            f"gb --p 3 --n 5 --e 7 --format {fmt}",  # q past the default cap
            f"gb --p 2 --n 5 --e 100000000000 --format {fmt}",  # refused from bit lengths
            f"gb --p 2 --n 5 --e 1 --qcap 0 --format {fmt}",
            f"verify --p 4 --n 5 --emax 1 --format {fmt}",
            f"verify --p 2 --n 5 --emax -1 --format {fmt}",
            f"verify --p 2 --n 5 --emax 3 --qcap -5 --format {fmt}",
            # 2^61 skipped e: the plain and csv ends print, the JSON list cannot be built
            f"verify --p 2 --n 5 --emax 2^61 --format {fmt}",
        ]
    argvs += [
        "", "gb", "verify", "gb --p 2", "gb --p 2 --n 3 --e x",
        "verify --p 2 --n 3 --emax 1 --bogus 1", "gb --p 2 --n 3 --e 1 extra",
        "gb --p=2 --n=3 --e=1 --form json", "verify --p=3 --n=5 --emax=4 --format=csv",
        "gb --format json --p 2 --n 3 --e 1 --e 2", "verify --qcap 4 --p 2 --n 7 --emax 4",
    ]
    return argvs + _table_argvs() + _period_and_realize_argvs()


def _table_argvs() -> list[str]:
    argvs = [f"table --p {p} --n {n} --emax {emax} --format {fmt}"
             for p in PRIMES for n in range(2, 30) if n % p
             for fmt in FORMATS for emax in TABLE_EMAX[p]]
    argvs += [f"table --p {p} --n {p * 2} --emax 3 --format {FORMATS[k % 3]}"
              for k, p in enumerate(PRIMES)]  # p divides n: bad input
    for fmt in FORMATS:
        argvs += [
            f"table --p 2 --n 7 --emax -1 --format {fmt}",
            # q = 10007^1100 has 4,401 digits, past CPython's int/str limit
            f"table --p 10007 --n 7 --emax 1100 --format {fmt}",
            f"table --p 10007 --n 29 --emax 1076 --format {fmt}",
        ]
    return argvs


def _period_and_realize_argvs() -> list[str]:
    # at an n that p divides, period refuses the ring as bad input
    argvs = [f"period --p {p} --n {n} --format {fmt}"
             for p in PRIMES for n in range(2, 30) for fmt in FORMATS]
    argvs += [f"realize --pi {pi} --format {fmt}" for pi in range(1, 13) for fmt in FORMATS]
    for fmt in FORMATS:
        argvs += [
            f"realize --pi 0 --format {fmt}",
            # search exhausted: no modulus, then no characteristic, within the limits
            f"realize --pi 1000 --nlimit 10 --format {fmt}",
            f"realize --pi 12 --nlimit 100 --plimit 5 --format {fmt}",
        ]
    # README's CLI examples, as written there
    return argvs + ["table --p 2 --n 5 --emax 3", "period --p 2 --n 5", "realize --pi 6",
                    "verify --p 2 --n 7 --emax 5", "gb --p 2 --n 3 --e 2"]


ARGVS = _argvs()


def expand(argv: str) -> list[str]:
    """The argv as main reads it: each B^E token as the integer B**E."""
    out = []
    for token in argv.split():
        base, caret, exp = token.partition("^")
        out.append(str(int(base) ** int(exp)) if caret else token)
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def line(argv: str) -> str:
    """argv's line of the digest file, from one in-process run of main.

    The limit variables are unset for the run.  When argparse refuses the
    argv, its stderr starts with `usage: ` and only its last line, the error,
    is digested: the usage lines wrap at the terminal's width and their layout
    varies between Python versions.
    """
    saved = {var: os.environ.pop(var) for var, _, _ in LIMITS.values() if var in os.environ}
    try:
        code, out, err = run(expand(argv))
    finally:
        os.environ.update(saved)
    if err.startswith("usage: "):
        err = err.splitlines(True)[-1]
    return f"{code} {_digest(out)} {_digest(err)} {argv}".rstrip(" ")


if __name__ == "__main__":
    sys.stdout.writelines(line(argv) + "\n" for argv in ARGVS)

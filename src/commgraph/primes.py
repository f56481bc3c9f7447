"""Primality testing and integer factorization.

Shared by the field, group and parameter-search layers; `search-params`
loads only this module and `params`.
"""

from __future__ import annotations

import itertools
import math

from .errors import FactorBudgetExceeded

# Miller-Rabin with the first 13 primes as bases is deterministic below
# 3317044064679887385961981 (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin test with the first 13 prime bases.

    The answer is proven for n < 3.3e24.  Above that bound a True means
    "probable prime": a composite that passes all 13 bases is not ruled out.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Trial division tries the divisors below this bound.  Every n < 10**6 is
# finished before it, so group orders are factored by the plain loop alone.
_TRIAL_LIMIT = 1000
# Iterations of x -> x^2 + c that one factorize call may spend in rho.  The
# quotients (q^r - 1)/(q - 1) with q <= 79 need at most about 2**20 (at
# (59, 29), 0.8 s); the 77-digit one at (83, 41) does not split within the
# budget, and gives up after about 6 s (2 vCPU, CPython 3.11.7).
RHO_BUDGET = 2 ** 22
_RHO_BATCH = 128


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: multiplicity}, keys ascending.

    Trial division by the odd numbers below 1000 (and 2), then Pollard's rho
    in Brent's form (BIT 20, 1980) on a composite cofactor.  The split parts
    count as prime when `is_prime` says so, so above 3.3e24 a key is prime
    only up to that probable-prime test.  Raises FactorBudgetExceeded when
    rho has taken RHO_BUDGET steps in this call.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d < _TRIAL_LIMIT and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        primes, work, budget = [], [n], RHO_BUDGET
        while work:
            m = work.pop()
            if m < d * d or is_prime(m):  # m has no factor below d
                primes.append(m)
            else:
                g, budget = _rho_split(m, budget)
                work += [g, m // g]
        for p in sorted(primes):
            out[p] = out.get(p, 0) + 1
    return out


def _rho_split(m: int, budget: int) -> tuple[int, int]:
    """A proper factor of the odd composite m, and the budget left after it.

    Brent's cycle search on x -> x^2 + c: the differences |x - y| are
    multiplied together and one gcd is taken per batch; when the batch gcd
    is m, the batch is walked again one step at a time, and when that also
    ends at m the next c is tried.
    """
    for c in itertools.count(1):
        y, q, g, r = 2, 1, 1, 1
        while g == 1:
            budget -= 2 * r  # r steps to move x on, at most r more to search
            if budget < 0:
                raise FactorBudgetExceeded(
                    f"no factor of a {len(str(m))}-digit cofactor within {RHO_BUDGET} rho steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = math.gcd(q, m)
                k += _RHO_BATCH
            r *= 2
        if g == m:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(abs(x - ys), m)
        if g != m:
            return g, budget

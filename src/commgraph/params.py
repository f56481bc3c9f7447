"""Parameter triples (q, r, t) of the diameter-8 witness family.

Number theory only, so `search-params` compiles none of the field and group
code that `diameter8` builds the witness group with.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import FactorBudgetExceeded
from .primes import factorize, is_prime

ParamTriple = namedtuple("ParamTriple", "q r t")


def validate_params(q: int, r: int, t: int) -> list[str]:
    """Return the list of violated parameter constraints (empty if valid)."""
    problems = []
    if not (is_prime(q) and q % 2 == 1):
        problems.append(f"q={q} must be an odd prime")
    if not (is_prime(r) and r >= 5):
        problems.append(f"r={r} must be a prime >= 5")
    if problems:
        return problems
    if (q - 1) % r != 0:
        problems.append(f"r={r} must divide q-1={q - 1}")
    elif (q - 1) % (r * r) == 0:
        problems.append(f"r={r} must divide q-1 exactly (r^2 divides {q - 1})")
    if not is_prime(t):
        problems.append(f"t={t} must be prime")
    else:
        # (q^r-1)/(q-1) mod t, from q^r mod t(q-1): the quotient itself has
        # about r*log10(q) digits
        if (pow(q, r, t * (q - 1)) - 1) // (q - 1) % t != 0:
            problems.append(f"t={t} must divide (q^r-1)/(q-1)")
        if (q - 1) % t == 0:
            problems.append(f"t={t} must not divide q-1={q - 1}")
    return problems


def find_params(q_max: int) -> list[ParamTriple]:
    """All (q, r, least valid t) with q <= q_max, sorted by (q, r, t)."""
    out = []
    for q in range(3, q_max + 1, 2):
        if not is_prime(q):
            continue
        for r in factorize(q - 1):
            if r < 5 or (q - 1) % (r * r) == 0:
                continue
            quotient = (q ** r - 1) // (q - 1)
            try:
                primes = factorize(quotient)
            except FactorBudgetExceeded as exc:
                raise FactorBudgetExceeded(
                    f"cannot factor (q^r-1)/(q-1) at q={q}, r={r}: {exc}"
                ) from None
            t = min((ell for ell in primes if (q - 1) % ell != 0), default=None)
            if t is not None:
                out.append(ParamTriple(q, r, t))
    out.sort()
    return out


def example_group_order(params: ParamTriple) -> int:
    """|G| = q^(4r) * r^2 * t."""
    return params.q ** (4 * params.r) * params.r ** 2 * params.t

"""Small, independent GF(2^n) arithmetic for input generation and oracles.

Nothing here imports the package under test: the benchmark derives which
inputs are positive, and re-checks witnesses, with its own shift-and-xor
multiplication.
"""

from math import gcd


def mul(a: int, b: int, modulus: int) -> int:
    """Product of two field elements, reduced modulo the irreducible."""
    top = 1 << (modulus.bit_length() - 1)
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= modulus
    return out


def mult_orders(modulus: int) -> list[int]:
    """order[a] = multiplicative order of a, for 0 < a < 2^n (order[0] = 0)."""
    size = 1 << (modulus.bit_length() - 1)
    group = size - 1
    for g in range(2, size):
        logs = [0] * size
        v, k = 1, 0
        while True:
            logs[v] = k
            v = mul(v, g, modulus)
            k += 1
            if v == 1:
                break
        if k == group:
            return [0] + [group // gcd(logs[a], group) for a in range(1, size)]
    raise ValueError(f"no generator found for modulus {modulus:#x}")

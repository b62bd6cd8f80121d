"""Exact coefficient fields: the rationals and prime fields F_p."""
from __future__ import annotations


# the first 13 primes: as Miller-Rabin bases they decide primality
# exactly below _PRIME_BOUND (Sorenson and Webster, Math. Comp. 86, 2017)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= p < _PRIME_BOUND."""
    if p < 2:
        return False
    for a in _BASES:
        if p % a == 0:
            return p == a
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _integral(q):
    """A Fraction q as an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


class Field:
    """A field of characteristic 0 (rationals) or p (integers mod p).

    Elements are plain Python numbers. Rules emit +-1 signs and their
    products with stored values as plain numbers, and this object's
    arithmetic reduces them where they are stored or tested: of in the
    fills of chain and in Matrix, the elimination in linalg, and add in
    the few sums whose zero test steers control flow. Over Q an element
    is an int when it is integral and a Fraction otherwise, so the common
    +-1 and small integer scalars take int arithmetic; add, sub, mul and
    neg keep ints as ints, and inv turns an integral result back into an
    int. Over F_p an element is an int in 0..p-1. Mixed int and Fraction
    values compare and hash equal, so either form may reach a Matrix.
    """

    def __init__(self, characteristic: int = 0):
        if characteristic >= _PRIME_BOUND:
            raise ValueError(f"characteristic must be below {_PRIME_BOUND}, "
                             f"got {characteristic}")
        if characteristic != 0 and not _is_prime(characteristic):
            raise ValueError(f"characteristic must be 0 or prime, got {characteristic}")
        self.char = characteristic
        self.zero = 0
        self.one = 1

    def of(self, x):
        """Coerce an int, Fraction, or 'a/b' string into this field. An
        int returns at once, with no isinstance test against Fraction,
        whose ABC metaclass makes that test slow, and the fractions
        module is imported only past that return, so a run whose scalars
        are all ints never loads it."""
        if type(x) is int:
            return x % self.char if self.char else x
        from fractions import Fraction
        if isinstance(x, str):
            x = Fraction(x)
        if self.char == 0:
            return int(x) if isinstance(x, int) else _integral(Fraction(x))
        if isinstance(x, Fraction):
            if x.denominator % self.char == 0:
                raise ZeroDivisionError("denominator not invertible mod p")
            return (x.numerator * pow(x.denominator, -1, self.char)) % self.char
        return int(x) % self.char

    def add(self, a, b):
        return a + b if self.char == 0 else (a + b) % self.char

    def sub(self, a, b):
        return a - b if self.char == 0 else (a - b) % self.char

    def mul(self, a, b):
        return a * b if self.char == 0 else (a * b) % self.char

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        if self.char:
            return pow(a, -1, self.char)
        if a == 1 or a == -1:
            return int(a)
        from fractions import Fraction
        return _integral(Fraction(1) / a)

    def is_unit_entry(self, a):
        # pivots with value +-1 keep rational elimination fraction-free
        return a == self.one or a == self.neg(self.one)

    def __eq__(self, other):
        return isinstance(other, Field) and other.char == self.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "Q" if self.char == 0 else f"F{self.char}"


QQ = Field(0)
F2 = Field(2)

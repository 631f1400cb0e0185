"""Prime fields, monomials and ring term orders.

Monomial comparison is the hottest operation in the whole engine, so every
monomial caches an integer sort key.  All supported orders are linear
functionals of the exponent vector, packed into one big integer with
28-bit digits; comparing keys as integers is then equivalent to comparing
monomials in the ring order, and the key of a product is the sum of the
keys.  The linearity also holds for formal exponent differences (used by
sig/lead ratio comparisons), as long as every entry stays well below the
digit base.  key_bound gives a strict bound on the keys, so a key can be
packed with further sort fields into one integer.

Every monomial also caches its packed exponent word: variable i owns the
17-bit field at bit 17*i, its exponent in the low 16 bits and a guard bit
(bit 16 of the field) that is clear in every stored word.  The ring's
guard mask G has all guard bits set.  Every exponent stays below the
2^16 cap, which is checked before a word is formed, so a field never
carries into its neighbour and the exponent-wise tests are a few integer
operations on whole words:

* a divides b  iff  ((b | G) - a) & G == G: field i of b | G minus a_i
  keeps its guard bit exactly when a_i <= b_i, and never borrows from the
  next field;
* lcm(a, b): d = ((a | G) - b) & G marks the fields where a_i >= b_i,
  m = d - (d >> 16) fills those fields' low 16 bits, and the lcm is
  (a & m) | (b & ~m);
* the word of a product is the sum of the words, of a quotient their
  difference; a product field at or past the cap raises before it exists.
"""

from __future__ import annotations

from operator import add as _add, lshift as _lshift, mul as _mul, sub as _sub

GREVLEX = "grevlex"
LEX = "lex"
ELIM = "elim"

# Exponents are capped so that packed keys of monomials, and of differences
# of a few monomials, never produce a digit carry.
MAX_EXPONENT = 1 << 16
_DIGIT_BASE = 1 << 28
# One exponent word field per variable: 16 exponent bits and a guard bit.
WORD_FIELD = 17
# The order weights take about 3.5 * n^2 bytes in n variables; the largest
# builtin ideal in use has 10.
MAX_VARS = 256

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class InvariantError(RuntimeError):
    """A result guard failed: the engine reached a state it must not."""


def require(ok, what: str) -> None:
    """Raise InvariantError(what) unless ok; unlike assert, also under -O."""
    if not ok:
        raise InvariantError(what)


def key_bound(num_vars: int) -> int:
    """Strict bound on |key| of any monomial in num_vars variables, and on
    |key difference| of two of them.  Every order weight is below
    2 * B^(n+2) (B the digit base) and every exponent below MAX_EXPONENT."""
    return num_vars * MAX_EXPONENT * _DIGIT_BASE ** (num_vars + 3)


def clip(text: str, width: int = 40) -> str:
    """text cut to width characters, for echoing in an error message."""
    return text if len(text) <= width else text[:width] + "..."


def is_decimal(text: str) -> bool:
    """True for ASCII digits [0-9]+ only; int() also takes a sign, "_",
    spaces and other scripts' digits."""
    return text.isascii() and text.isdigit()


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # Deterministic Miller-Rabin for anything below 3.3 * 10^24.
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def ff_inv(a: int, p: int) -> int:
    """Multiplicative inverse of a modulo the prime p."""
    if a % p == 0:
        raise ValueError("not invertible")
    return pow(a, -1, p)


def guard_mask(num_vars: int) -> int:
    """The guard bits of every field of a num_vars-variable word."""
    return sum(MAX_EXPONENT << s
               for s in range(0, WORD_FIELD * num_vars, WORD_FIELD))


def word_divides(a: int, b: int, guard: int) -> bool:
    """True when the monomial of word a divides that of word b, guard
    being their ring's guard mask.  Hot loops inline it, with b | guard
    computed once per query."""
    return ((b | guard) - a) & guard == guard


def word_max(a: int, b: int, guard: int) -> int:
    """Field-wise maximum of two exponent words, guard being their ring's
    guard mask: the word of the lcm."""
    d = ((a | guard) - b) & guard
    m = d - (d >> 16)
    return (a & m) | (b & ~m)


class Monomial:
    """Exponent vector with cached degree, order key and packed word."""

    __slots__ = ("exps", "deg", "key", "word")

    def __init__(self, exps, deg, key, word):
        self.exps = exps
        self.deg = deg
        self.key = key
        self.word = word

    # within one ring the word determines the exponent vector
    def __hash__(self):
        return hash(self.word)

    def __eq__(self, other):
        return self is other or self.word == other.word

    def __repr__(self):
        return "Monomial%r" % (self.exps,)


class Ring:
    """Polynomial ring F_p[x1..xn] with a fixed term order.

    order is one of "grevlex", "lex" or "elim"; for "elim" the first
    elim_block variables are eliminated (compared by their degree sum),
    with ties broken by grevlex on the whole exponent vector.
    """

    __slots__ = ("char", "num_vars", "order", "elim_block", "_weights",
                 "_shifts", "guard", "ones", "one")

    def __init__(self, char: int, num_vars: int, order: str = GREVLEX,
                 elim_block: int | None = None):
        if not 2 <= char < 2**31 or not is_prime(char):
            raise ValueError("characteristic not prime or out of range")
        if not 1 <= num_vars <= MAX_VARS:
            raise ValueError("variable count not in 1..%d" % MAX_VARS)
        if order == ELIM:
            if elim_block is None or not 1 <= elim_block < num_vars:
                raise ValueError("elimination block size out of range")
        elif order in (GREVLEX, LEX):
            elim_block = None
        else:
            raise ValueError("unknown term order %r" % (order,))
        self.char = char
        self.num_vars = num_vars
        self.order = order
        self.elim_block = elim_block
        self._weights = self._order_weights()
        self._shifts = tuple(range(0, WORD_FIELD * num_vars, WORD_FIELD))
        self.guard = guard_mask(num_vars)
        self.ones = self.guard >> 16        # a 1 in every field
        self.one = Monomial((0,) * num_vars, 0, 0, 0)

    def _order_weights(self):
        n = self.num_vars
        B = _DIGIT_BASE
        if self.order == LEX:
            return tuple(B ** (n - 1 - i) for i in range(n))
        # grevlex: key(v) = deg(v)*B^n - sum_k v_k B^(k-1); the most
        # significant varying digit is the negated last exponent.
        grev = tuple(B ** n - B ** i for i in range(n))
        if self.order == GREVLEX:
            return grev
        k = self.elim_block
        top = B ** (n + 2)
        return tuple(grev[i] + (top if i < k else 0) for i in range(n))

    # -- monomial construction ------------------------------------------

    def mono(self, exps) -> Monomial:
        exps = tuple(exps)
        if len(exps) != self.num_vars:
            raise ValueError("wrong number of exponents")
        if min(exps) < 0 or max(exps) >= MAX_EXPONENT:
            raise ValueError("exponent out of range")
        return Monomial(exps, sum(exps), self.key_of(exps),
                        self.word_of(exps))

    def key_of(self, exps) -> int:
        """Order key of an exponent vector: its dot product with the
        order weights."""
        return sum(map(_mul, exps, self._weights))

    def word_of(self, exps) -> int:
        """Packed word of an exponent vector, each entry in
        [0, MAX_EXPONENT)."""
        return sum(map(_lshift, exps, self._shifts))

    # -- monomial arithmetic --------------------------------------------

    def mono_mul(self, a: Monomial, b: Monomial) -> Monomial:
        exps = tuple(map(_add, a.exps, b.exps))
        deg = a.deg + b.deg
        # no exponent can reach the cap while the degree stays below it
        if deg >= MAX_EXPONENT and max(exps) >= MAX_EXPONENT:
            raise ValueError("exponent out of range")
        return Monomial(exps, deg, a.key + b.key, a.word + b.word)

    def mono_div(self, a: Monomial, b: Monomial) -> Monomial:
        if not word_divides(b.word, a.word, self.guard):
            raise ValueError("not divisible")
        return Monomial(tuple(map(_sub, a.exps, b.exps)), a.deg - b.deg,
                        a.key - b.key, a.word - b.word)

    def mono_gcd(self, a: Monomial, b: Monomial) -> Monomial:
        return self.mono(map(min, a.exps, b.exps))

    def mono_lcm(self, a: Monomial, b: Monomial) -> Monomial:
        exps = tuple(map(max, a.exps, b.exps))
        return Monomial(exps, sum(exps), self.key_of(exps),
                        word_max(a.word, b.word, self.guard))

    def mono_divides(self, a: Monomial, b: Monomial) -> bool:
        """True when a divides b."""
        return word_divides(a.word, b.word, self.guard)

    def mono_coprime(self, a: Monomial, b: Monomial) -> bool:
        """True when no variable occurs in both a and b."""
        # (w | G) - ones keeps a field's guard bit iff the field is nonzero
        g, ones = self.guard, self.ones
        return not ((a.word | g) - ones) & ((b.word | g) - ones) & g

    def order_spec(self) -> str:
        if self.order == ELIM:
            return "elim %d" % self.elim_block
        return self.order

    def __repr__(self):
        return "Ring(char=%d, num_vars=%d, order=%s)" % (
            self.char, self.num_vars, self.order_spec())


def ring_from_order_spec(char: int, num_vars: int, spec: str) -> Ring:
    """Build a ring from an order line such as "grevlex" or "elim 4"."""
    parts = spec.split()
    if not parts:
        raise ValueError("empty order spec")
    if parts[0] == ELIM:
        if len(parts) != 2 or not is_decimal(parts[1]):
            raise ValueError("bad elimination order spec %r" % (clip(spec),))
        if len(parts[1]) > 3:       # no block that long fits MAX_VARS
            raise ValueError("elimination block size out of range")
        return Ring(char, num_vars, ELIM, int(parts[1]))
    if len(parts) != 1 or parts[0] not in (GREVLEX, LEX):
        raise ValueError("unknown term order %r" % (clip(spec),))
    return Ring(char, num_vars, parts[0])

"""Prime fields, monomials and ring term orders.

A monomial is its packed exponent word and its order key.  Variable i
owns one 28-bit field of the word, its exponent in the low 16 bits, bit
16 a guard bit that is clear in every stored word, and the bits above
spare.  Under lex the fields are laid out in reverse (variable 0 in the
top field), otherwise variable i sits at bit 28 * i.  The ring's guard
mask G has all guard bits set.  Every exponent stays below the 2^16 cap,
so a field never carries into its neighbour and the exponent-wise tests
are a few integer operations on whole words:

* a divides b  iff  ((b | G) - a) & G == G: field i of b | G minus a_i
  keeps its guard bit exactly when a_i <= b_i, and never borrows from the
  next field;
* lcm(a, b): d = ((a | G) - b) & G marks the fields where a_i >= b_i,
  m = d - (d >> 16) fills those fields' low 16 bits, and the lcm is
  (a & m) | (b & ~m);
* gcd(a, b) is a + b - lcm(a, b), field by field;
* the word of a product is the sum of the words, of a quotient their
  difference.  The one cap test: a sum of two words holds an exponent at
  or past the cap exactly when it has a guard bit set.

The exponent vector and the degree are read off the word on demand
(Monomial.exps and .deg, Ring.exps_of and deg_of_word); no arithmetic
builds them.

Monomial comparison is the hottest operation in the whole engine, so every
monomial also caches an integer sort key, read off its word: each field
is one digit base B = 2^28 of the key.  The lex key is the word itself;
the grevlex key is deg * B^n - word, and elim adds the block degree
times B^(n+2).  The degrees are digits of word * (1 + B + ... + B^(n-1)),
whose digit j sums fields 0..j without a carry.  Comparing keys as
integers is then equivalent to comparing monomials in the ring order, and
the key of a product is the sum of the keys.  The linearity also holds
for formal exponent differences (used by sig/lead ratio comparisons), as
long as every entry stays well below the digit base.  key_bound gives a
strict bound on the keys, so a key can be packed with further sort
fields into one integer.
"""

from __future__ import annotations

from itertools import repeat
from operator import and_ as _and, lshift as _lshift, rshift as _rshift

GREVLEX = "grevlex"
LEX = "lex"
ELIM = "elim"

# Exponents are capped so that packed keys of monomials, and of differences
# of a few monomials, never produce a digit carry.
MAX_EXPONENT = 1 << 16
# One exponent word field per variable, one key digit: 16 exponent bits, a
# guard bit, and room for a degree sum over MAX_VARS fields.
WORD_FIELD = 28
_DIGIT_BASE = 1 << WORD_FIELD
# A degree digit sums n fields of under 2^16 each, so n may be at most
# 2^12; the cap sits well inside that.  The largest builtin ideal in use
# has 10 variables.
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
    |key difference| of two of them.  A key is a combination of the
    exponents whose weights are each below 2 * B^(n+2) (B the digit base),
    and every exponent is below MAX_EXPONENT."""
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


def _exps_of(word: int, shifts) -> tuple:
    """Exponent vector of a packed word whose guard bits are clear, its
    fields at the bit offsets shifts."""
    return tuple(map(_and, map(_rshift, repeat(word), shifts),
                     repeat(MAX_EXPONENT - 1)))


class Monomial:
    """A packed exponent word with its order key.  It keeps its ring's
    field offsets, not the ring, so that Ring.one makes no cycle."""

    __slots__ = ("word", "key", "_shifts")

    def __init__(self, word, key, shifts):
        self.word = word
        self.key = key
        self._shifts = shifts

    @property
    def exps(self):
        return _exps_of(self.word, self._shifts)

    @property
    def deg(self):
        return sum(self.exps)

    # iterates as its exponent vector, as DivMap.mask_of reads it
    def __iter__(self):
        return iter(self.exps)

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

    __slots__ = ("char", "num_vars", "order", "elim_block", "shifts",
                 "guard", "ones", "_deg_digit", "_block_digit",
                 "_block_shift", "one")

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
        n, k, F = num_vars, elim_block or 1, WORD_FIELD
        shifts = tuple(range(0, F * n, F))
        self.shifts = shifts[::-1] if order == LEX else shifts
        self.guard = guard_mask(n)
        self.ones = self.guard >> 16        # a 1 in every field
        # digit n-1 of word * ones is the degree, digit k-1 the elim block
        # degree; key_of_word moves them to digits n and n+2
        self._deg_digit = (_DIGIT_BASE - 1) << F * (n - 1)
        self._block_digit = (_DIGIT_BASE - 1) << F * (k - 1)
        self._block_shift = F * (n + 3 - k)
        self.one = Monomial(0, 0, self.shifts)

    # -- monomial construction ------------------------------------------

    def mono(self, exps) -> Monomial:
        exps = tuple(exps)
        if len(exps) != self.num_vars:
            raise ValueError("wrong number of exponents")
        if min(exps) < 0 or max(exps) >= MAX_EXPONENT:
            raise ValueError("exponent out of range")
        return self.mono_of_word(self.word_of(exps))

    def mono_of_word(self, word: int) -> Monomial:
        """The monomial of a packed word whose guard bits are clear."""
        return Monomial(word, self.key_of_word(word), self.shifts)

    def key_of_word(self, word: int) -> int:
        """Order key of a packed word whose guard bits are clear."""
        if self.order == LEX:
            return word
        sums = word * self.ones
        key = ((sums & self._deg_digit) << WORD_FIELD) - word
        if self.elim_block:
            key += (sums & self._block_digit) << self._block_shift
        return key

    def deg_of_word(self, word: int) -> int:
        """Total degree of a packed word whose guard bits are clear."""
        return (word * self.ones & self._deg_digit) >> \
            WORD_FIELD * (self.num_vars - 1)

    def word_of(self, exps) -> int:
        """Packed word of an exponent vector, each entry in
        [0, MAX_EXPONENT)."""
        return sum(map(_lshift, exps, self.shifts))

    def exps_of(self, word: int) -> tuple:
        """Exponent vector of a packed word whose guard bits are clear:
        the inverse of word_of."""
        return _exps_of(word, self.shifts)

    # -- monomial arithmetic --------------------------------------------

    def mono_mul(self, a: Monomial, b: Monomial) -> Monomial:
        word = a.word + b.word
        if word & self.guard:
            raise ValueError("exponent out of range")
        return Monomial(word, a.key + b.key, self.shifts)

    def mono_div(self, a: Monomial, b: Monomial) -> Monomial:
        if not word_divides(b.word, a.word, self.guard):
            raise ValueError("not divisible")
        return Monomial(a.word - b.word, a.key - b.key, self.shifts)

    def mono_gcd(self, a: Monomial, b: Monomial) -> Monomial:
        return self.mono_of_word(
            a.word + b.word - word_max(a.word, b.word, self.guard))

    def mono_lcm(self, a: Monomial, b: Monomial) -> Monomial:
        return self.mono_of_word(word_max(a.word, b.word, self.guard))

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

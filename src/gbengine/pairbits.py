"""Triangular bit array over unordered basis-element pairs.

Used by the classic algorithm to mark eliminated-or-reduced pairs and by
the signature algorithm to mark pairs whose S-pair signature is known to
be a syzygy signature.  An optional bit cap implements the memory
fallback: on overflow the whole triangle is dropped and every later query
answers False.
"""

from __future__ import annotations


class BitTriangle:
    __slots__ = ("bits", "cap_bits", "dropped")

    def __init__(self, cap_bits: int | None = None):
        self.bits = bytearray()
        self.cap_bits = cap_bits
        self.dropped = False

    # The bit of pair {i, j}, i < j, is j * (j - 1) // 2 + i; set and get
    # compute it inline, as they run once per pair test.

    def set(self, i: int, j: int) -> None:
        if self.dropped or i == j:
            return
        idx = i * (i - 1) // 2 + j if i > j else j * (j - 1) // 2 + i
        if self.cap_bits is not None and idx >= self.cap_bits:
            self.drop()
            return
        byte = idx >> 3
        if byte >= len(self.bits):
            self.bits.extend(b"\0" * (byte + 1 - len(self.bits)))
        self.bits[byte] |= 1 << (idx & 7)

    def set_column(self, j: int, rows) -> None:
        """set(i, j) for each i in rows, distinct and each below j, at
        once.  set(max(rows), j) drops the triangle or grows the bits as
        the rows would; a drop forgets the other rows' bits anyway."""
        if rows:
            self.set(max(rows), j)
            if not self.dropped:
                base = j * (j - 1) // 2
                bits, lo = self.bits, base >> 3
                new = sum(map((1 << (base & 7)).__lshift__, rows))
                bits[lo:] = (int.from_bytes(bits[lo:], "little") | new) \
                    .to_bytes(len(bits) - lo, "little")

    def get(self, i: int, j: int) -> bool:
        if self.dropped or i == j:
            return False
        idx = i * (i - 1) // 2 + j if i > j else j * (j - 1) // 2 + i
        byte = idx >> 3
        if byte >= len(self.bits):
            return False
        return bool(self.bits[byte] & (1 << (idx & 7)))

    def drop(self) -> None:
        """Memory fallback: forget everything, answer False from now on."""
        self.bits = bytearray()
        self.dropped = True

"""Host-speed reference for the benchmark's timings.

The shared host this benchmark was built on changes speed by tens of
percent from one minute to the next, and swings as much within seconds, so
raw wall times of the same code spread wider than a useful bound.  ``run.py``
therefore stops the worker at short intervals, times blocks of a fixed
reference unit in its own process on the same CPU, and scales the worker's
times by the reference unit's speed.

The reference unit runs no tautrel code, so a change to the program moves
the scaled times as it moves the wall times, while a host that slows down
slows the reference unit too.  It mixes the two kinds of work that tautrel's
pipelines do, because the host's neighbours slow them by different amounts:
rational arithmetic on small dictionaries that stay in the core's caches,
and the same arithmetic on objects scattered over a heap larger than those
caches.
"""

import time
from fractions import Fraction

# About the milliseconds of one reference unit on the 2-vCPU Xeon VM the
# benchmark was built on, when it is quiet: a scaled time reads roughly as
# the wall time there.
REF_UNIT_MS = 3.5
TABLE_SIZE = 200000   # Fractions in the table, about 40 MB of heap
TABLE_STEPS = 400     # table entries read by one unit


class Reference:
    """The reference unit and the data it works on."""

    def __init__(self):
        # The table's Fractions are allocated between throw-away lists, so
        # that they lie scattered over the heap, as a pipeline's objects do.
        self.table, spacers = [], []
        for i in range(TABLE_SIZE):
            self.table.append(Fraction(i * 7919 % 1000003 + 1, i % 997 + 1))
            spacers.append([i] * (i % 5))
        self.left = [((i % 4, i % 3, i // 12), Fraction(i + 1, 2 * i + 3))
                     for i in range(24)]
        self.right = [((i % 5, -(i % 2), i // 10), Fraction(3 - i, 7 + i))
                      for i in range(24) if i != 3]
        self.expected = self.unit()

    def unit(self):
        """A sparse product of two small polynomials with ``Fraction``
        coefficients and tuple exponents, then ``TABLE_STEPS`` products of
        table entries picked by a fixed pseudo-random walk, summed into a
        small dictionary.  Returns the sizes of the two results."""
        terms = {}
        for (a1, b1, c1), x in self.left:
            for (a2, b2, c2), y in self.right:
                mono = (a1 + a2, b1 + b2, c1 + c2)
                acc = terms.get(mono, 0) + x * y
                if acc:
                    terms[mono] = acc
                else:
                    terms.pop(mono, None)
        sums, j = {}, 12345
        for _ in range(TABLE_STEPS):
            j = (j * 1103515245 + 12345) % 2147483648
            x = self.table[j % TABLE_SIZE]
            key = (j & 15, (j >> 4) & 7)
            sums[key] = sums.get(key, 0) + x * x
        return len(terms), len(sums)

    def block(self, seconds):
        """Run whole units for about ``seconds``: (start, end, units)."""
        start = time.perf_counter()
        units = 0
        while True:
            if self.unit() != self.expected:
                raise RuntimeError("wrong result from the reference unit")
            units += 1
            end = time.perf_counter()
            if end - start >= seconds:
                return start, end, units


def speed_scale(blocks):
    """``REF_UNIT_MS`` over the milliseconds one reference unit took in
    ``blocks`` of (start, end, units): below 1 on a host slower than the
    quiet one."""
    seconds = sum(end - start for start, end, _ in blocks)
    return REF_UNIT_MS * sum(units for _, _, units in blocks) / (1e3 * seconds)

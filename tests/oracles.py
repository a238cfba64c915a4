"""Brute-force oracles that several test modules share.

Each one transcribes a definition directly and imports nothing from
rrseq (test_correlation.py checks that), so no code under test can leak
into what checks it.
"""


def oracle_autocorr(a):
    # Independent reference: direct double loop over the definition,
    # with explicit cyclic index wrap-around.
    size = len(a)
    out = []
    for k in range(size):
        acc = 0
        for j in range(size):
            acc += a[j] * a[(j + k) % size]
        out.append(acc)
    return out

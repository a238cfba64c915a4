"""The binary mask scan against a brute-force oracle."""

import numpy as np
import pytest

from rrseq import scan_masks, verify


def popcount(x):
    return bin(x).count("1")


def oracle_masks(n):
    # brute force straight off the definition, independent of the scan
    hits = []
    full = (1 << n) - 1
    for mask in range(1 << n):
        if popcount(mask) % 2 == 0:
            continue
        ok = True
        for k in range(1, n):
            rot = ((mask >> k) | (mask << (n - k))) & full
            if popcount(mask & rot) % 2 == 1:
                ok = False
                break
        if ok:
            hits.append(mask)
    return hits


@pytest.mark.parametrize("n", range(1, 17))
def test_numpy_backend_matches_oracle(n):
    assert scan_masks(n).tolist() == oracle_masks(n)


def test_chunked_scan_matches_oracle(monkeypatch):
    # the default chunk only splits lengths above 20; force splits here
    monkeypatch.setattr(verify, "_SCAN_CHUNK", 64)
    for n in range(1, 13):
        assert scan_masks(n).tolist() == oracle_masks(n)


def test_masks_ascending_and_typed():
    out = scan_masks(10)
    assert out.dtype == np.uint32
    assert list(out) == sorted(out)


def test_known_small_case():
    # length 4: the four deltas plus the four weight-3 rows
    assert scan_masks(4).tolist() == [1, 2, 4, 7, 8, 11, 13, 14]


def test_delta_masks_always_present():
    for n in range(1, 15):
        got = set(scan_masks(n).tolist())
        assert all((1 << j) in got for j in range(n))


def test_rejects_out_of_range_lengths():
    for n in (0, -1, 25):
        with pytest.raises(ValueError):
            scan_masks(n)

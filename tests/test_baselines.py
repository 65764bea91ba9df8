"""Sphere-digit and half-box comparison generators."""

from itertools import product

import pytest

from apfree.baselines import _best_shell, behrend_set, halfbox_set
from apfree.integers import ParameterError


def dict_shells(base, dim):
    """The shell table the numpy grid replaced, kept as its oracle: digit
    tuples of {0,...,(base-1)//2}^dim in product order, by squared radius."""
    shells = {}
    for digits in product(range((base - 1) // 2 + 1), repeat=dim):
        shells.setdefault(sum(d * d for d in digits), []).append(digits)
    return shells


class TestBestShell:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_matches_dict_oracle(self, dim):
        for base in range(3, 40 if dim < 4 else 14):
            shells = dict_shells(base, dim)
            radius_sq = min(shells, key=lambda r: (-len(shells[r]), r))
            got_radius, digits = _best_shell(base, dim)
            assert got_radius == radius_sq
            assert [tuple(row) for row in digits.tolist()] == shells[radius_sq]


class TestBehrend:
    def test_certified_and_bounded(self):
        for N in [*range(3, 401), 2000, 10**4]:
            dset = behrend_set(N)
            assert dset.size >= 2
            assert all(1 <= x <= N for x in dset.elements)
            assert dset.verify().passed

    def test_digit_decoding_injective(self):
        dset = behrend_set(4000)
        base, dim = dset.provenance["base"], dset.provenance["dimension"]
        digits = set()
        for x in dset.elements:
            v = x - 1
            d = []
            for _ in range(dim):
                d.append(v % base)
                v //= base
            assert v == 0
            digits.add(tuple(d))
            half = (base - 1) // 2
            assert all(0 <= di <= half for di in d)
        assert len(digits) == dset.size

    def test_constant_radius(self):
        dset = behrend_set(3000)
        base, dim, r = (dset.provenance[k] for k in ("base", "dimension", "radius_sq"))
        for x in dset.elements:
            v = x - 1
            ssq = 0
            for _ in range(dim):
                ssq += (v % base) ** 2
                v //= base
            assert ssq == r

    def test_tiny_fallback(self):
        dset = behrend_set(3)
        assert dset.elements == (1, 2)
        assert dset.verify().passed

    def test_validation(self):
        with pytest.raises(ParameterError):
            behrend_set(2)


class TestHalfbox:
    def test_p3_n2(self):
        dset = halfbox_set(3, 2)
        assert dset.elements == ((0, 1), (1, 0))
        assert dset.verify().passed

    def test_p5_n4(self):
        dset = halfbox_set(5, 4)
        assert dset.verify().passed
        assert dset.size <= ((5 + 1) // 2) ** 4

    @pytest.mark.parametrize("p,n", [(3, 3), (5, 2), (7, 2), (3, 6)])
    def test_box_bound_and_certification(self, p, n):
        dset = halfbox_set(p, n)
        assert dset.size <= ((p + 1) // 2) ** n
        assert dset.verify().passed

    def test_no_wraparound(self):
        # componentwise sums of two elements never reach p, so the integer
        # and cyclic progression relations coincide on the box
        dset = halfbox_set(5, 3)
        for x in dset.elements:
            for z in dset.elements:
                assert all(xi + zi < 5 for xi, zi in zip(x, z))

    def test_even_p_rejected(self):
        with pytest.raises(ParameterError):
            halfbox_set(4, 2)

    def test_small_p_rejected(self):
        with pytest.raises(ParameterError):
            halfbox_set(1, 2)

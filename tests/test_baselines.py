"""Sphere-digit and half-box comparison generators."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apfree import budget
from apfree.baselines import _count_cost, _shell_counts, _shell_rows, behrend_set, halfbox_set
from apfree.integers import ParameterError
from oracle import dict_shells, grid_shell, loop_behrend


def kernel_shell(base, dim):
    """(count, squared radius, rows in product order) of the most populous
    shell of {0,...,(base-1)//2}^dim, by the package's counts and decoding."""
    side = (base - 1) // 2 + 1
    counts = _shell_counts(side, dim, [])
    radius_sq = int(np.argmax(counts))
    count = int(counts[radius_sq])
    return count, radius_sq, [tuple(row) for row in _shell_rows(side, dim, radius_sq, count).tolist()]


class TestBestShell:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_matches_dict_oracle(self, dim):
        for base in range(3, 40 if dim < 4 else 14):
            shells = dict_shells(base, dim)
            radius_sq = min(shells, key=lambda r: (-len(shells[r]), r))
            assert kernel_shell(base, dim) == (len(shells[radius_sq]), radius_sq, shells[radius_sq])

    @given(st.integers(3, 39), st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_matches_both_oracles(self, base, dim):
        assume(((base - 1) // 2 + 1) ** dim <= 10**5)
        shells = dict_shells(base, dim)
        radius_sq = min(shells, key=lambda r: (-len(shells[r]), r))
        got = kernel_shell(base, dim)
        assert got == (len(shells[radius_sq]), radius_sq, shells[radius_sq])
        grid_radius, digits = grid_shell(base, dim)
        assert got == (len(digits), grid_radius, [tuple(row) for row in digits.tolist()])
        # every radius's count, not only the largest
        counts = _shell_counts((base - 1) // 2 + 1, dim, [])
        assert {r: c for r, c in enumerate(counts.tolist()) if c} == {
            r: len(rows) for r, rows in shells.items()}

    def test_tables_shared_between_dimensions(self):
        # behrend extends one side's tables from a smaller dimension to a
        # larger one, and reads a smaller one's back
        tables = []
        _shell_counts(4, 2, tables)
        assert [c.tolist() for c in (_shell_counts(4, 6, tables), _shell_counts(4, 3, tables))] == [
            _shell_counts(4, 6, []).tolist(), _shell_counts(4, 3, []).tolist()]

    def test_large_side_counted_by_shifted_adds(self):
        # past a side of 256, c_2 comes from shifted adds of c_1's nonzero
        # entries in int16, not from one pass over the side^2 pairs
        counts = _shell_counts(300, 2, [])
        assert counts.dtype == np.int16
        assert {r: c for r, c in enumerate(counts.tolist()) if c} == {
            r: len(rows) for r, rows in dict_shells(599, 2).items()}

    def test_counts_past_int64_are_exact(self):
        # the 2^70 rows of {0, 1}^70 overflow int64: each radius r holds
        # comb(70, r) of them
        counts = _shell_counts(2, 70, [])
        assert counts.dtype == object
        assert counts.tolist() == [math.comb(70, r) for r in range(71)]

    def test_digit_grid_charged_to_budget(self, monkeypatch):
        # {0..4}^4: 65 radii, and 5 + 5*5 + 5*15 + 5*35 = 280 entries added
        # (c_1's ones, then c_1's 5 and c_2's 15 and c_3's 35 nonzero entries
        # at each of the 5 shifts)
        assert _count_cost(5, 4) == 280
        monkeypatch.setattr(budget, "GRID", 280)
        _shell_counts(5, 4, [])
        monkeypatch.setattr(budget, "GRID", 279)
        with pytest.raises(budget.BudgetError, match=r"sphere-shell counts of \{0..4\}\^4 exceeds"):
            _shell_counts(5, 4, [])
        # in dimension 1 the 17 radii 0..16 outnumber the 5 digits
        monkeypatch.setattr(budget, "GRID", 17)
        _shell_counts(5, 1, [])
        monkeypatch.setattr(budget, "GRID", 16)
        with pytest.raises(budget.BudgetError, match="exceeds the work budget"):
            _shell_counts(5, 1, [])
        # a huge dimension is refused without its power or its steps
        with pytest.raises(budget.BudgetError, match="exceeds the work budget"):
            _shell_counts(2, 10**18, [])

    def test_decoded_rows_charged_to_budget(self, monkeypatch):
        # comb(40, 20) rows are refused without being made
        with pytest.raises(budget.BudgetError, match="sphere shell of 137846528820 rows"):
            halfbox_set(3, 40)
        # the 20 rows of {0,1}^6 at radius 3, 6 digits each (more than the
        # 8 suffixes of 3 digits)
        monkeypatch.setattr(budget, "GRID", 120)
        assert len(_shell_rows(2, 6, 3, 20)) == 20
        monkeypatch.setattr(budget, "GRID", 119)
        with pytest.raises(budget.BudgetError, match=r"sphere shell of 20 rows in \{0..1\}\^6"):
            _shell_rows(2, 6, 3, 20)


# the benchmark's, the golden corpus's and the budget ledger's N
ORACLE_N = [*range(3, 2001), 5000, 10**4, 20000, 10**5, 10**7]


def test_behrend_matches_the_listing_loop():
    for N in ORACLE_N:
        dset = behrend_set(N)
        k, base, radius_sq, elements = loop_behrend(N)
        assert dset.provenance == {"construction": "behrend", "bound": N, "base": base,
                                   "dimension": k, "radius_sq": radius_sq,
                                   "certified_by_construction": True}, N
        assert list(dset.elements) == sorted(elements), N


@pytest.mark.parametrize("p", [3, 5, 7, 9, 11, 13])
def test_halfbox_matches_the_grid(p):
    for n in range(1, 7):
        dset = halfbox_set(p, n)
        radius_sq, digits = grid_shell(p, n)
        assert dset.provenance["radius_sq"] == radius_sq
        assert list(dset.elements) == [tuple(row) for row in digits.tolist()]


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


@pytest.mark.parametrize("build", [
    # odd bases: one parity class, so the charge is every pair twice
    lambda certify: behrend_set(10**4, certify),
    lambda certify: behrend_set(1999, certify),
    # an even base (6, the winner at N = 240) splits the shell by digit 0
    lambda certify: behrend_set(240, certify),
    lambda certify: behrend_set(16, certify),
    lambda certify: halfbox_set(7, 4, certify),
])
def test_scan_charged_before_decoding_as_the_certificate_charges_it(monkeypatch, build):
    """At every limit around the set's costs (all its pairs twice, or its
    pairs plus the pairs inside each parity class) the builder's charge
    passes or refuses exactly as the certificate's does, with the same
    text."""
    elements = build(False).elements
    pairs = math.comb(len(elements), 2)
    parities = [x % 2 for x in elements] if type(elements[0]) is int else [0] * len(elements)
    within = sum(math.comb(parities.count(b), 2) for b in (0, 1))
    for cost in (pairs, 2 * pairs, pairs + within):
        for limit in (cost - 1, cost, cost + 1):
            monkeypatch.setattr(budget, "SCAN", limit)
            try:
                build(False).verify()
                certificate = None
            except budget.BudgetError as exc:
                certificate = str(exc)
            try:
                build(True)
                builder = None
            except budget.BudgetError as exc:
                builder = str(exc)
            assert builder == certificate, limit


def test_an_even_base_splits_the_shell():
    # the case above whose charge counts the classes from digit 0
    dset = behrend_set(240)
    assert dset.provenance["base"] == 6
    assert len({x % 2 for x in dset.elements}) == 2


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

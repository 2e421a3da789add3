"""Interlacing verdicts, shifted interlacing, and the inequality chain."""

import math
import random

import pytest

from cylfn.interlace import (
    COINCIDENCE_TOL,
    EmptyOverlapError,
    check_interlaced,
    detect_shifted,
    verify_chain,
)
from cylfn.special_fn import CylinderSpec, DomainError, EvalKind
from cylfn.zeros import find_zeros


def _zeros(nu, delta, n, kind=EvalKind.FUNCTION):
    return find_zeros(CylinderSpec.of(nu, delta), kind, n)


class TestCheckInterlaced:
    def test_j0_vs_j2_interlaced(self):
        rep = check_interlaced(_zeros(0.0, 0.0, 10), _zeros(2.0, 0.0, 10))
        assert rep.interlaced
        assert rep.first_violation is None
        assert rep.pairs_checked > 0

    def test_identical_sequences_flagged_coincident(self):
        a = _zeros(1.0, 0.0, 8)
        rep = check_interlaced(a, a)
        assert not rep.interlaced
        assert rep.coincident
        assert rep.first_violation == (1, 0)

    def test_j1_vs_j45_broken(self):
        rep = check_interlaced(_zeros(1.0, 0.0, 25), _zeros(4.5, 0.0, 25))
        assert not rep.interlaced
        assert rep.first_violation is not None
        assert rep.first_violation[0] >= 1

    def test_symmetry(self):
        for nu, mu in ((0.0, 2.0), (1.0, 4.5), (2.5, 3.0)):
            a = _zeros(nu, 0.0, 15)
            b = _zeros(mu, 0.0, 15)
            assert check_interlaced(a, b).interlaced == check_interlaced(b, a).interlaced

    def test_subwindow_of_interlaced_pair_is_interlaced(self):
        a = _zeros(0.5, 0.0, 20).zeros
        b = _zeros(2.0, 0.0, 20).zeros
        assert check_interlaced(a, b).interlaced
        assert check_interlaced(a[4:14], b[4:14]).interlaced

    def test_theorem_1a_samples(self):
        for a_gap in (0.5, 1.0, 2.0):
            for delta in (0.0, math.pi / 4, math.pi / 2):
                rep = check_interlaced(
                    _zeros(1.2, delta, 20), _zeros(1.2 + a_gap, delta, 20)
                )
                assert rep.interlaced, (a_gap, delta)

    def test_empty_overlap(self):
        with pytest.raises(EmptyOverlapError):
            check_interlaced([1.0, 2.0], [5.0, 6.0])
        with pytest.raises(EmptyOverlapError):
            check_interlaced([1.0], [0.5, 2.0])


def _reference(a, b):
    """Brute-force verdict: the other side's zeros strictly inside each pair
    whose upper end both sequences reach, and coincidence over all pairs."""
    top = min(a[-1], b[-1])
    viols, checked = [], 0
    for side, (p, q) in enumerate(((a, b), (b, a))):
        for i in range(len(p) - 1):
            if p[i + 1] <= top:
                checked += 1
                count = sum(1 for v in q if p[i] < v < p[i + 1])
                if count != 1:
                    viols.append((p[i], side, i + 1, count))
    coincident = any(abs(x - y) <= COINCIDENCE_TOL for x in a for y in b)
    if viols:
        _, side, i, count = min(viols)
        return False, (i, count), checked, coincident, "AB"[side]
    return not coincident, None, checked, coincident, None


def _seeded_pairs(seed):
    rng = random.Random(seed)
    kinds = (EvalKind.FUNCTION, EvalKind.DERIVATIVE)

    def seq():
        nu = rng.choice((rng.uniform(0.0, 10.0), float(rng.randrange(6))))
        delta = rng.choice((0.0, math.pi / 2, rng.uniform(0.0, math.pi)))
        return list(_zeros(nu, delta, rng.randrange(2, 20), rng.choice(kinds)).zeros)

    pairs = []
    for _ in range(40):
        a, b = seq(), seq()
        i, j = rng.randrange(len(a) - 1), rng.randrange(len(b) - 1)
        shared = sorted(set(a + rng.sample(b, min(len(b), 3))))  # exact ties
        pairs += [(a, b), (a[i:], b[j:]), (a[: len(a) - i + 1], b[j : j + 5]), (shared, b)]
    grid = [0.5 * k for k in range(24)]
    for _ in range(120):
        a = sorted(rng.sample(grid, rng.randrange(2, 12)))
        nudges = (0.0, 0.0, 0.5 * COINCIDENCE_TOL, -0.5 * COINCIDENCE_TOL, 2 * COINCIDENCE_TOL, 0.1)
        b = sorted(v + rng.choice(nudges) for v in rng.sample(grid, rng.randrange(2, 12)))
        pairs.append((a, b))
    # coincident only at the end of the window: no judged pair is violated
    pairs.append(([1.0, 2.0, 3.0], [1.5, 2.5, 3.0 + 0.5 * COINCIDENCE_TOL]))
    return pairs


class TestCheckInterlacedReference:
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_matches_brute_force(self, seed):
        # find_zeros sequences of both kinds, their slices, and synthetic
        # sequences with exact ties and near-coincidences, each way round
        for a, b in _seeded_pairs(seed):
            for p, q in ((a, b), (b, a)):
                if p[-1] <= q[0] or q[-1] <= p[0]:
                    with pytest.raises(EmptyOverlapError):
                        check_interlaced(p, q)
                    continue
                rep = check_interlaced(p, q)
                got = (rep.interlaced, rep.first_violation, rep.pairs_checked, rep.coincident,
                       rep.violation_side)
                assert got == _reference(p, q), (p, q)


class TestDetectShifted:
    def test_j1_vs_j45_shift_one(self):
        rep = detect_shifted(_zeros(1.0, 0.0, 25), _zeros(4.5, 0.0, 25))
        assert rep.shift_d == 1
        assert rep.window is not None
        lo, hi = rep.window
        assert hi - lo >= 5

    def test_interlaced_pair_reports_no_shift(self):
        rep = detect_shifted(_zeros(0.0, 0.0, 15), _zeros(2.0, 0.0, 15))
        assert rep.shift_d is None

    def test_self_shifted_copy(self):
        zs = list(_zeros(1.0, 0.0, 20).zeros)
        rep = detect_shifted(zs, zs[1:])
        assert rep.shift_d == 1
        lo, hi = rep.window
        assert lo == 1  # holds on the full checkable window


class TestVerifyChain:
    def test_single_link_values(self):
        # spot values for (nu=1, c=0.5, s=1), frozen from the reference
        jp = _zeros(1.0, 0.0, 1, EvalKind.DERIVATIVE).zeros[0]
        y = _zeros(1.0, math.pi / 2, 1).zeros[0]
        yp = _zeros(1.0, math.pi / 2, 1, EvalKind.DERIVATIVE).zeros[0]
        j = _zeros(1.0, 0.0, 1).zeros[0]
        assert jp == pytest.approx(1.841183781340659, abs=1e-9)
        assert y == pytest.approx(2.197141326031017, abs=1e-9)
        assert yp == pytest.approx(3.683022856585178, abs=1e-6)
        assert j == pytest.approx(3.831705970207512, abs=1e-9)
        assert jp < y < yp < j

    def test_chain_passes_at_sample_orders(self):
        for nu, c in ((1.0, 0.5), (3.7, 1.0)):
            rep = verify_chain(nu, c, 10)
            assert rep.passed, rep.counterexample
            assert rep.checks == 6 * 10 + 1
            assert rep.worst_residual > 0.0

    def test_chain_with_origin_convention(self):
        # nu = 0, c = 1 leans on the J'_0 first-zero-0 convention and on the
        # tolerated exact coincidences Y'_0 = -Y_1 and J'_0 = -J_1
        rep = verify_chain(0.0, 1.0, 5)
        assert rep.passed, rep.counterexample

    def test_chain_preconditions(self):
        with pytest.raises(DomainError):
            verify_chain(-0.5, 1.0, 5)
        with pytest.raises(DomainError):
            verify_chain(1.0, 1.5, 5)

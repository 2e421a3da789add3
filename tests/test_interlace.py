"""Interlacing verdicts, shifted interlacing, and the inequality chain."""

import math
import random
from types import SimpleNamespace

import pytest

import cylfn.interlace
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

    @pytest.mark.parametrize("side, bad, i", [
        ("A", [1.0, math.nan, 3.0], 0),
        ("A", [3.0, 1.0, 5.0], 0),
        ("B", [1.0, 2.5, 2.5, 5.0], 1),
    ], ids=("nan", "unsorted", "repeated"))
    def test_not_strictly_increasing_raises(self, side, bad, i):
        # a NaN, an unsorted and a repeated entry, named by side and index;
        # detect_shifted judges through check_interlaced
        a, b = (bad, [2.0, 4.0]) if side == "A" else ([2.0, 4.0], bad)
        for judge in (check_interlaced, detect_shifted):
            with pytest.raises(ValueError, match=rf"{side}\[{i}\] < {side}\[{i + 1}\] fails"):
                judge(a, b)


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

    def test_j0_vs_j12_shift_five(self):
        # a shift wider than 3: J_12's zeros sit five pairs up J_0's
        a, b = _zeros(0.0, 0.0, 60).zeros, _zeros(12.0, 0.0, 60).zeros
        rep = detect_shifted(a, b)
        assert (rep.shift_d, rep.window) == (5, (3, 54))
        d, (lo, hi) = rep.shift_d, rep.window
        for s in range(lo, hi + 1):  # 1-based A[s+d] <= B[s] < A[s+d+1]
            assert a[s + d - 1] <= b[s - 1] < a[s + d]
        assert not a[lo + d - 2] <= b[lo - 2] < a[lo + d - 1]  # maximal: fails just below


def _forward_shift(a, b):
    """Forward search for the shift: for each d, the run of s that holds up
    to the top s, tracked from its first s upward."""
    if check_interlaced(a, b).interlaced:
        return None, None
    for ad in range(1, len(a) + len(b)):
        for d in (ad, -ad):
            s_lo, s_hi = max(1, 1 - d), min(len(b), len(a) - d - 1)
            if s_hi - s_lo < 1:
                continue
            ok_from = None
            for s in range(s_lo, s_hi + 1):
                if a[s - 1 + d] - COINCIDENCE_TOL <= b[s - 1] < a[s + d]:
                    if ok_from is None:
                        ok_from = s
                else:
                    ok_from = None
            if ok_from is not None and s_hi - ok_from >= 1:
                return d, (ok_from, s_hi)
    return None, None


def _shifted_pairs(seed):
    """Real and synthetic sequences b placed a shift d in [-5, 5] along a:
    b[s] in [a[s+d], a[s+d+1]), at a random point or at an end nudged by
    +-COINCIDENCE_TOL, some with one entry moved out of place, and slices."""
    rng = random.Random(seed)
    pairs = _seeded_pairs(seed)
    grid = [0.5 * k for k in range(30)]
    for _ in range(150):
        if rng.random() < 0.5:
            a = list(_zeros(rng.uniform(0.0, 8.0), rng.choice((0.0, math.pi / 2)), rng.randrange(4, 20)).zeros)
        else:
            a = sorted(rng.sample(grid, rng.randrange(4, 20)))
        d = rng.randint(-5, 5)
        b = [a[0] - 1.0 + k / 8.0 for k in range(max(0, -d))]  # the s below the window
        for i in range(max(0, d), len(a) - 1):
            lo, hi = a[i], a[i + 1]
            b.append(rng.choice((
                lo + rng.random() * (hi - lo), lo, lo - 0.5 * COINCIDENCE_TOL, lo - 2 * COINCIDENCE_TOL,
                lo + 0.5 * COINCIDENCE_TOL, hi, hi - 0.5 * COINCIDENCE_TOL,
            )))
        if not b:  # d at or past the end of a
            continue
        if rng.random() < 0.3:
            b[rng.randrange(len(b))] = rng.uniform(a[0], a[-1])
        b = sorted(set(b))
        i, j = rng.randrange(len(b)), rng.randrange(len(b))
        pairs += [(a, b), (a, b[min(i, j) : max(i, j) + 2]), (a[rng.randrange(3):], b)]
    return pairs


class TestDetectShiftedReference:
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_matches_forward_search(self, seed):
        shifted = 0
        for a, b in _shifted_pairs(seed):
            for p, q in ((a, b), (b, a)):
                if len(p) < 2 or len(q) < 2 or p[-1] <= q[0] or q[-1] <= p[0]:
                    with pytest.raises(EmptyOverlapError):
                        detect_shifted(p, q)
                    continue
                rep = detect_shifted(p, q)
                assert (rep.shift_d, rep.window) == _forward_shift(p, q), (p, q)
                shifted += rep.shift_d is not None
        assert shifted >= 100  # the block exercises the shifted branch


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
        with pytest.raises(DomainError, match="order must lie in"):
            verify_chain(-0.5, 1.0, 5)
        with pytest.raises(DomainError):
            verify_chain(1.0, 1.5, 5)


_LINKS = ("j' < y", "y < y_{+c}", "y_{+c} < y'", "y' < j", "j < j_{+c}", "j_{+c} < j'_{s+1}")


def _chain_by_links(nu, seqs, n):
    """(passed, checks, worst, counterexample) from a per-s table of the six
    links, with the COINCIDENCE_TOL rule and the nu <= j'_{nu,1} check."""
    jp, y, yc, yp, j, jc = seqs
    worst, bad, checks = math.inf, None, 0
    for s in range(n):
        links = ((jp[s], y[s]), (y[s], yc[s]), (yc[s], yp[s]), (yp[s], j[s]), (j[s], jc[s]), (jc[s], jp[s + 1]))
        for name, (lo, hi) in zip(_LINKS, links):
            checks += 1
            worst = min(worst, hi - lo)
            if hi - lo < -COINCIDENCE_TOL and bad is None:
                bad = {"s": s + 1, "link": name, "lower": lo, "upper": hi}
    if nu > jp[0] and bad is None:
        bad = {"link": "nu <= j'_{nu,1}", "nu": nu, "first_zero": jp[0]}
    return bad is None, checks + 1, min(worst, jp[0] - nu), bad


class TestVerifyChainFaults:
    NU, C, N = 2.5, 0.5, 6

    def _keys(self):
        # the six sequences in chain order: j', y, y_{+c}, y', j, j_{+c}
        nu, nc, half = self.NU, self.NU + self.C, math.pi / 2
        f, d = EvalKind.FUNCTION, EvalKind.DERIVATIVE
        return ((nu, 0.0, d), (nu, half, f), (nc, half, f), (nu, half, d), (nu, 0.0, f), (nc, 0.0, f))

    def _inject(self, monkeypatch, q, i, value):
        # find_zeros as verify_chain sees it, with zero i of sequence q moved
        seqs = {}

        def moved(spec, kind, n):
            zs = list(find_zeros(spec, kind, n).zeros)
            key = (spec.nu, spec.delta, kind)
            if key == self._keys()[q]:
                zs[i] = value
            seqs[key] = zs
            return SimpleNamespace(zeros=tuple(zs))

        monkeypatch.setattr(cylfn.interlace, "find_zeros", moved)
        return lambda: [seqs[k] for k in self._keys()]

    def _true(self):
        n = self.N
        return [list(_zeros(nu, d, n + (q == 0), kind).zeros) for q, (nu, d, kind) in enumerate(self._keys())]

    @pytest.mark.parametrize("q", range(6))
    def test_zero_below_its_chain_predecessor(self, monkeypatch, q):
        # zero s = 3 of sequence q moved 0.01 below the entry before it in
        # the chain: the link into it at s = 3 is the first to fail
        seqs = self._true()
        prev = seqs[q - 1][2] if q else seqs[5][1]
        self._inject(monkeypatch, q, 2, prev - 0.01)
        rep = verify_chain(self.NU, self.C, self.N)
        s, link = (3, _LINKS[q - 1]) if q else (2, _LINKS[5])
        assert not rep.passed
        assert rep.checks == 6 * self.N + 1
        assert rep.counterexample == {"s": s, "link": link, "lower": prev, "upper": prev - 0.01}
        assert rep.worst_residual == (prev - 0.01) - prev

    def test_first_zero_of_j_prime_below_nu(self, monkeypatch):
        self._inject(monkeypatch, 0, 0, self.NU - 0.5)
        rep = verify_chain(self.NU, self.C, self.N)
        assert not rep.passed and rep.checks == 6 * self.N + 1
        assert rep.counterexample == {"link": "nu <= j'_{nu,1}", "nu": self.NU, "first_zero": self.NU - 0.5}
        assert rep.worst_residual == -0.5

    @pytest.mark.parametrize("seed", (1, 2))
    def test_matches_link_table(self, monkeypatch, seed):
        # one zero moved to a neighbour in the chain, nudged at +-COINCIDENCE_TOL
        rng = random.Random(seed)
        seqs = self._true()
        chain = [seqs[q][s] for s in range(self.N) for q in range(6)] + [seqs[0][self.N]]
        failing = 0
        for _ in range(40):
            k = rng.randrange(1, len(chain) - 1)
            q, i = k % 6, k // 6
            nudge = rng.choice((-0.01, 0.01, *(t * COINCIDENCE_TOL for t in (-2.0, -0.5, 0.0, 0.5, 2.0))))
            value = chain[k + rng.choice((-1, 1))] + nudge
            got = self._inject(monkeypatch, q, i, value)
            rep = verify_chain(self.NU, self.C, self.N)
            want = _chain_by_links(self.NU, got(), self.N)
            assert (rep.passed, rep.checks, rep.worst_residual, rep.counterexample) == want, (k, value)
            failing += not rep.passed
        assert failing >= 5

"""Interlacing analysis of finite zero sequences.

Two functions interlace when every open interval between consecutive zeros of
one contains exactly one zero of the other.  Finite sequences are compared
only on intervals fully covered by both, so truncation cannot produce false
violations.  check_interlaced decides from one walk over the merged, tagged
zeros: a pair of consecutive zeros of one side holds the zeros of the other
side met since its lower end, and neighbouring zeros of the two sides closer
than COINCIDENCE_TOL are coincident.
"""

import math
from bisect import bisect_right
from collections import namedtuple

from .reports import VerificationReport
from .special_fn import CylinderSpec, DomainError, EvalKind, Order
from .zeros import _count, find_zeros

__all__ = [
    "InterlaceReport",
    "ShiftReport",
    "EmptyOverlapError",
    "COINCIDENCE_TOL",
    "check_interlaced",
    "detect_shifted",
    "verify_chain",
]

COINCIDENCE_TOL = 1e-9
_CHAIN_LINKS = ("j' < y", "y < y_{+c}", "y_{+c} < y'", "y' < j", "j < j_{+c}", "j_{+c} < j'_{s+1}")


class EmptyOverlapError(ValueError):
    """The two zero sequences cover disjoint ranges."""


_INTERLACE_FIELDS = "interlaced first_violation pairs_checked coincident violation_side"


class InterlaceReport(namedtuple("InterlaceReport", _INTERLACE_FIELDS, defaults=(False, None))):
    """Verdict of an interlacing check on two finite zero sequences.

    first_violation is (i, count): the i-th consecutive pair (1-based, in the
    sequence named by violation_side) whose open interval contained `count`
    zeros of the other sequence instead of exactly one.  coincident flags
    zeros of the two sequences closer than COINCIDENCE_TOL.
    """

    __slots__ = ()


class ShiftReport(namedtuple("ShiftReport", "shift_d window")):
    """Shifted-interlacing detection result.

    shift_d = d means the entries of B fall d pairs later in A (earlier for
    d < 0) after re-indexing: A[s+d] <= B[s] < A[s+d+1] for every s in the
    (1-based, suffix) window of two or more indices.  None when no shift has
    such a window or the pair interlaces ordinarily (d = 0 is ordinary
    interlacing and is excluded).
    """

    __slots__ = ()


def check_interlaced(A, B) -> InterlaceReport:
    """Decide interlacing of two strictly increasing zero sequences.

    Symmetric in its arguments; only pairs whose upper end both sequences
    reach are judged.  Coincident zeros (within COINCIDENCE_TOL) are
    violations and are flagged, since in-scope zeros are simple and distinct.
    A sequence that is not strictly increasing, or holds a NaN, raises
    ValueError naming its side and the first index i where A[i] < A[i+1]
    (or B[i] < B[i+1]) fails.
    """
    a, b = [float(v) for v in A], [float(v) for v in B]
    for side, seq in zip("AB", (a, b)):
        i = next((k for k in range(len(seq) - 1) if not seq[k] < seq[k + 1]), None)
        if i is not None:
            raise ValueError(f"{side} must be strictly increasing: {side}[{i}] < {side}[{i + 1}] fails "
                             f"for {seq[i]!r}, {seq[i + 1]!r}")
    if len(a) < 2 or len(b) < 2:
        raise EmptyOverlapError("need at least two zeros in each sequence")
    if a[-1] <= b[0] or b[-1] <= a[0]:
        raise EmptyOverlapError("zero sequences cover disjoint ranges")
    top = min(a[-1], b[-1])
    last = [-math.inf, -math.inf]  # each side's latest zero: its open pair's lower end
    inside = [0, 0]  # zeros of the other side met since that lower end
    pairs = [0, 0]
    viols = []  # (lower end, side, pair index, count)
    coincident = False
    for z, s in sorted([(z, 0) for z in a] + [(z, 1) for z in b]):
        o = 1 - s
        # the nearest zero of the other side below z is its latest
        if z - last[o] <= COINCIDENCE_TOL:
            coincident = True
        tie = z == last[o]  # the other side's zero at z, met first, is not inside
        if last[s] > -math.inf and z <= top:
            pairs[s] += 1
            if inside[s] - tie != 1:
                viols.append((last[s], s, pairs[s], inside[s] - tie))
        inside[o] += not tie
        last[s], inside[s] = z, 0
    checked = pairs[0] + pairs[1]
    if viols:
        _, s, i, count = min(viols)
        return InterlaceReport(False, (i, count), checked, coincident, "AB"[s])
    return InterlaceReport(not coincident, None, checked, coincident)


def detect_shifted(A, B) -> ShiftReport:
    """Find the smallest nonzero re-indexing shift that restores interlacing.

    Reports the maximal suffix window of 1-based B indices on which A[s+d]
    <= B[s] < A[s+d+1] holds, for any shift d.  That holds exactly when s +
    d lies between the number of zeros of A below B[s] and the number at or
    below B[s] + COINCIDENCE_TOL, so one bisection pass gives each s its
    shifts: one, or two where a zero of A lies just above B[s].  A window
    for d runs down from its top, s = min(len(B), len(A) - d - 1), the last
    index that A covers.
    """
    a, b = [float(v) for v in A], [float(v) for v in B]
    if check_interlaced(a, b).interlaced:
        return ShiftReport(None, None)
    # the lowest and highest shift at each s, with A[s+d] and A[s+d+1] in A
    span = [(max(bisect_right(a, v), 1) - s, min(bisect_right(a, v + COINCIDENCE_TOL), len(a) - 1) - s)
            for s, v in enumerate(b, 1)]
    found = {}  # each shift's window
    for top, (lo, hi) in enumerate(span, 1):
        for d in range(lo, hi + 1):
            if d and top == min(len(b), len(a) - d - 1):
                s = top
                while s and span[s - 1][0] <= d <= span[s - 1][1]:
                    s -= 1
                if top - s >= 2:
                    found[d] = (s + 1, top)
    d = min(found, key=lambda d: (abs(d), -d), default=None)
    return ShiftReport(d, found.get(d))


def verify_chain(nu: float, c: float, n: int) -> VerificationReport:
    """Check the interleaving inequality chain

        j'_{nu,s} < y_{nu,s} < y_{nu+c,s} < y'_{nu,s} < j_{nu,s} < j_{nu+c,s} < j'_{nu,s+1}

    for s = 1..n, plus nu <= j'_{nu,1}.  worst_residual is the smallest
    margin over all 6n strict inequalities (positive means all hold).
    """
    nu = Order(nu).nu
    c = float(c)
    if not 0.0 < c <= 1.0:
        raise DomainError(f"chain requires 0 < c <= 1, got {c!r}")
    n = _count(n, "need n >= 1")
    half = math.pi / 2.0
    jp = find_zeros(CylinderSpec.of(nu, 0.0), EvalKind.DERIVATIVE, n + 1).zeros
    y = find_zeros(CylinderSpec.of(nu, half), EvalKind.FUNCTION, n).zeros
    yc = find_zeros(CylinderSpec.of(nu + c, half), EvalKind.FUNCTION, n).zeros
    yp = find_zeros(CylinderSpec.of(nu, half), EvalKind.DERIVATIVE, n).zeros
    j = find_zeros(CylinderSpec.of(nu, 0.0), EvalKind.FUNCTION, n).zeros
    jc = find_zeros(CylinderSpec.of(nu + c, 0.0), EvalKind.FUNCTION, n).zeros
    # one interleaved sequence: margin k is link _CHAIN_LINKS[k % 6] at s = k // 6 + 1
    chain = [q[s] for s in range(n) for q in (jp, y, yc, yp, j, jc)] + [jp[n]]
    margins = [hi - lo for lo, hi in zip(chain, chain[1:])]
    # coincidences within COINCIDENCE_TOL are tolerated: at nu = 0, c = 1 the
    # links y_{1,s} vs y'_{0,s} and j_{1,s} vs j'_{0,s+1} are exact
    # equalities (Y'_0 = -Y_1, J'_0 = -J_1).
    bad = [k for k, m in enumerate(margins) if m < -COINCIDENCE_TOL]
    counterexample = None
    if bad:
        k = bad[0]
        link = _CHAIN_LINKS[k % 6]
        counterexample = {"s": k // 6 + 1, "link": link, "lower": chain[k], "upper": chain[k + 1]}
    elif nu > jp[0]:
        counterexample = {"link": "nu <= j'_{nu,1}", "nu": nu, "first_zero": jp[0]}
    margin = min(*margins, jp[0] - nu)
    return VerificationReport.of("chain", {"nu": nu, "c": c, "n": n}, 6 * n + 1, margin, counterexample)

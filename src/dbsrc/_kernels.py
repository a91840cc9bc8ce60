"""Scalar hot kernels for the converter model and its inverse maps.

Everything here is plain float math on Python floats, with no objects
or arrays, to keep the per-call cost low in pure Python.  They are the
per-call hot path: the closed-loop charger simulation calls them
hundreds of thousands of times (once or more per control step, plus
the short-time scans).

The low-power solve (solve_controls_scan) dims at omega_max by finding
the rightmost crossing of the dimming curve H(s_add) with its target.
Cold, it walks the SCAN_STEP grid down from pi and bisects the crossing
cell: about 240 H evaluations.  Warm, it starts from the previous
step's root and the previous bound on the last local maximum of
max(H, 0): the bound is re-tracked along the grid, and the crossing is
bracketed on [bound, pi].  Around the charger's range (sigma*, delta*
in +-0.3, G in [0.5, 1.5], corrections in +-0.2) max(H, 0) is
non-increasing there and the crossing of the positive target unique;
beyond it the curve can rise right of the bound, past a jump of the q
split, and a property in tests/test_warm_solver.py checks warm = cold
over the loop's whole domain.  The bracket is the previous root's own
bisection cell when the target still crosses inside it, which is most
steps of a slow CV taper; otherwise it starts one Newton step from the
previous root on the previous solve's slope dH/ds, and Illinois regula
falsi narrows it.  The scan then evaluates only inside the bracket, so
the warm root is the cold scan's, bit for bit, after about 7.6
(charge-default) to 10.4 (charge-trickle) evaluations.  When there is
no such bracket the cold scan runs and the solve reports a fallback.

That warm state, (s_add, s_peak, slope) after a low-power solve, is
read only here: solve_controls_scan returns it as its last element,
and its callers pass whatever they got back as the next call's warm,
without looking inside.
"""

# The math functions and pi are module globals, bound once at import:
# in pure Python a global load is cheaper than an attribute lookup on
# math, and every H evaluation makes about ten of them
from math import acos, atan2, cos, pi as PI, sin, sqrt

TWO_PI = 2.0 * PI
TWO_PI_SQ = 2.0 * PI ** 2   # the 2 pi^2 of the H/Z split and of W

DEGENERATE_AMP_SQ = 1e-24   # A^2 + B^2 below this means tank-current collapse
ACOS_CLAMP_TOL = 1e-9       # tolerated overshoot of |acos argument| past 1.0
RANGE_TOL = 1e-9            # tolerated overshoot of d, s past [0, pi], q past
                            # [0, 2 pi] and beta past [-pi, pi]
A_MIN = -4e-12              # in-phase coefficient A below this is infeasible
SCAN_STEP = PI / 512        # grid of the short-time scans
W_REL_TOL = 0.01            # accepted relative W miss of the low-power scan
BISECT_TOL = 1e-10          # final bracket width of the low-power solve
WARM_STEP = 1e-3            # first widening step of a warm bracket
NEWTON_STEP = 1e-5          # the same after a Newton step, whose miss is
                            # below this in 9 of 10 charger solves
PEAK_MOVES = 8              # grid steps a tracked maximum may move per solve
ILLINOIS_MAX = 40           # regula falsi steps before a warm solve gives up

# the scan's grid, in the order it walks down from pi (by repeated
# subtraction, so a warm start lands on the very same points)
SCAN_GRID = [PI]
while SCAN_GRID[-1] > 0.0:
    SCAN_GRID.append(SCAN_GRID[-1] - SCAN_STEP)
SCAN_GRID = tuple(SCAN_GRID)

# half the width of _scan_root's final cell (a grid cell halved while it
# is wider than BISECT_TOL), less 1e-14 for the rounding of the cell's
# ends (at most 4e-16 off): [root - CELL_HALF, root + CELL_HALF] lies
# inside the cell whose midpoint the root is
CELL_HALF = SCAN_STEP
while CELL_HALF > BISECT_TOL:
    CELL_HALF *= 0.5
CELL_HALF = 0.5 * CELL_HALF - 1e-14

# solver status codes
OK_ANALYTIC = 0
OK_LOWPOWER = 1
INFEASIBLE = 2
UNREACHABLE = 3


def tank_impedance(omega, ind, cap):
    """Series LC reactance Z = omega*L - 1/(omega*C)."""
    return omega * ind - 1.0 / (omega * cap)


def omega_from_impedance(z, ind, cap):
    """Above-resonance root of Z(omega) = z.

    omega = (sqrt(C^2 Z^2 + 4 L C) + C Z) / (2 L C); z = 0 gives the
    resonant frequency 1/sqrt(LC).
    """
    return (sqrt(cap * cap * z * z + 4.0 * ind * cap) + cap * z) \
        / (2.0 * ind * cap)


def forward_point(d, s, beta, gain):
    """Alignment angles and harmonic amplitude at one switching point.

    The first-harmonic coefficients of the bridge voltage difference are
    A = 4 sin d + 4 G sin(beta+s) + 4 G sin beta and
    B = 4 - 4 G cos(beta+s) - 4 G cos beta - 4 cos d, and
    sigma = atan2(B, A), delta = beta - sigma.

    Returns (amp, sigma, delta, degenerate) with amp = sqrt(A^2+B^2).
    When the coefficients collapse (amp^2 < DEGENERATE_AMP_SQ) the
    angles are undefined; degenerate is set and zeros are returned.
    """
    g4 = 4.0 * gain
    a = 4.0 * sin(d) + g4 * sin(beta + s) + g4 * sin(beta)
    b = 4.0 - g4 * cos(beta + s) - g4 * cos(beta) - 4.0 * cos(d)
    amp_sq = a * a + b * b
    if amp_sq < DEGENERATE_AMP_SQ:
        return 0.0, 0.0, 0.0, True
    sigma = atan2(b, a)
    return sqrt(amp_sq), sigma, beta - sigma, False


def w_from_amplitude(amp, s, delta, z, ratio):
    """W = n/(2 pi^2) * sqrt(A^2+B^2)/Z * (cos(s+delta) + cos delta)."""
    return ratio / TWO_PI_SQ * amp / z \
        * (cos(s + delta) + cos(delta))


def hz_split(h, w_or_z, ratio):
    """The H/Z split W Z = n H / (2 pi^2): Z for W* given, or W for Z
    given."""
    return ratio * h / (TWO_PI_SQ * w_or_z)


def regulated_point(sigma_ref, delta_ref, s_add, gain, sigma_reg, delta_reg):
    """The inverse map: references and regulator corrections ->
    commutation parameters, feasibility and the angle factor H.  This is
    the library's one q map.

    The combined duty variable is, on the buck branch,
    q = acos(cos sigma* - G cos delta* - G cos(delta* + s_add)) + sigma*,
    and on the boost branch
    q = 2 pi - acos(cos delta* - (2/G) cos sigma*) - delta* + s_add; the
    generalized buck test 2 cos sigma* >= G cos(delta* + s_add)
    + G cos delta* selects the branch.  An acos argument within
    ACOS_CLAMP_TOL past [-1, 1] is clamped, one further out makes the
    references infeasible, and q must lie within RANGE_TOL of [0, 2 pi].
    The boost d keeps the alignment at s = q - pi:
    d = acos(cos sigma* - G cos(delta* + s) - G cos delta*) + sigma*,
    which must exist within RANGE_TOL of [0, pi] and is clamped to it.

    The external controller actions are then added (q += sigma_reg,
    beta += delta_reg), q is clamped to [0, 2 pi] and beta to [-pi, pi],
    and q is split into (d, s): (q, s_add) while q <= pi, else
    (boost d, q - pi).  The point is feasible when the references are
    and the in-phase coefficient A of forward_point is at least A_MIN
    there.  H = A * (cos(s + delta*) + cos(delta*)) / cos(sigma*), and
    0.0 wherever the point is infeasible.

    One Python frame, because H runs for every point of the low-power
    scan, where each call shows: cos sigma*, cos delta* and
    cos(delta* + s_add) are taken once, the last serving as
    cos(s + delta*) when s is s_add.  At s_add = 0, which every
    analytic solve passes, cos delta* is reused as cos(delta* + s_add),
    one cosine less per solve.  On perfbench's charge-trickle workload
    (pure Python, Python 3.11, two shared vCPUs) the median
    time_s of ten alternating pairs went from 0.422 s, with the q map,
    the acos clamp and the split as three functions, to 0.357 s
    (BENCH_13.json).  tests/test_inversion.py pins this frame to that
    composition.

    Returns (d, s, beta, h, feasible, is_boost).
    """
    cs, cd = cos(sigma_ref), cos(delta_ref)
    # cos(delta* + 0.0) is cos(delta*) bit for bit, -0.0 included
    cds = cd if s_add == 0.0 else cos(delta_ref + s_add)
    is_boost = 2.0 * cs < gain * (cds + cd)
    x = cd - 2.0 * cs / gain if is_boost else cs - gain * cd - gain * cds
    feasible = True
    if x > 1.0:
        feasible = x <= 1.0 + ACOS_CLAMP_TOL
        x = 1.0
    elif x < -1.0:
        feasible = x >= -1.0 - ACOS_CLAMP_TOL
        x = -1.0
    d = PI
    if not feasible:
        q = 0.0
    elif is_boost:
        q = TWO_PI - acos(x) - delta_ref + s_add
        if s_add == 0.0:
            # at s = s_min the acos argument is -cos(sigma*) analytically;
            # evaluating it numerically loses ~sqrt(eps) near the acos
            # endpoint, so take the exact root directly, which is pi
            # itself (the paper's d = pi split) for sigma* >= 0
            d = PI if sigma_ref >= 0.0 else PI + sigma_ref - abs(sigma_ref)
        else:
            x = cs - gain * cos(delta_ref + (q - PI)) - gain * cd
            ok = not (x > 1.0 + ACOS_CLAMP_TOL or x < -1.0 - ACOS_CLAMP_TOL)
            d = (acos(min(max(x, -1.0), 1.0)) if ok else 0.0) + sigma_ref
            feasible = ok and -RANGE_TOL <= d <= PI + RANGE_TOL
            d = min(max(d, 0.0), PI)
        feasible = feasible and -RANGE_TOL <= q <= TWO_PI + RANGE_TOL
    else:
        q = acos(x) + sigma_ref
        feasible = -RANGE_TOL <= q <= TWO_PI + RANGE_TOL
    beta = sigma_ref + delta_ref + delta_reg
    q = q + sigma_reg
    if q < 0.0:
        q = 0.0
    elif q > TWO_PI:
        q = TWO_PI
    if beta < -PI:
        beta = -PI
    elif beta > PI:
        beta = PI
    if q <= PI:
        d, s = q, s_add
    else:
        s = q - PI
        cds = cos(s + delta_ref)
    a = 4.0 * sin(d) + 4.0 * gain * sin(beta + s) \
        + 4.0 * gain * sin(beta)
    if a < A_MIN or not feasible:
        return d, s, beta, 0.0, False, is_boost
    return d, s, beta, a * (cds + cd) / cs, True, is_boost


def invert_exact(sigma_ref, delta_ref, s_add, gain):
    """Closed-form inverse map: regulated_point at zero corrections.

    Buck keeps d = q, s = s_add; boost takes s = q - pi, i.e. s_min =
    acos(2 cos(sigma*)/G - cos(delta*)) - delta* plus s_add, with the d
    that keeps the alignment at that s.  (d, s) lie in [0, pi] on every
    path, feasible or not.

    Returns (d, s, beta, s_min, is_boost, feasible).
    """
    d, s, beta, _h, feasible, is_boost = regulated_point(
        sigma_ref, delta_ref, s_add, gain, 0.0, 0.0)
    return d, s, beta, (s - s_add if is_boost else 0.0), is_boost, feasible


def _scan_root(sigma_ref, delta_ref, s_lo, gain, sigma_reg, delta_reg,
               h_target, a, b):
    """The scan's crossing of H = h_target on (s_lo, pi]: walk SCAN_GRID
    down from pi to the first point above the target, then bisect that
    cell to BISECT_TOL.

    H is known to be above the target at points <= a and at or below it
    at points >= b, so only points inside (a, b) are evaluated; a = -1,
    b = 4 (nothing known) is the cold scan.  With a bracket on the
    monotone branch the result is the cold scan's, bit for bit.

    Returns (s_add, evaluations).
    """
    n = 0
    k = max(1, int((PI - b) / SCAN_STEP))
    hi = SCAN_GRID[k - 1]     # pi or a point >= b: at or below the target
    lo = s_lo                 # taken as above the target (see s_add_zero_scan)
    x = SCAN_GRID[k]
    while x > s_lo:
        if x < b:
            if x <= a:
                lo = x
                break
            n += 1
            if regulated_point(sigma_ref, delta_ref, x, gain, sigma_reg,
                               delta_reg)[3] > h_target:
                lo = x
                break
        hi = x
        k += 1
        x = SCAN_GRID[k]
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if mid <= a:
            lo = mid
        elif mid >= b:
            hi = mid
        else:
            n += 1
            if regulated_point(sigma_ref, delta_ref, mid, gain, sigma_reg,
                               delta_reg)[3] > h_target:
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi), n


def s_add_zero_scan(sigma_ref, delta_ref, gain):
    """Boundary short-time s_add0 past which H decreases monotonically.

    The rightmost crossing of H(s_add0) = H(0) on (0, pi], found by the
    low-power solve's scan on the dimming curve at zero corrections.
    s_add0 is 0.0 when H never rises above H(0) (already monotone from
    the start): the scan then closes in on 0 and a root within
    BISECT_TOL of it reads as 0.

    Returns (s_add0, feasible), feasible being that of the references
    at s_add = 0.
    """
    _d, _s, _b, h0, feasible, _boost = regulated_point(
        sigma_ref, delta_ref, 0.0, gain, 0.0, 0.0)
    if h0 <= 0.0:
        return 0.0, feasible
    s_add0, _n = _scan_root(sigma_ref, delta_ref, 0.0, gain, 0.0, 0.0, h0,
                            -1.0, 4.0)
    return (s_add0 if s_add0 > BISECT_TOL else 0.0), True


def _last_peak(sigma_ref, delta_ref, s_lo, gain, sigma_reg, delta_reg,
               s_peak):
    """Bound on the last local maximum of max(H, 0), tracked from the
    previous bound s_peak: climb along SCAN_GRID to a point that neither
    grid neighbour exceeds (ties go left, towards s_lo).  The maximum
    lies within one grid step of that point, so the bound is the next
    grid point to the right.  Around the charger's range (module
    docstring) max(H, 0) is non-increasing from it to pi; beyond it the
    curve can rise again past a jump of the q split.  (For delta* > 0,
    H itself is negative just left of pi and rises to 0 at pi.)

    The climb starts next to s_peak and may take PEAK_MOVES steps; when
    s_peak is unknown (negative) or the maximum has moved farther, it
    starts at pi and walks down to the first maximum instead.

    Returns (bound, evaluations).
    """
    if s_peak < 0.0:
        k, moves = 1, len(SCAN_GRID)
    else:
        k = int(round((PI - s_peak) / SCAN_STEP)) + 1
        k, moves = min(max(k, 1), len(SCAN_GRID) - 2), PEAK_MOVES
    hx = regulated_point(sigma_ref, delta_ref, SCAN_GRID[k], gain,
                         sigma_reg, delta_reg)[3]
    hl = regulated_point(sigma_ref, delta_ref, SCAN_GRID[k + 1], gain,
                         sigma_reg, delta_reg)[3]
    hr = regulated_point(sigma_ref, delta_ref, SCAN_GRID[k - 1], gain,
                         sigma_reg, delta_reg)[3]
    n = 3
    # the comparisons are those of max(H, 0), written out so that no
    # evaluation pays for a max() call
    for _ in range(moves):
        if (hl >= hx or hx <= 0.0) and SCAN_GRID[k + 1] > s_lo:
            k += 1
            hr, hx = hx, hl
            hl = regulated_point(sigma_ref, delta_ref, SCAN_GRID[k + 1],
                                 gain, sigma_reg, delta_reg)[3]
        elif hr > hx and hr > 0.0:
            if k == 1:
                return PI, n      # H rises into pi
            k -= 1
            hl, hx = hx, hr
            hr = regulated_point(sigma_ref, delta_ref, SCAN_GRID[k - 1],
                                 gain, sigma_reg, delta_reg)[3]
        else:
            return SCAN_GRID[k - 1], n
        n += 1
    bound, m = _last_peak(sigma_ref, delta_ref, s_lo, gain, sigma_reg,
                          delta_reg, -1.0)
    return bound, n + m


def _warm_bracket(sigma_ref, delta_ref, s_lo, gain, sigma_reg, delta_reg,
                  h_target, x0, slope):
    """Bracket [a, b] of H = h_target inside [s_lo, pi] with
    H(a) > h_target >= H(b), searched from x0, the previous root: widen
    geometrically from x = x0 - CELL_HALF by WARM_STEP, then narrow with
    Illinois regula falsi (Dowell & Jarratt 1971) to BISECT_TOL.

    With slope < 0, the dH/ds carried from the previous solve's bracket,
    the previous root's cell [x, x0 + CELL_HALF] comes first: when one
    Newton step x - (H(x) - h_target) / slope lands inside it and H at
    its upper end is at or below the target, the cell is the bracket.
    It lies inside the scan's cell of x0, so the scan evaluates nothing
    in it.  Otherwise the widening starts by NEWTON_STEP, from one
    Newton step clamped to [s_lo, pi] when that step is longer than
    NEWTON_STEP (a shorter one does not pay for its evaluation), else
    from x.  slope = 0.0 (not known yet) or NaN skips both.  A wrong
    slope can cost evaluations but cannot move the bracket off the
    crossing, which every path checks by sign.

    Returns (a, b, slope, evaluations), the slope being the secant of
    the widened bracket, or the carried one for the cell; a is -1.0, and
    the slope 0.0, when [s_lo, pi] holds no bracket or the narrowing
    does not converge.
    """
    x = min(max(x0 - CELL_HALF, s_lo), PI)
    fx = regulated_point(sigma_ref, delta_ref, x, gain, sigma_reg,
                         delta_reg)[3] - h_target
    n = 1
    step = WARM_STEP
    if slope < 0.0:
        step = NEWTON_STEP
        dx = fx / slope
        b = min(x0 + CELL_HALF, PI)
        if fx > 0.0 and x - dx <= b:
            fb = regulated_point(sigma_ref, delta_ref, b, gain, sigma_reg,
                                 delta_reg)[3] - h_target
            n = 2
            if fb <= 0.0:
                return x, b, slope, n
            x, fx = b, fb       # crossing right of the cell
        elif dx > NEWTON_STEP or dx < -NEWTON_STEP:
            x -= dx
            if x < s_lo:
                x = s_lo
            if x > PI:
                x = PI
            fx = regulated_point(sigma_ref, delta_ref, x, gain, sigma_reg,
                                 delta_reg)[3] - h_target
            n = 2
    a, fa, b, fb = x, fx, x, fx
    if fx > 0.0:
        while fb > 0.0:         # crossing right of x: move b out
            if b >= PI:
                return -1.0, 0.0, 0.0, n
            a, fa = b, fb
            b = min(b + step, PI)
            fb = regulated_point(sigma_ref, delta_ref, b, gain, sigma_reg,
                                 delta_reg)[3] - h_target
            n += 1
            step *= 2.0
    else:
        while fa <= 0.0:        # crossing left of x: move a out
            if a <= s_lo:
                return -1.0, 0.0, 0.0, n
            b, fb = a, fa
            a = max(a - step, s_lo)
            fa = regulated_point(sigma_ref, delta_ref, a, gain, sigma_reg,
                                 delta_reg)[3] - h_target
            n += 1
            step *= 2.0
    slope = (fb - fa) / (b - a)
    side = 0
    for _ in range(ILLINOIS_MAX):
        if b - a <= BISECT_TOL:
            return a, b, slope, n
        x = (a * fb - b * fa) / (fb - fa)
        # strictly inside, so that rounding cannot stall it on an end
        if x < a + 0.25 * BISECT_TOL:
            x = a + 0.25 * BISECT_TOL
        if x > b - 0.25 * BISECT_TOL:
            x = b - 0.25 * BISECT_TOL
        fx = regulated_point(sigma_ref, delta_ref, x, gain, sigma_reg,
                             delta_reg)[3] - h_target
        n += 1
        if fx > 0.0:
            a, fa = x, fx
            if side == 1:
                fb *= 0.5
            side = 1
        else:
            b, fb = x, fx
            if side == -1:
                fa *= 0.5
            side = -1
    return -1.0, 0.0, 0.0, n


def solve_controls_scan(sigma_ref, delta_ref, s_add_req, gain, w_ref,
                        sigma_reg, delta_reg, ind, cap, ratio, omega_max,
                        warm=None):
    """Outer power-control loop: pick (d, s, beta, omega, s_add).

    Analytic branch: at the requested s_add (in [0, pi]) compute the
    angle factor H, the required impedance Z from the H/Z split and the
    above-resonance frequency; if it fits under omega_max, done.
    Otherwise pin omega = omega_max and dim via the short-time: H(s_add)
    is non-monotone from 0 but ends at 0 at pi, so locate the rightmost
    crossing of the target H* (the split at Z_max) by scanning down from
    pi in SCAN_STEP steps (this lands on the final monotone branch, past
    the discontinuous jump from the s_add = 0 operating point) and refine
    by bisection.  A result more than W_REL_TOL off W* is reported
    unreachable.

    warm is None (the cold scan) or the warm state an earlier call
    returned, (s_prev, s_peak, slope): the previous low-power root, the
    previous bound on the last local maximum of max(H, 0) (negative:
    not known yet) and the previous solve's dH/ds at s_prev (0.0: not
    known yet).  The bound is tracked from s_peak and the crossing
    bracketed on [bound, pi] (the module docstring says where it is
    unique there): when slope < 0, by s_prev's own bisection cell if the
    target still crosses inside it, else from s_prev or one Newton step
    off it (_warm_bracket); the scan then evaluates only inside that
    bracket, which gives the cold scan's s_add bit for bit.
    Without a bracket there (the crossing moved left of the hump, or
    none was found) the cold scan runs and the fallback flag is set.

    Returns (d, s, beta, omega, s_add_used, h, w_achieved, status,
    fallback, h_evaluations, warm).  The last is the warm state for the
    next call: (s_add_used, bound, slope) after a low-power solve of
    W* > 0, bound being -1.0 after a cold solve and slope 0.0 unless the
    solve found its bracket; on every other path (analytic, W* <= 0,
    infeasible, unreachable) it is the warm argument itself.
    """
    if w_ref <= 0.0:
        # zero power: invert at s_add = pi, so s = pi while q <= pi and
        # s = q - pi once a sigma correction pushes q past pi
        d, s, beta, h, _ok, _boost = regulated_point(
            sigma_ref, delta_ref, PI, gain, sigma_reg, delta_reg)
        return d, s, beta, omega_max, PI, h, 0.0, OK_LOWPOWER, False, 1, warm

    d, s, beta, h, ok, _boost = regulated_point(
        sigma_ref, delta_ref, s_add_req, gain, sigma_reg, delta_reg)
    if not ok:
        return d, s, beta, 0.0, s_add_req, h, 0.0, INFEASIBLE, False, 1, warm
    if h <= 1e-9:
        # collapsed tank current (H is rounding noise): no frequency
        # reaches any positive power
        return d, s, beta, 0.0, s_add_req, h, 0.0, UNREACHABLE, False, 1, \
            warm

    omega = omega_from_impedance(hz_split(h, w_ref, ratio), ind, cap)
    if omega <= omega_max * (1.0 + 1e-12):
        return d, s, beta, omega, s_add_req, h, w_ref, OK_ANALYTIC, False, \
            1, warm

    # low-power branch at fixed omega_max; W is linear in H at fixed Z
    z_max = tank_impedance(omega_max, ind, cap)
    h_target = w_ref / hz_split(1.0, z_max, ratio)
    a, b, bound, slope, n = -1.0, 4.0, -1.0, 0.0, 0
    fallback = False
    if warm is not None:
        s_prev, s_peak, slope = warm
        bound, n = _last_peak(sigma_ref, delta_ref, s_add_req, gain,
                              sigma_reg, delta_reg, s_peak)
        a, b, slope, m = _warm_bracket(
            sigma_ref, delta_ref, max(bound, s_add_req), gain, sigma_reg,
            delta_reg, h_target, s_prev, slope)
        n += m
        if a < 0.0:
            a, b, fallback = -1.0, 4.0, True
    s_used, m = _scan_root(sigma_ref, delta_ref, s_add_req, gain, sigma_reg,
                           delta_reg, h_target, a, b)
    d, s, beta, h, _ok, _boost = regulated_point(
        sigma_ref, delta_ref, s_used, gain, sigma_reg, delta_reg)
    w_achieved = hz_split(h, z_max, ratio)
    if abs(w_achieved - w_ref) > W_REL_TOL * w_ref:
        return d, s, beta, omega_max, s_used, h, w_achieved, UNREACHABLE, \
            fallback, n + m + 2, warm
    return d, s, beta, omega_max, s_used, h, w_achieved, OK_LOWPOWER, \
        fallback, n + m + 2, (s_used, bound, slope)

"""Scalar hot kernels for the converter model and its inverse maps.

Everything here is plain float math on Python floats, with no objects
or arrays, to keep the per-call cost low in pure Python.  The
closed-loop charger simulation calls these functions hundreds of
thousands of times (once or more per control step, plus the short-time
scans), which is where essentially all runtime goes.

The low-power solve (solve_controls_scan) dims at omega_max by finding
the rightmost crossing of the dimming curve H(s_add) with its target.
Cold, it walks the SCAN_STEP grid down from pi and bisects the crossing
cell: about 240 H evaluations.  Warm, it starts from the previous
step's root and the previous bound on the last local maximum of H:
the bound is re-tracked along the grid, the crossing is bracketed on
[bound, pi], where H is non-increasing and the crossing unique, and
Illinois regula falsi narrows the bracket; the scan then evaluates only
inside it, so the warm root is the cold scan's, bit for bit, after 9 to
13 evaluations on the charger workloads.  When there is no such bracket
the cold scan runs and the solve reports a fallback.
"""

import math

# pi as module constants: in pure Python a global load is cheaper
# than math.pi, which the scan's H evaluations use about ten times
PI = math.pi
TWO_PI = 2.0 * math.pi

DEGENERATE_AMP_SQ = 1e-24   # A^2 + B^2 below this means tank-current collapse
ACOS_CLAMP_TOL = 1e-9       # tolerated overshoot of |acos argument| past 1.0
RANGE_TOL = 1e-9            # tolerated overshoot of d, s past [0, pi]
A_MIN = -4e-12              # in-phase coefficient A below this is infeasible
SCAN_STEP = PI / 512        # grid of the short-time scans
S_ADD0_TOL = 1e-9           # bisection width of the s_add0 boundary
W_REL_TOL = 0.01            # accepted relative W miss of the low-power scan
BISECT_TOL = 1e-10          # final bracket width of the low-power solve
WARM_STEP = 1e-3            # first widening step of a warm bracket
PEAK_MOVES = 8              # grid steps a tracked maximum may move per solve
ILLINOIS_MAX = 40           # regula falsi steps before a warm solve gives up

# the scan's grid, in the order it walks down from pi (by repeated
# subtraction, so a warm start lands on the very same points)
SCAN_GRID = [PI]
while SCAN_GRID[-1] > 0.0:
    SCAN_GRID.append(SCAN_GRID[-1] - SCAN_STEP)
SCAN_GRID = tuple(SCAN_GRID)

# solver status codes
OK_ANALYTIC = 0
OK_LOWPOWER = 1
INFEASIBLE = 2
UNREACHABLE = 3


def clamped_acos(x):
    """acos with a small tolerance band around [-1, 1].

    Returns (value, ok).  Arguments within ACOS_CLAMP_TOL of the domain
    are clamped (boundary operating points are legitimate); anything
    further out is reported as infeasible.
    """
    if x > 1.0:
        if x > 1.0 + ACOS_CLAMP_TOL:
            return 0.0, False
        x = 1.0
    elif x < -1.0:
        if x < -1.0 - ACOS_CLAMP_TOL:
            return 0.0, False
        x = -1.0
    return math.acos(x), True


def harmonic_ab(d, s, beta, gain):
    """First-harmonic coefficients of the bridge voltage difference.

    A = 4 sin d + 4 G sin(beta+s) + 4 G sin beta
    B = 4 - 4 G cos(beta+s) - 4 G cos beta - 4 cos d
    """
    a = 4.0 * math.sin(d) + 4.0 * gain * math.sin(beta + s) \
        + 4.0 * gain * math.sin(beta)
    b = 4.0 - 4.0 * gain * math.cos(beta + s) - 4.0 * gain * math.cos(beta) \
        - 4.0 * math.cos(d)
    return a, b


def tank_impedance(omega, ind, cap):
    """Series LC reactance Z = omega*L - 1/(omega*C)."""
    return omega * ind - 1.0 / (omega * cap)


def omega_from_impedance(z, ind, cap):
    """Above-resonance root of Z(omega) = z.

    omega = (sqrt(C^2 Z^2 + 4 L C) + C Z) / (2 L C); z = 0 gives the
    resonant frequency 1/sqrt(LC).
    """
    return (math.sqrt(cap * cap * z * z + 4.0 * ind * cap) + cap * z) \
        / (2.0 * ind * cap)


def forward_point(d, s, beta, gain):
    """Alignment angles and harmonic amplitude at one switching point.

    Returns (amp, sigma, delta, degenerate) with amp = sqrt(A^2+B^2).
    When the coefficients collapse (amp^2 < DEGENERATE_AMP_SQ) the
    angles are undefined; degenerate is set and zeros are returned.
    """
    a, b = harmonic_ab(d, s, beta, gain)
    amp_sq = a * a + b * b
    if amp_sq < DEGENERATE_AMP_SQ:
        return 0.0, 0.0, 0.0, True
    sigma = math.atan2(b, a)
    return math.sqrt(amp_sq), sigma, beta - sigma, False


def w_from_amplitude(amp, s, delta, z, ratio):
    """W = n/(2 pi^2) * sqrt(A^2+B^2)/Z * (cos(s+delta) + cos delta)."""
    return ratio / (2.0 * PI ** 2) * amp / z \
        * (math.cos(s + delta) + math.cos(delta))


def hz_split(h, w_or_z, ratio):
    """The H/Z split W Z = n H / (2 pi^2): Z for W* given, or W for Z
    given."""
    return ratio * h / (2.0 * PI ** 2 * w_or_z)


def transconductance_point(d, s, beta, omega, gain, ind, cap, ratio):
    """Transconductance W at one switching point (see w_from_amplitude).

    Returns (w, ok); ok is False below resonance (Z <= 0).  The
    collapsed point returns w = 0 exactly.
    """
    z = tank_impedance(omega, ind, cap)
    if z <= 0.0:
        return 0.0, False
    amp, _sigma, delta, degenerate = forward_point(d, s, beta, gain)
    if degenerate:
        return 0.0, True
    return w_from_amplitude(amp, s, delta, z, ratio), True


def q_reference(sigma_ref, delta_ref, s_add, gain):
    """Combined duty variable q for the references.

    Buck: q = acos(cos(sigma*) - G cos(delta*) - G cos(delta*+s_add))
    + sigma*; boost: q = 2 pi - acos(cos(delta*) - (2/G) cos(sigma*))
    - delta* + s_add.  Branch selected by the generalized buck test
    2 cos(sigma*) >= G cos(delta* + s_add) + G cos(delta*).

    Returns (q, is_boost, feasible).
    """
    cs = math.cos(sigma_ref)
    cd = math.cos(delta_ref)
    is_boost = 2.0 * cs < gain * (math.cos(delta_ref + s_add) + cd)
    if is_boost:
        val, ok = clamped_acos(cd - 2.0 * cs / gain)
        if not ok:
            return 0.0, True, False
        q = TWO_PI - val - delta_ref + s_add
    else:
        val, ok = clamped_acos(cs - gain * cd - gain * math.cos(delta_ref + s_add))
        if not ok:
            return 0.0, False, False
        q = val + sigma_ref
    return q, is_boost, False if q < -RANGE_TOL or q > TWO_PI + RANGE_TOL else True


def invert_exact(sigma_ref, delta_ref, s_add, gain):
    """Closed-form inverse map: references -> commutation parameters.

    Splits q from q_reference: buck keeps d = q, s = s_add; boost takes
    s = q - pi, i.e. s_min = acos(2 cos(sigma*)/G - cos(delta*)) - delta*
    plus s_add, then recomputes d = acos(cos(sigma*) - G cos(delta*+s)
    - G cos(delta*)) + sigma* so the alignment holds at that s.  The
    in-phase coefficient A must come out non-negative.  (d, s) are
    clamped to [0, pi] on every path, feasible or not.

    Returns (d, s, beta, s_min, is_boost, feasible).
    """
    beta = sigma_ref + delta_ref
    q, is_boost, feasible = q_reference(sigma_ref, delta_ref, s_add, gain)
    d = q
    s = s_add
    s_min = 0.0
    if is_boost and feasible:
        s = q - PI
        s_min = s - s_add
        if s_add == 0.0:
            # at s = s_min the acos argument is -cos(sigma*) analytically;
            # evaluating it numerically loses ~sqrt(eps) near the acos
            # endpoint, so take the exact root directly
            d = PI + sigma_ref - abs(sigma_ref)
        else:
            val, feasible = clamped_acos(math.cos(sigma_ref)
                                         - gain * math.cos(delta_ref + s)
                                         - gain * math.cos(delta_ref))
            d = val + sigma_ref
    if d < -RANGE_TOL or d > PI + RANGE_TOL \
            or s < -RANGE_TOL or s > PI + RANGE_TOL:
        feasible = False
    d = min(max(d, 0.0), PI)
    s = min(max(s, 0.0), PI)
    a, _b = harmonic_ab(d, s, beta, gain)
    if a < A_MIN:
        feasible = False
    return d, s, beta, s_min, is_boost, feasible


def h_factor(d, s, beta, sigma_ref, delta_ref, gain):
    """Angle factor H = A * (cos(s + delta*) + cos(delta*)) / cos(sigma*)
    with the factor-4 in-phase coefficient A of harmonic_ab.

    A is written out here rather than taken from harmonic_ab because H
    runs for every point of the low-power scan, where each Python call
    shows: on perfbench's charge-trickle workload (pure Python,
    Python 3.11, two shared Xeon vCPUs) a separate A helper called from
    here made the median time_s of four runs 4% longer (2.79 s against
    2.68 s).
    """
    a = 4.0 * math.sin(d) + 4.0 * gain * math.sin(beta + s) \
        + 4.0 * gain * math.sin(beta)
    return a * (math.cos(s + delta_ref) + math.cos(delta_ref)) \
        / math.cos(sigma_ref)


def regulated_point(sigma_ref, delta_ref, s_add, gain, sigma_reg, delta_reg):
    """One pass of the combined inversion with regulator corrections.

    q and beta come from the reference maps; the external controller
    actions are then added (q += sigma_reg, beta += delta_reg) and q is
    split into (d, s): d = q, s = s_add while q <= pi, else d = pi,
    s = q - pi.  Returns (d, s, beta, h, feasible) with h the angle
    factor of h_factor at that point.
    """
    q, _is_boost, feasible = q_reference(sigma_ref, delta_ref, s_add, gain)
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
        d = q
        s = s_add
    else:
        d = PI
        s = q - PI
    if s > PI:
        s = PI
    h = h_factor(d, s, beta, sigma_ref, delta_ref, gain)
    return d, s, beta, h, feasible


def h_exact(sigma_ref, delta_ref, s_add, gain):
    """Angle factor H along the exact inverse map.

    Returns (h, feasible); h is 0.0 where the references are infeasible.
    """
    d, s, beta, _s_min, _is_boost, feasible = invert_exact(
        sigma_ref, delta_ref, s_add, gain)
    if not feasible:
        return 0.0, False
    return h_factor(d, s, beta, sigma_ref, delta_ref, gain), True


def s_add_zero_scan(sigma_ref, delta_ref, gain):
    """Boundary short-time s_add0 past which H decreases monotonically.

    Solves H(s_add0) = H(0) along the exact inverse map by locating the
    last SCAN_STEP grid cell where H still exceeds H(0), then bisecting
    the down-crossing to S_ADD0_TOL.  s_add0 is 0.0 when H never rises
    above H(0) (already monotone from the start).

    Returns (s_add0, feasible), feasible being that of the references
    at s_add = 0.
    """
    h0, feasible = h_exact(sigma_ref, delta_ref, 0.0, gain)
    if h0 <= 0.0:
        return 0.0, feasible
    eps = 1e-12 * (1.0 + abs(h0))
    n = int(math.ceil(PI / SCAN_STEP))
    last_above = -1
    for k in range(1, n + 1):
        x = min(k * SCAN_STEP, PI)
        if h_exact(sigma_ref, delta_ref, x, gain)[0] > h0 + eps:
            last_above = k
    if last_above < 0:
        return 0.0, True
    lo = min(last_above * SCAN_STEP, PI)
    hi = min((last_above + 1) * SCAN_STEP, PI)
    while hi - lo > S_ADD0_TOL:
        mid = 0.5 * (lo + hi)
        if h_exact(sigma_ref, delta_ref, mid, gain)[0] > h0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), True


def dimming_h(sigma_ref, delta_ref, s_add, gain, sigma_reg, delta_reg):
    """The dimming curve the low-power solve searches: H of
    regulated_point at s_add, read as 0.0 where the references are
    infeasible."""
    _d, _s, _b, h, ok = regulated_point(
        sigma_ref, delta_ref, s_add, gain, sigma_reg, delta_reg)
    return h if ok else 0.0


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
    lo = s_lo                 # H(s_lo) > h_target, established by the caller
    x = SCAN_GRID[k]
    while x > s_lo:
        if x < b:
            if x <= a:
                lo = x
                break
            n += 1
            if dimming_h(sigma_ref, delta_ref, x, gain, sigma_reg,
                         delta_reg) > h_target:
                lo = x
                break
        hi = x
        k += 1
        x = SCAN_GRID[k]
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if a < mid < b:
            n += 1
            above = dimming_h(sigma_ref, delta_ref, mid, gain, sigma_reg,
                              delta_reg) > h_target
        else:
            above = mid <= a
        if above:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), n


def _last_peak(sigma_ref, delta_ref, s_lo, gain, sigma_reg, delta_reg,
               s_peak):
    """Bound on the last local maximum of H, tracked from the previous
    bound s_peak: climb along SCAN_GRID to a point that neither grid
    neighbour exceeds (ties go left, towards s_lo).  The maximum lies
    within one grid step of that point, so the bound is the next grid
    point to the right, and H is non-increasing from it to pi.

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
    hx = dimming_h(sigma_ref, delta_ref, SCAN_GRID[k], gain, sigma_reg,
                   delta_reg)
    hl = dimming_h(sigma_ref, delta_ref, SCAN_GRID[k + 1], gain, sigma_reg,
                   delta_reg)
    hr = dimming_h(sigma_ref, delta_ref, SCAN_GRID[k - 1], gain, sigma_reg,
                   delta_reg)
    n = 3
    for _ in range(moves):
        if hl >= hx and SCAN_GRID[k + 1] > s_lo:
            k += 1
            hr, hx = hx, hl
            hl = dimming_h(sigma_ref, delta_ref, SCAN_GRID[k + 1], gain,
                           sigma_reg, delta_reg)
        elif hr > hx:
            if k == 1:
                return PI, n      # H rises into pi
            k -= 1
            hl, hx = hx, hr
            hr = dimming_h(sigma_ref, delta_ref, SCAN_GRID[k - 1], gain,
                           sigma_reg, delta_reg)
        else:
            return SCAN_GRID[k - 1], n
        n += 1
    bound, m = _last_peak(sigma_ref, delta_ref, s_lo, gain, sigma_reg,
                          delta_reg, -1.0)
    return bound, n + m


def _warm_bracket(sigma_ref, delta_ref, s_lo, gain, sigma_reg, delta_reg,
                  h_target, x0):
    """Bracket [a, b] of H = h_target inside [s_lo, pi] with
    H(a) > h_target >= H(b): widen geometrically from x0 by WARM_STEP,
    then narrow with Illinois regula falsi (Dowell & Jarratt 1971) to
    BISECT_TOL.

    Returns (a, b, evaluations); a is -1.0 when [s_lo, pi] holds no
    bracket or the narrowing does not converge.
    """
    x = min(max(x0, s_lo), PI)
    fx = dimming_h(sigma_ref, delta_ref, x, gain, sigma_reg, delta_reg) \
        - h_target
    n = 1
    step = WARM_STEP
    a, fa, b, fb = x, fx, x, fx
    if fx > 0.0:
        while fb > 0.0:         # crossing right of x: move b out
            if b >= PI:
                return -1.0, 0.0, n
            a, fa = b, fb
            b = min(b + step, PI)
            fb = dimming_h(sigma_ref, delta_ref, b, gain, sigma_reg,
                           delta_reg) - h_target
            n += 1
            step *= 2.0
    else:
        while fa <= 0.0:        # crossing left of x: move a out
            if a <= s_lo:
                return -1.0, 0.0, n
            b, fb = a, fa
            a = max(a - step, s_lo)
            fa = dimming_h(sigma_ref, delta_ref, a, gain, sigma_reg,
                           delta_reg) - h_target
            n += 1
            step *= 2.0
    side = 0
    for _ in range(ILLINOIS_MAX):
        if b - a <= BISECT_TOL:
            return a, b, n
        x = (a * fb - b * fa) / (fb - fa)
        # strictly inside, so that rounding cannot stall it on an end
        x = min(max(x, a + 0.25 * BISECT_TOL), b - 0.25 * BISECT_TOL)
        fx = dimming_h(sigma_ref, delta_ref, x, gain, sigma_reg,
                       delta_reg) - h_target
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
    return -1.0, 0.0, n


def solve_controls_scan(sigma_ref, delta_ref, s_add_req, gain, w_ref,
                        sigma_reg, delta_reg, ind, cap, ratio, omega_max,
                        s_prev=-1.0, s_peak=-1.0):
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

    Warm start: s_prev >= 0 is the previous low-power root and s_peak
    the previous bound on the last local maximum of H (negative: not
    known yet).  The bound is tracked from s_peak, the crossing is
    bracketed from s_prev on [bound, pi], where H is non-increasing and
    the crossing unique, and the scan then evaluates only inside that
    bracket, which gives the cold scan's s_add bit for bit.  Without a
    bracket there (the crossing moved left of the hump, or none was
    found) the cold scan runs and the fallback flag is set.  Without a
    warm state (the defaults) this is the cold scan.

    Returns (d, s, beta, omega, s_add_used, h, w_achieved, status,
    fallback, h_evaluations, s_peak); s_peak is -1.0 except after a warm
    low-power solve.
    """
    if w_ref <= 0.0:
        # zero power: fully shorted secondary
        d, s, beta, h, ok = regulated_point(
            sigma_ref, delta_ref, PI, gain, sigma_reg, delta_reg)
        return d, s, beta, omega_max, PI, h, 0.0, OK_LOWPOWER, False, 1, \
            -1.0

    d, s, beta, h, ok = regulated_point(
        sigma_ref, delta_ref, s_add_req, gain, sigma_reg, delta_reg)
    if not ok:
        return d, s, beta, 0.0, s_add_req, h, 0.0, INFEASIBLE, False, 1, \
            -1.0
    if h <= 1e-9:
        # collapsed tank current (H is rounding noise): no frequency
        # reaches any positive power
        return d, s, beta, 0.0, s_add_req, h, 0.0, UNREACHABLE, False, 1, \
            -1.0

    omega = omega_from_impedance(hz_split(h, w_ref, ratio), ind, cap)
    if omega <= omega_max * (1.0 + 1e-12):
        return d, s, beta, omega, s_add_req, h, w_ref, OK_ANALYTIC, False, \
            1, -1.0

    # low-power branch at fixed omega_max; W is linear in H at fixed Z
    z_max = tank_impedance(omega_max, ind, cap)
    h_target = w_ref / hz_split(1.0, z_max, ratio)
    a, b, bound, n = -1.0, 4.0, -1.0, 0
    fallback = False
    if s_prev >= 0.0:
        bound, n = _last_peak(sigma_ref, delta_ref, s_add_req, gain,
                              sigma_reg, delta_reg, s_peak)
        a, b, m = _warm_bracket(sigma_ref, delta_ref, max(bound, s_add_req),
                                gain, sigma_reg, delta_reg, h_target, s_prev)
        n += m
        if a < 0.0:
            a, b, fallback = -1.0, 4.0, True
    s_used, m = _scan_root(sigma_ref, delta_ref, s_add_req, gain, sigma_reg,
                           delta_reg, h_target, a, b)
    d, s, beta, h, ok = regulated_point(
        sigma_ref, delta_ref, s_used, gain, sigma_reg, delta_reg)
    w_achieved = hz_split(h, z_max, ratio)
    status = OK_LOWPOWER
    if abs(w_achieved - w_ref) > W_REL_TOL * w_ref:
        status = UNREACHABLE
    return d, s, beta, omega_max, s_used, h, w_achieved, status, fallback, \
        n + m + 2, bound

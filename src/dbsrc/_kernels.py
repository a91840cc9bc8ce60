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
step's root and the previous bound on the last local maximum of
max(H, 0): the bound is re-tracked along the grid, the crossing is
bracketed on [bound, pi], where max(H, 0) is non-increasing and the
crossing of the positive target unique, and Illinois regula falsi
narrows the bracket; the scan then evaluates only inside it, so the
warm root is the cold scan's, bit for bit, after 9 to 13 evaluations
on the charger workloads.  When there is no such bracket
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
    """Combined duty variable q for the references, and the d of the
    exact inverse on the q > pi side.

    Buck: q = acos(cos(sigma*) - G cos(delta*) - G cos(delta*+s_add))
    + sigma*; boost: q = 2 pi - acos(cos(delta*) - (2/G) cos(sigma*))
    - delta* + s_add.  Branch selected by the generalized buck test
    2 cos(sigma*) >= G cos(delta* + s_add) + G cos(delta*).

    The boost d keeps the alignment at s = q - pi:
    d = acos(cos(sigma*) - G cos(delta* + s) - G cos(delta*)) + sigma*,
    clamped to [0, pi].  Buck points have q <= pi, where the split takes
    d = q; their d is reported as pi.  feasible also requires the boost
    d to exist.  regulated_point writes this map out in its own frame.

    Returns (q, d, is_boost, feasible).
    """
    cs, cd = math.cos(sigma_ref), math.cos(delta_ref)
    cds = math.cos(delta_ref + s_add)
    is_boost = 2.0 * cs < gain * (cds + cd)
    if is_boost:
        val, ok = clamped_acos(cd - 2.0 * cs / gain)
        if not ok:
            return 0.0, PI, True, False
        q = TWO_PI - val - delta_ref + s_add
        if s_add == 0.0:
            # at s = s_min the acos argument is -cos(sigma*) analytically;
            # evaluating it numerically loses ~sqrt(eps) near the acos
            # endpoint, so take the exact root directly, which is pi
            # itself (the paper's d = pi split) for sigma* >= 0
            d = PI if sigma_ref >= 0.0 else PI + sigma_ref - abs(sigma_ref)
        else:
            val, ok = clamped_acos(cs - gain * math.cos(delta_ref + (q - PI))
                                   - gain * cd)
            d = val + sigma_ref
            ok = ok and -RANGE_TOL <= d <= PI + RANGE_TOL
            d = min(max(d, 0.0), PI)
        return q, d, True, ok and -RANGE_TOL <= q <= TWO_PI + RANGE_TOL
    val, ok = clamped_acos(cs - gain * cd - gain * cds)
    if not ok:
        return 0.0, PI, False, False
    q = val + sigma_ref
    return q, PI, False, -RANGE_TOL <= q <= TWO_PI + RANGE_TOL


def regulated_point(sigma_ref, delta_ref, s_add, gain, sigma_reg, delta_reg):
    """The inverse map: references and regulator corrections ->
    commutation parameters, feasibility and the angle factor H.

    q, the boost d and feasibility are q_reference's; the external
    controller actions are added (q += sigma_reg, beta += delta_reg),
    q is clamped to [0, 2 pi] and beta to [-pi, pi], and q is split
    into (d, s): (q, s_add) while q <= pi, else (boost d, q - pi).  The
    point is feasible when the references are and the in-phase
    coefficient A of harmonic_ab is at least A_MIN there.
    H = A * (cos(s + delta*) + cos(delta*)) / cos(sigma*), and 0.0
    wherever the point is infeasible.

    One Python frame, because H runs for every point of the low-power
    scan, where each call shows: the q map with clamped_acos's tolerance
    tests, the split and A are written out here in q_reference's
    operation order, and cos sigma*, cos delta* and cos(delta* + s_add)
    are taken once, the last serving as cos(s + delta*) when s is s_add.
    On perfbench's charge-trickle workload (pure Python, Python 3.11,
    two shared vCPUs) the median time_s of ten alternating pairs went
    from 0.422 s, calling q_reference, clamped_acos and a split helper,
    to 0.357 s (BENCH_13.json).  A test pins it to that composition.

    Returns (d, s, beta, h, feasible, is_boost).
    """
    cs, cd = math.cos(sigma_ref), math.cos(delta_ref)
    cds = math.cos(delta_ref + s_add)
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
        q = TWO_PI - math.acos(x) - delta_ref + s_add
        if s_add == 0.0:
            # see q_reference: the exact root at s = s_min
            d = PI if sigma_ref >= 0.0 else PI + sigma_ref - abs(sigma_ref)
        else:
            x = cs - gain * math.cos(delta_ref + (q - PI)) - gain * cd
            ok = not (x > 1.0 + ACOS_CLAMP_TOL or x < -1.0 - ACOS_CLAMP_TOL)
            d = (math.acos(min(max(x, -1.0), 1.0)) if ok else 0.0) + sigma_ref
            feasible = ok and -RANGE_TOL <= d <= PI + RANGE_TOL
            d = min(max(d, 0.0), PI)
        feasible = feasible and -RANGE_TOL <= q <= TWO_PI + RANGE_TOL
    else:
        q = math.acos(x) + sigma_ref
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
        cds = math.cos(s + delta_ref)
    a = 4.0 * math.sin(d) + 4.0 * gain * math.sin(beta + s) \
        + 4.0 * gain * math.sin(beta)
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
        if a < mid < b:
            n += 1
            above = regulated_point(sigma_ref, delta_ref, mid, gain,
                                    sigma_reg, delta_reg)[3] > h_target
        else:
            above = mid <= a
        if above:
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
    grid point to the right, and max(H, 0) is non-increasing from it to
    pi.  (For delta* > 0, H itself is negative just left of pi and
    rises to 0 at pi.)

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
                  h_target, x0):
    """Bracket [a, b] of H = h_target inside [s_lo, pi] with
    H(a) > h_target >= H(b): widen geometrically from x0 by WARM_STEP,
    then narrow with Illinois regula falsi (Dowell & Jarratt 1971) to
    BISECT_TOL.

    Returns (a, b, evaluations); a is -1.0 when [s_lo, pi] holds no
    bracket or the narrowing does not converge.
    """
    x = min(max(x0, s_lo), PI)
    fx = regulated_point(sigma_ref, delta_ref, x, gain, sigma_reg,
                         delta_reg)[3] - h_target
    n = 1
    step = WARM_STEP
    a, fa, b, fb = x, fx, x, fx
    if fx > 0.0:
        while fb > 0.0:         # crossing right of x: move b out
            if b >= PI:
                return -1.0, 0.0, n
            a, fa = b, fb
            b = min(b + step, PI)
            fb = regulated_point(sigma_ref, delta_ref, b, gain, sigma_reg,
                                 delta_reg)[3] - h_target
            n += 1
            step *= 2.0
    else:
        while fa <= 0.0:        # crossing left of x: move a out
            if a <= s_lo:
                return -1.0, 0.0, n
            b, fb = a, fa
            a = max(a - step, s_lo)
            fa = regulated_point(sigma_ref, delta_ref, a, gain, sigma_reg,
                                 delta_reg)[3] - h_target
            n += 1
            step *= 2.0
    side = 0
    for _ in range(ILLINOIS_MAX):
        if b - a <= BISECT_TOL:
            return a, b, n
        x = (a * fb - b * fa) / (fb - fa)
        # strictly inside, so that rounding cannot stall it on an end
        x = min(max(x, a + 0.25 * BISECT_TOL), b - 0.25 * BISECT_TOL)
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
    the previous bound on the last local maximum of max(H, 0)
    (negative: not known yet).  The bound is tracked from s_peak, the
    crossing is bracketed from s_prev on [bound, pi], where max(H, 0) is
    non-increasing and the crossing of the positive target unique, and
    the scan then evaluates only inside that bracket, which gives the
    cold scan's s_add bit for bit.  Without a
    bracket there (the crossing moved left of the hump, or none was
    found) the cold scan runs and the fallback flag is set.  Without a
    warm state (the defaults) this is the cold scan.

    Returns (d, s, beta, omega, s_add_used, h, w_achieved, status,
    fallback, h_evaluations, s_peak); s_peak is -1.0 except after a warm
    low-power solve.
    """
    if w_ref <= 0.0:
        # zero power: fully shorted secondary
        d, s, beta, h, _ok, _boost = regulated_point(
            sigma_ref, delta_ref, PI, gain, sigma_reg, delta_reg)
        return d, s, beta, omega_max, PI, h, 0.0, OK_LOWPOWER, False, 1, \
            -1.0

    d, s, beta, h, ok, _boost = regulated_point(
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
    d, s, beta, h, _ok, _boost = regulated_point(
        sigma_ref, delta_ref, s_used, gain, sigma_reg, delta_reg)
    w_achieved = hz_split(h, z_max, ratio)
    status = OK_LOWPOWER
    if abs(w_achieved - w_ref) > W_REL_TOL * w_ref:
        status = UNREACHABLE
    return d, s, beta, omega_max, s_used, h, w_achieved, status, fallback, \
        n + m + 2, bound

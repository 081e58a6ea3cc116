"""Finite-difference oracles and a reference evaluator for the tests.

These are intentionally independent of the symbolic machinery under test:
the derivative oracles only ever call compiled field evaluation (or plain
callables) and build estimates from central differences; the tree walker
reads the node attributes and does its own arithmetic, so it shares no code
with the compiler it is checked against.
"""

import math

import numpy as np

from geoproj import expr, flow, metric, projective, sampling, zoo


def fd_derivative(fn, x, y, name, h=None):
    """Central first difference of fn(x, y) in the named variable."""
    if h is None:
        h = 1e-6 * max(1.0, abs(x if name == "x" else y))
    if name == "x":
        return (fn(x + h, y) - fn(x - h, y)) / (2.0 * h)
    return (fn(x, y + h) - fn(x, y + (-h))) / (2.0 * h)


def fd_second(fn, x, y, which, h=1e-4):
    """Central second difference: which is 'xx', 'xy' or 'yy'."""
    if which == "xx":
        return (fn(x + h, y) - 2.0 * fn(x, y) + fn(x - h, y)) / (h * h)
    if which == "yy":
        return (fn(x, y + h) - 2.0 * fn(x, y) + fn(x, y - h)) / (h * h)
    if which == "xy":
        return (fn(x + h, y + h) - fn(x + h, y - h)
                - fn(x - h, y + h) + fn(x - h, y - h)) / (4.0 * h * h)
    raise ValueError(which)


def fd_christoffel(coeff_fn, x, y, h=1e-6):
    """Christoffel symbols from finite differences of the coefficient bundle.

    coeff_fn(x, y) -> (E, F, G).  Returns gamma[k][i][j] as nested lists.
    """
    E, F, G = coeff_fn(x, y)
    dEx = fd_derivative(lambda a, b: coeff_fn(a, b)[0], x, y, "x", h)
    dEy = fd_derivative(lambda a, b: coeff_fn(a, b)[0], x, y, "y", h)
    dFx = fd_derivative(lambda a, b: coeff_fn(a, b)[1], x, y, "x", h)
    dFy = fd_derivative(lambda a, b: coeff_fn(a, b)[1], x, y, "y", h)
    dGx = fd_derivative(lambda a, b: coeff_fn(a, b)[2], x, y, "x", h)
    dGy = fd_derivative(lambda a, b: coeff_fn(a, b)[2], x, y, "y", h)
    det = E * G - F * F
    inv = ((G / det, -F / det), (-F / det, E / det))
    first = {
        (0, 0, 0): 0.5 * dEx,
        (0, 0, 1): dFx - 0.5 * dEy,
        (0, 1, 0): 0.5 * dEy,
        (0, 1, 1): 0.5 * dGx,
        (1, 1, 0): dFy - 0.5 * dGx,
        (1, 1, 1): 0.5 * dGy,
    }
    first[(1, 0, 0)] = first[(0, 1, 0)]
    first[(1, 0, 1)] = first[(0, 1, 1)]
    gamma = [[[0.0, 0.0], [0.0, 0.0]] for _ in range(2)]
    for k in range(2):
        for i in range(2):
            for j in range(2):
                gamma[k][i][j] = sum(inv[k][l] * first[(i, j, l)] for l in range(2))
    return gamma


def fd_gaussian_curvature(coeff_fn, x, y, h=1e-4):
    """Gaussian curvature from finite differences of the coefficient bundle.

    Uses the determinant formula in E, F, G and their first and second
    differences; valid for either metric signature.
    """
    def E(a, b):
        return coeff_fn(a, b)[0]

    def F(a, b):
        return coeff_fn(a, b)[1]

    def G(a, b):
        return coeff_fn(a, b)[2]

    e, f, g = coeff_fn(x, y)
    Eu = fd_derivative(E, x, y, "x", h)
    Ev = fd_derivative(E, x, y, "y", h)
    Fu = fd_derivative(F, x, y, "x", h)
    Fv = fd_derivative(F, x, y, "y", h)
    Gu = fd_derivative(G, x, y, "x", h)
    Gv = fd_derivative(G, x, y, "y", h)
    Evv = fd_second(E, x, y, "yy", h)
    Fuv = fd_second(F, x, y, "xy", h)
    Guu = fd_second(G, x, y, "xx", h)

    def det3(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    m1 = [[-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev],
          [Fv - 0.5 * Gu, e, f],
          [0.5 * Gv, f, g]]
    m2 = [[0.0, 0.5 * Ev, 0.5 * Gu],
          [0.5 * Ev, e, f],
          [0.5 * Gu, f, g]]
    det = e * g - f * f
    return (det3(m1) - det3(m2)) / (det * det)


def metric_pairing(chart, point, v, w):
    """g(v, w) by polarization of the quadratic form metric.metric_eval."""
    plus = (v[0] + w[0], v[1] + w[1])
    minus = (v[0] - w[0], v[1] - w[1])
    return 0.25 * (metric.metric_eval(chart, point, plus)
                   - metric.metric_eval(chart, point, minus))


def fd_map_jacobian(fx, fy, x, y, h=1e-6):
    """Jacobian of the map (fx, fy) from central differences."""
    return ((fd_derivative(fx, x, y, "x", h), fd_derivative(fx, x, y, "y", h)),
            (fd_derivative(fy, x, y, "x", h), fd_derivative(fy, x, y, "y", h)))


def richardson_limit(fn, base, direction, scales=(1e-2, 5e-3, 2.5e-3)):
    """Crude limit of fn along base + s * direction as s -> 0.

    Polynomial (Richardson) extrapolation through the sampled scales.
    """
    xs = list(scales)
    ys = [fn(base[0] + s * direction[0], base[1] + s * direction[1]) for s in xs]
    # Neville's scheme evaluated at s = 0.
    n = len(xs)
    table = list(ys)
    for level in range(1, n):
        for i in range(n - level):
            table[i] = ((0.0 - xs[i + level]) * table[i] - (0.0 - xs[i]) * table[i + 1]) \
                / (xs[i] - xs[i + level])
    return table[0]


def eip_reference(u, coeffs):
    """exp(-1/u) * P(1/u), 0.0 at or below u = 1e-3: the compiled cutoff's
    reference, a loop in the same operation order as the generated code."""
    if u <= 1e-3:
        return 0.0
    s = 1.0 / u
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * s + c
    return math.exp(-s) * acc


def _bump(u, coeffs):
    # exp(-1/u) * P(1/u) for u > 0 and 0 otherwise
    if u <= 0.0:
        return 0.0
    s = 1.0 / u
    return math.exp(-s) * sum(c * s ** i for i, c in enumerate(coeffs))


_UNARY = {
    "sin": math.sin, "cos": math.cos, "sinh": math.sinh, "cosh": math.cosh,
    "exp": math.exp, "log": math.log, "arcsin": math.asin, "sqrt": math.sqrt,
    "cbrt": lambda v: math.copysign(abs(v) ** (1.0 / 3.0), v),
    "abs": abs, "sign": lambda v: (v > 0.0) - (v < 0.0),
    "floor": lambda v: float(math.floor(v)),
}

_BINARY = {
    expr.Add: lambda a, b: a + b,
    expr.Sub: lambda a, b: a - b,
    expr.Mul: lambda a, b: a * b,
    expr.Div: lambda a, b: a / b,
}


def eval_tree(node, x, y):
    """Value of an expression tree at (x, y) by walking it node by node."""
    kind = type(node)
    if kind is expr.Const:
        return node.value
    if kind is expr.Var:
        return x if node.name == "x" else y
    if kind in _BINARY:
        return _BINARY[kind](eval_tree(node.a, x, y), eval_tree(node.b, x, y))
    if kind is expr.Neg:
        return -eval_tree(node.a, x, y)
    if kind is expr.Pow:
        base = eval_tree(node.a, x, y)
        if node.p == int(node.p):
            return base ** int(node.p)
        return math.pow(base, node.p)
    if kind is expr.Unary:
        return _UNARY[node.kind](eval_tree(node.a, x, y))
    if kind is expr.ExpInvPoly:
        return _bump(eval_tree(node.a, x, y), node.coeffs)
    raise TypeError("no reference evaluation for %r" % (node,))


def fiber_gradient(integral, point, v):
    """Gradient of a fiber integral in the velocity variables at (point, v)."""
    q11, q12, q22, l1, l2, _ = integral._compiled()(*point)
    return np.array([2.0 * (q11 * v[0] + q12 * v[1]) + l1,
                     2.0 * (q12 * v[0] + q22 * v[1]) + l2])


def independence_gram(i1, i2, chart, n, seed):
    """Minimum normalized Gram determinant of the two fiber gradients.

    Values near zero mean the integrals are functionally dependent on the
    sampled fibers; the normalization puts the determinant in [0, 1].
    """
    worst = math.inf
    for s in sampling.sample_states(chart, n, np.random.default_rng(seed)):
        p, v = (s.x, s.y), (s.vx, s.vy)
        a = fiber_gradient(i1, p, v)
        b = fiber_gradient(i2, p, v)
        na, nb = float(a @ a), float(b @ b)
        if na < 1e-300 or nb < 1e-300:
            worst = 0.0
            continue
        det = na * nb - float(a @ b) ** 2
        worst = min(worst, det / (na * nb))
    return worst


def jacobi_conjugate_times(chart, state, t_end):
    """Conjugate times of the geodesic through state in (0, t_end], from the
    covariant Jacobi equation in all its components, stepped by scipy's
    DOP853 on the runtime evaluators rather than the generated steps.

    The state is (x, y, v, J, W) with W the covariant derivative of J:
        dJ/dt = W - Gamma(v, J),
        dW/dt = -K (g(v, v) J - g(J, v) v) - Gamma(v, W),
    from J(0) = 0 and W(0) the Euclidean unit normal of v.  A conjugate point
    is a zero of cross(J, gamma'): each sign change between DOP853's steps is
    refined by brentq on its dense output.
    """
    from scipy.integrate import solve_ivp
    from scipy.optimize import brentq

    def rhs(t, s):
        x, y, vx, vy, jx, jy, wx, wy = s
        gam = metric.christoffel(chart, (x, y))
        E, F, G = chart.coefficients_at((x, y))
        kq = metric.gaussian_curvature(chart, (x, y))
        v, j, w = np.array([vx, vy]), np.array([jx, jy]), np.array([wx, wy])
        gvv = E * vx * vx + 2.0 * F * vx * vy + G * vy * vy
        gjv = E * jx * vx + F * (jx * vy + jy * vx) + G * jy * vy
        return np.concatenate([
            v, -np.einsum("kij,i,j->k", gam, v, v),
            w - np.einsum("kij,i,j->k", gam, v, j),
            -kq * (gvv * j - gjv * v) - np.einsum("kij,i,j->k", gam, v, w)])

    speed = math.hypot(state.vx, state.vy)
    s0 = [state.x, state.y, state.vx, state.vy, 0.0, 0.0,
          -state.vy / speed, state.vx / speed]
    sol = solve_ivp(rhs, (state.t, t_end), s0, method="DOP853",
                    rtol=1e-12, atol=1e-12, dense_output=True)
    assert sol.status == 0, sol.message

    def cross(t):
        s = sol.sol(t)
        return s[4] * s[3] - s[5] * s[2]

    times = []
    for a, b in zip(sol.t[1:], sol.t[2:]):
        ca, cb = cross(a), cross(b)
        if ca * cb < 0.0:
            times.append(brentq(cross, a, b, xtol=1e-13, rtol=1e-15))
        elif cb == 0.0:
            times.append(float(b))
    return times


def _swap_residual(h1v, h2_at, xs, k, orient):
    """Mean-square failure of h2(o(x, k)) = h1(x) + const plus the
    2k-periodicity of h1 that the swap condition forces."""
    if orient > 0:
        shifted = h2_at(xs + k)
    else:
        shifted = h2_at(-xs - k)
    diff = shifted - h1v
    c = float(np.mean(diff))
    r = float(np.mean((diff - c) ** 2))
    return r, c


def _h1_period_residual(h1_at, xs, k):
    return float(np.mean((h1_at(xs + 2.0 * k) - h1_at(xs)) ** 2))


def liouville_search_reference(h1, h2, period):
    """The separable symmetry search of projective.liouville_isometry_search
    one offset at a time, as it was before the scan went to blocks: each
    residual calls the compiled profiles once per sample point, repeated
    arguments included, at the rounded sums xs + k and xs + 2k.  Kept to
    pin the grid scan bit for bit where its grid points are those sums.
    The refinement (flow.brent_min on the cyclic bracket of one grid step
    either side of the best scanned offset) and the rule that picks the
    reported orientation are the search's own.
    """
    period = float(period)
    if period <= 0.0:
        raise ValueError("period must be positive")
    grid = 512
    xs = np.linspace(0.0, period, 256, endpoint=False)

    h1c = expr.compile_fields([h1])
    h2c = expr.compile_fields([h2])

    def h1_at(arr):
        return np.array([h1c(float(t), 0.0)[0] for t in arr])

    def h2_at(arr):
        return np.array([h2c(0.0, float(t))[0] for t in arr])

    h1v = h1_at(xs)
    h2v = h2_at(xs)
    degenerate = (float(np.var(h1v)) < 1e-18
                  and float(np.var(h2v)) < 1e-18)

    def total(k, orient):
        r, _ = _swap_residual(h1v, h2_at, xs, k, orient)
        return r + _h1_period_residual(h1_at, xs, k)

    ks = np.linspace(0.0, period, grid, endpoint=False)
    best = {}
    for kind, orient in (("swap", +1), ("anti-swap", -1)):
        vals = np.array([total(float(k), orient) for k in ks])
        k_ref = float(ks[int(np.argmin(vals))])
        if not degenerate:
            k_ref, _ = flow.brent_min(lambda k: total(k, orient),
                                      k_ref - period / grid,
                                      k_ref + period / grid, 1e-13)
        res = total(k_ref, orient)
        _, c = _swap_residual(h1v, h2_at, xs, k_ref, orient)
        k = k_ref % period
        best[kind] = (res, k if k < period else 0.0, c)

    accepted = [kk for kk in best if best[kk][0] <= 1e-8]
    found = bool(accepted)
    kind = accepted[0] if found else min(best, key=lambda kk: best[kk][0])
    res, k, c = best[kind]
    return projective.LiouvilleSymmetry(
        found=found, kind=kind if found else None,
        k=k if found else math.nan, c=c if found else math.nan,
        residual=res, degenerate=degenerate,
        candidates={kk: {"residual": v[0], "k": v[1], "c": v[2]}
                    for kk, v in best.items()})


# The two sampling loops as they stood before sample_points and
# sample_states shared one draw loop, kept verbatim: the samplers must
# draw the same points in the same order and leave the generator in the
# same state.

def sample_points_reference(chart, n, rng):
    """n positions uniform over the sample box, rejected into the domain."""
    xa, xb, ya, yb = chart.sample_box
    inside = chart.runtime().in_domain
    out = []
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 200 * max(n, 1):
            raise metric.DomainError(
                "cannot sample %d points inside chart %r" % (n, chart.name))
        x = rng.uniform(xa, xb)
        y = rng.uniform(ya, yb)
        if inside(x, y):
            out.append((float(x), float(y)))
    return out


def sample_states_reference(chart, n, rng):
    """n initial states: positions in the domain, unit Euclidean velocities."""
    inside = chart.runtime().in_domain
    xa, xb, ya, yb = chart.sample_box
    out = []
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 500 * max(n, 1):
            raise metric.DomainError(
                "cannot sample %d states on chart %r" % (n, chart.name))
        x = rng.uniform(xa, xb)
        y = rng.uniform(ya, yb)
        if not inside(x, y):
            continue
        theta = rng.uniform(0.0, 2.0 * math.pi)
        out.append(flow.GeodesicState(float(x), float(y), math.cos(theta),
                                      math.sin(theta)))
    return out


# The strip closure rule one tuple at a time, as it stood before the
# sampler scored its tuples in blocks, kept verbatim: the blocked sampler
# must draw the same tuples and find the same worst residual, bit for bit.

def rescaling_matrices_reference(a, l, z):
    """Coefficient matrix G and rank-one square Q of the strip family at f=z."""
    d = 1.0 + l * z
    if abs(d) < 1e-12:
        raise zoo.ZooError("1 + l*z vanishes at z=%g" % z)
    g = a * np.array([[l / (d * d), 1.0 / d], [1.0 / d, z / d]])
    q = (a * a / (d * d)) * np.array([[1.0, z], [z, z * z]])
    return g, q


def rescaling_identity_residual_reference(a, l, z, mu, beta):
    """Relative residual of the strip family's closure rule."""
    if a == 0.0 or beta == 0.0:
        raise zoo.ZooError("a and beta must be nonzero")
    b = a * beta ** -3.0
    m = l + mu * a
    g1, q1 = rescaling_matrices_reference(a, l, z)
    g2, _ = rescaling_matrices_reference(b, m, z)
    return _closure_residual_reference(beta * (g1 + mu * q1), g1, g2)


def _closure_residual_reference(lhs, g1, g2):
    w = expr._cbrt(np.linalg.det(g1) / np.linalg.det(g2)) ** 2
    rhs = w * g2
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-30)
    return float(np.max(np.abs(lhs - rhs)) / scale)


def sample_rescaling_identity_reference(n, seed):
    """Worst residual of the closure rule over n random admissible tuples."""
    rng = np.random.default_rng(seed)
    worst, worst_tuple = 0.0, None
    used = 0
    while used < n:
        a = rng.uniform(-3.0, 3.0)
        l = rng.uniform(-2.0, 2.0)
        z = rng.uniform(-2.0, 2.0)
        mu = rng.uniform(-2.0, 2.0)
        beta = rng.uniform(-3.0, 3.0)
        if abs(a) < 0.05 or abs(beta) < 0.05:
            continue
        m = l + mu * a
        if abs(1.0 + l * z) < 0.05 or abs(1.0 + m * z) < 0.05:
            continue
        r = rescaling_identity_residual_reference(a, l, z, mu, beta)
        used += 1
        if r > worst:
            worst, worst_tuple = r, (a, l, z, mu, beta)
    return worst, worst_tuple


# substitute and to_prefix as they stood before both became one walk over
# each node's prefix form, kept verbatim: recursive, one isinstance ladder
# each, and substitute folding a - a and a / a of one node to 0 and 1.
# Wherever that fold does not apply, the new code must write the same text.

_FOLD = {"+": expr._add, "-": expr._sub, "*": expr._mul, "/": expr._div}


def substitute_reference(field, ex, ey):
    ex = expr._wrap(ex)
    ey = expr._wrap(ey)
    memo = {}

    def walk(node):
        got = memo.get(id(node))
        if got is not None:
            return got
        if isinstance(node, expr.Var):
            out = ex if node.name == "x" else ey
        elif isinstance(node, expr.Const):
            out = node
        elif isinstance(node, expr._Binary):
            out = _FOLD[node.op](walk(node.a), walk(node.b))
        elif isinstance(node, expr.Neg):
            out = expr._neg(walk(node.a))
        elif isinstance(node, expr.Pow):
            out = expr._pow(walk(node.a), node.p)
        elif isinstance(node, expr.Unary):
            out = expr._unary_ctor(node.kind)(walk(node.a))
        elif isinstance(node, expr.ExpInvPoly):
            out = expr.ExpInvPoly(walk(node.a), node.coeffs)
        else:
            raise expr.ExpressionError("cannot substitute into %r" % (node,))
        memo[id(node)] = out
        return out

    if isinstance(field, expr.ScalarField):
        return walk(field)
    return [walk(f) for f in field]


def _written_nodes_reference(field):
    sizes = {}

    def size(node):
        n = sizes.get(id(node))
        if n is None:
            n = sizes[id(node)] = 1 + sum(map(size, node.children()))
        return n

    return size(field)


def to_prefix_reference(field):
    if _written_nodes_reference(field) > expr._PREFIX_NODES:
        raise expr.ExpressionError("expression writes out more than %d nodes"
                                   % expr._PREFIX_NODES)
    out = []

    def walk(node):
        if isinstance(node, expr.Const):
            out.append(repr(node.value))
        elif isinstance(node, expr.Var):
            out.append(node.name)
        elif isinstance(node, expr._Binary):
            out.append("(" + node.op)
            walk(node.a)
            walk(node.b)
            out.append(")")
        elif isinstance(node, expr.Neg):
            out.append("(neg")
            walk(node.a)
            out.append(")")
        elif isinstance(node, expr.Pow):
            out.append("(pow")
            walk(node.a)
            out.append(repr(node.p))
            out.append(")")
        elif isinstance(node, expr.Unary):
            out.append("(" + node.kind)
            walk(node.a)
            out.append(")")
        elif isinstance(node, expr.ExpInvPoly):
            out.append("(eip")
            walk(node.a)
            out.extend(repr(c) for c in node.coeffs)
            out.append(")")
        else:
            raise expr.ExpressionError("cannot serialize %r" % (node,))

    walk(field)
    text = " ".join(out)
    return text.replace("( ", "(").replace(" )", ")")

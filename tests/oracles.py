"""Finite-difference oracles and a reference evaluator for the tests.

These are intentionally independent of the symbolic machinery under test:
the derivative oracles only ever call compiled field evaluation (or plain
callables) and build estimates from central differences; the tree walker
reads the node attributes and does its own arithmetic, so it shares no code
with the compiler it is checked against.
"""

import math

import numpy as np

from geoproj import expr, metric, sampling


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

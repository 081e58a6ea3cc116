"""Expression trees for smooth scalar fields on the (x, y) plane.

Fields are immutable trees built from arithmetic, a handful of elementary
functions and a C-infinity cutoff primitive.  Differentiation is exact,
memoized per (node, variable) and closed over the node set.  Evaluation
compiles a tree (or a bundle of trees sharing subexpressions) to one plain
Python function; common subexpressions are emitted once, keyed by node
identity, so fields built with shared subtrees stay cheap at runtime, and
the rest is written inline.  The same emitter (emit) writes bundles into
code generated elsewhere, such as the flow module's integrator steps,
whose right-hand sides are trees over the state leaves _VX, _VY, _JN and
_JP besides x and y.

Fields round-trip through a prefix serialization, e.g.::

    (* 2.0 (/ 1.0 (+ (* x x) (* y y))))

which is also the chart-file syntax accepted by the command line tools.
Each node kind reads as one prefix form (form()), which to_prefix writes and
substitute builds again through the parser's constructors: a pullback, like
parsed text, keeps (- a a) and (/ a a) of one node as operations.  Walks
keep their own stack (_postorder); only differentiation and the parser's
own descent recurse, which is why parsing stops at _PARSE_DEPTH.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

__all__ = [
    "ScalarField", "Const", "Var", "X", "Y",
    "ExpressionError", "EvaluationError", "EVAL_ERRORS",
    "const", "sin", "cos", "sinh", "cosh", "exp", "log", "arcsin",
    "sqrt", "cbrt", "absval", "sign", "floor_of", "expinv", "smoothstep",
    "mod_field", "pow23",
    "evaluate", "substitute",
    "compile_fields", "to_prefix", "parse_prefix", "prefix_parser",
]


class ExpressionError(ValueError):
    """Raised for malformed expression constructions or parses."""


# what evaluating an expression, or folding a constant, raises off its domain
EVAL_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


class EvaluationError(ArithmeticError):
    """Raised when a field cannot be evaluated to a finite float at a point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


# At or below this argument the bump factor exp(-1/u) underflows double
# precision anyway (exp(-1000) ~ 1e-435); returning 0.0 outright avoids
# 0*inf = nan from the polynomial prefactor.
_EIP_CUTOFF = 1e-3


def _cbrt(v):
    # math.cbrt arrived in 3.11; this works for either sign of v.
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def _signum(v):
    if v > 0.0:
        return 1.0
    if v < 0.0:
        return -1.0
    return 0.0


class ScalarField:
    """Base node.  Subclasses are immutable; never mutate fields in place."""

    __slots__ = ("_diffs", "_fn")

    def __init__(self):
        self._diffs = {}
        self._fn = None

    # -- arithmetic sugar ---------------------------------------------------

    def __add__(self, other):
        return _add(self, _wrap(other))

    def __radd__(self, other):
        return _add(_wrap(other), self)

    def __sub__(self, other):
        return _sub(self, _wrap(other))

    def __rsub__(self, other):
        return _sub(_wrap(other), self)

    def __mul__(self, other):
        return _mul(self, _wrap(other))

    def __rmul__(self, other):
        return _mul(_wrap(other), self)

    def __truediv__(self, other):
        return _div(self, _wrap(other))

    def __rtruediv__(self, other):
        return _div(_wrap(other), self)

    def __neg__(self):
        return _neg(self)

    def __pow__(self, p):
        if isinstance(p, (int, float)):
            return _pow(self, float(p))
        return NotImplemented

    # -- core API -------------------------------------------------------------

    def diff(self, name):
        if name not in ("x", "y"):
            raise ExpressionError("can only differentiate in 'x' or 'y', got %r" % (name,))
        d = self._diffs.get(name)
        if d is None:
            d = self._diff(name)
            self._diffs[name] = d
        return d

    def __call__(self, x, y):
        fn = self._fn
        if fn is None:
            fn = compile_fields([self])
            self._fn = fn
        return fn(x, y)[0]

    def children(self):
        return ()

    def _diff(self, name):
        raise NotImplementedError

    def _emit(self, names):
        """Return a Python expression string over already-emitted child names."""
        raise NotImplementedError

    def form(self):
        """(head, args) of the node's prefix form (head *args): its children,
        then any constant operands as new Const nodes; an atom's are ()."""
        raise NotImplementedError

    def __repr__(self):
        try:
            return "<field %s>" % to_prefix(self)
        except ExpressionError:
            return "<field too large to write out>"


class Const(ScalarField):
    """A finite constant: compiled code names a value by its repr, and inf
    and nan have none it could read back."""

    __slots__ = ("value",)

    def __init__(self, value):
        value = float(value)
        if not math.isfinite(value):
            raise ExpressionError("constant %r is not finite" % (value,))
        super().__init__()
        self.value = value

    def _diff(self, name):
        return _ZERO

    def _emit(self, names):
        return repr(self.value)

    def form(self):
        return repr(self.value), ()


class Var(ScalarField):
    __slots__ = ("name",)

    def __init__(self, name):
        if name not in ("x", "y"):
            raise ExpressionError("variable must be 'x' or 'y', got %r" % (name,))
        super().__init__()
        self.name = name

    def _diff(self, name):
        return _ONE if name == self.name else _ZERO

    def _emit(self, names):
        return self.name

    def form(self):
        return self.name, ()


class _StateLeaf(Var):
    """A component of the state at which the flow module's generated steps
    evaluate their right-hand sides, besides x and y: vx, vy, jn or jp.
    Its derivatives are 0, and no text parses to it (_ATOMS)."""

    __slots__ = ()

    def __init__(self, name):
        ScalarField.__init__(self)
        self.name = name


class _Binary(ScalarField):
    __slots__ = ("a", "b")
    op = "?"

    def __init__(self, a, b):
        super().__init__()
        self.a = a
        self.b = b

    def children(self):
        return (self.a, self.b)

    def _emit(self, names):
        return "(%s %s %s)" % (names[id(self.a)], self.op, names[id(self.b)])

    def form(self):
        return self.op, (self.a, self.b)


class Add(_Binary):
    __slots__ = ()
    op = "+"

    def _diff(self, name):
        return _add(self.a.diff(name), self.b.diff(name))


class Sub(_Binary):
    __slots__ = ()
    op = "-"

    def _diff(self, name):
        return _sub(self.a.diff(name), self.b.diff(name))


class Mul(_Binary):
    __slots__ = ()
    op = "*"

    def _diff(self, name):
        return _add(_mul(self.a.diff(name), self.b), _mul(self.a, self.b.diff(name)))


class Div(_Binary):
    __slots__ = ()
    op = "/"

    def _diff(self, name):
        da, db = self.a.diff(name), self.b.diff(name)
        return _div(_sub(_mul(da, self.b), _mul(self.a, db)), _mul(self.b, self.b))


class Neg(ScalarField):
    __slots__ = ("a",)

    def __init__(self, a):
        super().__init__()
        self.a = a

    def children(self):
        return (self.a,)

    def _diff(self, name):
        return _neg(self.a.diff(name))

    def _emit(self, names):
        return "(-%s)" % (names[id(self.a)],)

    def form(self):
        return "neg", (self.a,)


class Pow(ScalarField):
    """base ** p with a real constant exponent p."""

    __slots__ = ("a", "p")

    def __init__(self, a, p):
        super().__init__()
        self.a = a
        self.p = float(p)

    def children(self):
        return (self.a,)

    def _diff(self, name):
        da = self.a.diff(name)
        return _mul(_mul(Const(self.p), _pow(self.a, self.p - 1.0)), da)

    def _emit(self, names):
        an = names[id(self.a)]
        if self.p == int(self.p):
            return "(%s ** %d)" % (an, int(self.p))
        return "_pow(%s, %r)" % (an, self.p)

    def form(self):
        return "pow", (self.a, Const(self.p))


class Unary(ScalarField):
    __slots__ = ("kind", "a")

    def __init__(self, kind, a):
        if kind not in _UNARY_EVAL:
            raise ExpressionError("unknown unary kind %r" % (kind,))
        super().__init__()
        self.kind = kind
        self.a = a

    def children(self):
        return (self.a,)

    def _diff(self, name):
        return _UNARY_DIFF[self.kind](self, self.a.diff(name))

    def _emit(self, names):
        return "%s(%s)" % (self.kind, names[id(self.a)])

    def form(self):
        return self.kind, (self.a,)


class ExpInvPoly(ScalarField):
    """exp(-1/u) * sum_i coeffs[i] * (1/u)**i for u > 0, smoothly 0 for u <= 0.

    The family is closed under differentiation: with P the coefficient
    polynomial in s = 1/u, the derivative is exp(-1/u) * s**2 * (P(s) - P'(s))
    times u'.  That keeps smooth-step constructions exactly differentiable.
    """

    __slots__ = ("a", "coeffs")

    def __init__(self, a, coeffs):
        coeffs = tuple(float(c) for c in coeffs)
        if not coeffs:
            raise ExpressionError("ExpInvPoly needs at least one coefficient")
        if not all(map(math.isfinite, coeffs)):
            raise ExpressionError("ExpInvPoly coefficients %r are not all "
                                  "finite" % (coeffs,))
        super().__init__()
        self.a = a
        self.coeffs = coeffs

    def children(self):
        return (self.a,)

    def _diff(self, name):
        # d/du [exp(-1/u) P(1/u)] = exp(-1/u) * (1/u)**2 * (P - P')(1/u)
        q = [0.0] * (len(self.coeffs) + 2)
        for i, c in enumerate(self.coeffs):
            q[i + 2] += c
            if i >= 1:
                q[i + 1] -= i * c
        while len(q) > 1 and q[-1] == 0.0:
            q.pop()
        inner = ExpInvPoly(self.a, q)
        return _mul(inner, self.a.diff(name))

    def _emit(self, names):
        # 0.0 at or below the cutoff, else exp(-r) * P(r) with r = 1/u and
        # P by Horner's rule from 0.0, the highest coefficient first
        u = names[id(self.a)]
        horner = "0.0"
        for c in reversed(self.coeffs):
            horner = "(%s * r + %r)" % (horner, c)
        return "(0.0 if %s <= %r else exp(-(r := 1.0 / %s)) * %s)" % (
            u, _EIP_CUTOFF, u, horner)

    def form(self):
        return "eip", (self.a, *map(Const, self.coeffs))


_UNARY_EVAL = {
    "sin": math.sin, "cos": math.cos, "sinh": math.sinh, "cosh": math.cosh,
    "exp": math.exp, "log": math.log, "arcsin": math.asin, "sqrt": math.sqrt,
    "cbrt": _cbrt, "abs": abs, "sign": _signum, "floor": lambda v: float(math.floor(v)),
}

_UNARY_DIFF = {
    "sin": lambda self, da: _mul(Unary("cos", self.a), da),
    "cos": lambda self, da: _neg(_mul(Unary("sin", self.a), da)),
    "sinh": lambda self, da: _mul(Unary("cosh", self.a), da),
    "cosh": lambda self, da: _mul(Unary("sinh", self.a), da),
    "exp": lambda self, da: _mul(self, da),
    "log": lambda self, da: _div(da, self.a),
    "arcsin": lambda self, da: _div(da, Unary("sqrt", _sub(_ONE, _mul(self.a, self.a)))),
    "sqrt": lambda self, da: _div(da, _mul(Const(2.0), self)),
    "cbrt": lambda self, da: _div(da, _mul(Const(3.0), _mul(self, self))),
    "abs": lambda self, da: _mul(Unary("sign", self.a), da),
    "sign": lambda self, da: _ZERO,
    "floor": lambda self, da: _ZERO,
}


# -- folding constructors -----------------------------------------------------

def _wrap(v):
    if isinstance(v, ScalarField):
        return v
    if isinstance(v, (int, float)):
        return Const(v)
    raise ExpressionError("cannot use %r in a field expression" % (v,))


def _is_const(node, value=None):
    return isinstance(node, Const) and (value is None or node.value == value)


def _folded(fn, *values):
    """Const(fn(*values)), where every constant folds: a math error, or a
    value Const refuses (inf, nan), raises ExpressionError."""
    try:
        v = fn(*values)
    except EVAL_ERRORS as exc:
        raise ExpressionError("constant folding fails: %s" % exc) from None
    return Const(v)


def _add(a, b):
    if _is_const(a) and _is_const(b):
        return _folded(operator.add, a.value, b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def _sub(a, b):
    if a is b:
        return _ZERO
    if _is_const(a) and _is_const(b):
        return _folded(operator.sub, a.value, b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return Sub(a, b)


def _mul(a, b):
    if _is_const(a) and _is_const(b):
        return _folded(operator.mul, a.value, b.value)
    if _is_const(a):
        if a.value == 0.0:
            return _ZERO
        if a.value == 1.0:
            return b
        if a.value == -1.0:
            return _neg(b)
    if _is_const(b):
        if b.value == 0.0:
            return _ZERO
        if b.value == 1.0:
            return a
        if b.value == -1.0:
            return _neg(a)
    return Mul(a, b)


def _div(a, b):
    if _is_const(b):
        if b.value == 0.0:
            raise ExpressionError("division by constant zero")
        if b.value == 1.0:
            return a
        if _is_const(a):
            return _folded(operator.truediv, a.value, b.value)
    if a is b:
        return _ONE
    if _is_const(a, 0.0):
        return _ZERO
    return Div(a, b)


def _neg(a):
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def _pow(a, p):
    p = float(p)
    if not math.isfinite(p):
        raise ExpressionError("exponent %r is not finite" % (p,))
    if p == 0.0:
        return _ONE
    if p == 1.0:
        return a
    if _is_const(a):
        return _folded(operator.pow if p == int(p) else math.pow, a.value, p)
    return Pow(a, p)


_ZERO = Const(0.0)
_ONE = Const(1.0)

X = Var("x")
Y = Var("y")
# the leaves of the flow module's right-hand sides besides X and Y
_VX, _VY, _JN, _JP = map(_StateLeaf, ("vx", "vy", "jn", "jp"))


const = Const


def _unary_ctor(kind):
    def ctor(a):
        a = _wrap(a)
        if _is_const(a):
            return _folded(_UNARY_EVAL[kind], a.value)
        return Unary(kind, a)
    ctor.__name__ = kind
    return ctor


sin, cos, sinh, cosh, exp, log, arcsin, sqrt, cbrt = map(
    _unary_ctor, ("sin", "cos", "sinh", "cosh", "exp", "log", "arcsin",
                  "sqrt", "cbrt"))
absval, sign, floor_of = map(_unary_ctor, ("abs", "sign", "floor"))


def expinv(a, coeffs=(1.0,)):
    """The cutoff factor exp(-1/a) * P(1/a), zero for a <= 0."""
    return ExpInvPoly(_wrap(a), coeffs)


def smoothstep(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, strictly increasing between."""
    t = _wrap(t)
    rising = expinv(t)
    falling = expinv(_sub(_ONE, t))
    return _div(rising, _add(rising, falling))


def mod_field(u, period):
    """u reduced modulo a positive constant period, valued in [0, period)."""
    period = float(period)
    if period <= 0.0:
        raise ExpressionError("period must be positive")
    u, p = _wrap(u), Const(period)
    return _sub(u, _mul(p, floor_of(_mul(_div(_ONE, p), u))))


def pow23(u):
    """u ** (2/3) through the real cube root, so defined for either sign of u."""
    c = cbrt(u)
    return _mul(c, c)


def evaluate(field, point):
    """Evaluate at point = (x, y); raise EvaluationError off the field's domain."""
    x, y = point
    try:
        v = field(x, y)
    except EVAL_ERRORS as exc:
        raise EvaluationError(str(exc), point=(x, y)) from exc
    if not math.isfinite(v):
        raise EvaluationError("field evaluated to %r" % (v,), point=(x, y))
    return v


def _postorder(fields):
    """(order, uses): every distinct node of the fields' trees once, after
    its children, in the order a left-to-right recursive walk finishes them
    (the walk keeps its own stack, so deep trees are fine), and the edges
    into each node by id, each field counting as one more."""
    uses = {}
    order = []
    for f in fields:
        if id(f) in uses:
            uses[id(f)] += 1
            continue
        uses[id(f)] = 1
        stack = [(f, iter(f.children()))]
        while stack:
            node, todo = stack[-1]
            for child in todo:
                key = id(child)
                if key in uses:
                    uses[key] += 1
                    continue
                uses[key] = 1
                kids = child.children()
                if kids:
                    stack.append((child, iter(kids)))
                    break
                order.append(child)
            else:
                stack.pop()
                order.append(node)
    return order, uses


def substitute(field, ex, ey):
    """Replace x by ex and y by ey throughout, returning a new tree.

    field may also be a sequence of fields, which comes back as a list.  They
    are substituted through one memo, so a subtree they share stays one node
    and is compiled and differentiated once.  Each node is built again by
    the parser's constructor of its form, with the same folds: a - a and
    a / a of one non-constant node stay operations.
    """
    leaves = {"x": _wrap(ex), "y": _wrap(ey)}
    fields = [field] if isinstance(field, ScalarField) else list(field)
    out = {}
    for node in _postorder(fields)[0]:
        head, args = node.form()
        # a Const operand made by form() is no key of out: it stands for itself
        out[id(node)] = (_form(head, [out.get(id(a), a) for a in args])
                         if args else leaves.get(head, node))
    if isinstance(field, ScalarField):
        return out[id(field)]
    return [out[id(f)] for f in fields]


# -- compilation --------------------------------------------------------------

# compiled code calls each unary function by its kind name
_COMPILE_NS = dict(_UNARY_EVAL, _pow=math.pow, __builtins__={})

# Deepest nesting of an inlined subexpression: a node that would nest deeper
# becomes a statement of its own, which keeps every emitted line far below
# CPython's limit of 200 nested parentheses.
_MAX_NESTING = 32


def emit(fields, targets=None):
    """Python source that evaluates the fields: (lines, outs).

    lines are unindented statements that read the point from x and y; outs
    holds one expression per field, valid after the lines.  The lines
    follow the order of fields: a field's nodes are computed before those
    only a later field reaches.  targets, if given, holds one name or None
    per field: a line assigns a named field to its name where the field is
    computed, and its out is the name.

    A subexpression used once is written inline in its parent.  These are
    statements of their own: a node shared between parents or fields (by
    object identity), so it is computed once; an ExpInvPoly node and its
    argument, which its cutoff reads twice; and a node that would otherwise
    nest deeper than _MAX_NESTING.  Each node does the same operation on
    the same operands either way, so the values do not depend on which
    nodes are inlined.
    """
    order, uses = _postorder(fields)
    # ExpInvPoly nodes and their arguments
    cutoffs = {id(m) for node in order if isinstance(node, ExpInvPoly)
               for m in (node, node.a)}
    targets = targets or [None] * len(fields)
    named = {}      # node id -> the names it is assigned to
    for f, t in zip(fields, targets):
        if t is not None:
            named.setdefault(id(f), []).append(t)

    lines = []
    text = {}       # node id -> source
    depth = {}      # node id -> nesting depth of its source
    counter = itertools.count()
    for node in order:
        key = id(node)
        src = node._emit(text)
        d = 0
        for child in node.children():
            if depth[id(child)] >= d:
                d = depth[id(child)] + 1
        if key in named:
            first, *rest = named[key]
            lines.append("%s = %s" % (first, src))
            lines += ["%s = %s" % (t, first) for t in rest]
            src, d = first, 0
        elif d and (uses[key] > 1 or key in cutoffs or d > _MAX_NESTING):
            name = "v%d" % next(counter)
            lines.append("%s = %s" % (name, src))
            src, d = name, 0
        text[key] = src
        depth[key] = d
    return lines, [text[id(f)] if t is None else t
                   for f, t in zip(fields, targets)]


def compile_function(src, name, filename, **names):
    """Execute the source of a function and return the function.

    Its globals are the unary functions compiled fields call, plus names.
    """
    ns = dict(_COMPILE_NS, **names)
    exec(compile(src, filename, "exec"), ns)
    return ns[name]


def compile_fields(fields):
    """Compile several fields into one function (x, y) -> tuple of values.

    Subexpressions shared between the trees (by object identity) are computed
    once.  Use this for metric coefficient bundles rather than compiling each
    coefficient separately.
    """
    lines, outs = emit(fields)
    src = "def _compiled(x, y):\n%s    return (%s,)\n" % (
        "".join("    %s\n" % line for line in lines), ", ".join(outs))
    return compile_function(src, "_compiled", "<geoproj.expr>")


# -- prefix serialization ------------------------------------------------------

# The most nodes to_prefix writes out.  The text writes a shared subtree
# once per use, so it grows exponentially with the nesting of shared nodes:
# a 30-deep (sq ...) nest would write x 2^30 times.  The catalogue's
# largest field writes 567 nodes.
_PREFIX_NODES = 100_000


def to_prefix(field):
    """field as prefix text; ExpressionError if the text would write out
    more than _PREFIX_NODES nodes, found once that many are written."""
    out = []        # one token per node written, a form's ")" on its last
    todo = [iter((field,))]     # the arguments left to write, per open form
    while todo:
        for node in todo[-1]:
            head, args = node.form()
            if args:
                out.append("(" + head)
                todo.append(iter(args))
                break
            out.append(head)
        else:
            todo.pop()
            if len(out) > _PREFIX_NODES:
                raise ExpressionError("expression writes out more than %d "
                                      "nodes" % _PREFIX_NODES)
            if todo:
                out[-1] += ")"
    return " ".join(out)


_ATOMS = {"x": X, "y": Y, "pi": Const(math.pi), "e": Const(math.e)}

# The deepest expression parse_prefix accepts, in nested forms and in levels
# of the tree it builds.  Only differentiation and the parser's own descent
# recurse (every other walk keeps its own stack): under CPython's default
# recursion limit a chart whose coefficient is 450 levels deep still has a
# curvature, at 600 not.  The catalogue's deepest has 18.
_PARSE_DEPTH = 200


def _constant(node, what):
    if not isinstance(node, Const):
        raise ExpressionError("%s must be a constant" % what)
    return node.value


# the forms parse_prefix reads, and substitute builds each node with: head
# -> (argument count, constructor), count None for two or more arguments as
# one list.  - and / keep a - a and a / a of one non-constant node as
# operations: the parser's memo makes a text's two copies of a subexpression
# one node, and folded, a / a would read 1 where a is 0.
_FORMS = {
    "+": (None, functools.partial(functools.reduce, _add)),
    "*": (None, functools.partial(functools.reduce, _mul)),
    "eip": (None, lambda args: ExpInvPoly(
        args[0], [_constant(c, "'eip' coefficient") for c in args[1:]])),
    "-": (2, lambda a, b: Sub(a, b) if a is b and not isinstance(a, Const)
          else _sub(a, b)),
    "/": (2, lambda a, b: Div(a, b) if a is b and not isinstance(a, Const)
          else _div(a, b)),
    "neg": (1, _neg),
    "sq": (1, lambda a: _mul(a, a)), "smoothstep": (1, smoothstep),
    "pow": (2, lambda a, p: _pow(a, _constant(p, "'pow' exponent"))),
    "mod": (2, lambda a, p: mod_field(a, _constant(p, "'mod' period"))),
}
_FORMS.update((kind, (1, _unary_ctor(kind))) for kind in _UNARY_EVAL)


def _atom(tok):
    if tok in _ATOMS:
        return _ATOMS[tok]
    try:
        value = float(tok)
    except ValueError:
        raise ExpressionError("unknown token %r" % (tok,)) from None
    return _folded(float, value)


def _form(head, args):
    """The node of the form (head *args)."""
    if head not in _FORMS:
        raise ExpressionError("unknown operator %r" % (head,))
    n, build = _FORMS[head]
    if n is None:
        if len(args) < 2:
            raise ExpressionError("'%s' needs at least two arguments" % head)
        return build(args)
    if len(args) != n:
        raise ExpressionError("'%s' takes %d argument(s), got %d"
                              % (head, n, len(args)))
    return build(*args)


def prefix_parser():
    """A parse_prefix that reads every text it is given through one memo,
    so a subexpression repeated within or across the texts is one node.

    A form returns the node it already built for the same head and the
    same argument nodes, and an atom the node of the same token (so -0.0
    and 0.0 stay apart).  Parse the texts of one bundle, such as a chart's
    coefficients, with one parser: emit computes a shared node once.
    """
    atoms, forms = {}, {}

    def parse(text):
        tokens = text.replace("(", " ( ").replace(")", " ) ").split()[::-1]
        if not tokens:
            raise ExpressionError("empty expression")

        def peek():     # the next token is the last of the reversed list
            if not tokens:
                raise ExpressionError("unexpected end of expression")
            return tokens[-1]

        def take():
            peek()
            return tokens.pop()

        def parse_one(depth):
            tok = take()
            if tok == ")":
                raise ExpressionError("unexpected ')'")
            if tok != "(":
                node = atoms.get(tok)
                if node is None:
                    node = atoms[tok] = _atom(tok)
                return node
            if depth == _PARSE_DEPTH:
                raise ExpressionError("expression nests more than %d forms"
                                      % _PARSE_DEPTH)
            head = take()
            args = []
            while peek() != ")":
                args.append(parse_one(depth + 1))
            take()
            key = (head, *args)     # nodes compare by identity
            node = forms.get(key)
            if node is None:
                node = forms[key] = _form(head, args)
            return node

        result = parse_one(0)
        if tokens:
            raise ExpressionError("trailing tokens after expression: %r"
                                  % (tokens[::-1],))
        levels = {}     # node id -> levels of the tree below the node
        for node in _postorder([result])[0]:
            level = 0
            for child in node.children():
                if levels[id(child)] >= level:
                    level = levels[id(child)] + 1
            levels[id(node)] = level
        if levels[id(result)] > _PARSE_DEPTH:
            raise ExpressionError("expression tree is more than %d levels "
                                  "deep" % _PARSE_DEPTH)
        return result

    return parse


def parse_prefix(text):
    """Parse the prefix mini-language into a field.

    Core forms: numbers, x, y, pi, e, (+ a b), (- a b), (* a b ...),
    (/ a b), (neg a), (pow a p), the unary functions, and (eip a c0 c1 ...).
    Convenience macros: (smoothstep a), (mod a period), (sq a).  Text
    nested, or a tree, deeper than _PARSE_DEPTH raises ExpressionError.

    to_prefix writes a shared subtree once per use; parsing the text back
    makes the repeats one node again (see prefix_parser), so the field
    computes each of them once, as the tree that was written did.
    """
    return prefix_parser()(text)

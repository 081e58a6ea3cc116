"""Seeded sampling of geodesic initial states from a chart's sample box."""

from __future__ import annotations

import math

from .flow import GeodesicState
from .metric import DomainError

__all__ = ["resolve_seed", "sample_states", "sample_points"]


def resolve_seed(seed):
    """seed as an int, or 12345 when it is None; a negative seed raises
    ValueError."""
    seed = 12345 if seed is None else int(seed)
    if seed < 0:
        raise ValueError("seed must be non-negative, got %d" % seed)
    return seed


def _positions(chart, n, rng, budget, failure):
    """Yield n positions uniform over the sample box, rejected into the
    domain; x and y are drawn in that order, and a caller's own draws
    between two yields interleave with them.  Past budget * n draws it
    raises DomainError(failure % (n, chart.name))."""
    xa, xb, ya, yb = chart.sample_box
    inside = chart.runtime().in_domain
    found = attempts = 0
    while found < n:
        attempts += 1
        if attempts > budget * max(n, 1):
            raise DomainError(failure % (n, chart.name))
        x = rng.uniform(xa, xb)
        y = rng.uniform(ya, yb)
        if inside(x, y):
            found += 1
            yield float(x), float(y)


def sample_points(chart, n, rng):
    """n positions uniform over the sample box, rejected into the domain."""
    return list(_positions(chart, n, rng, 200,
                           "cannot sample %d points inside chart %r"))


def sample_states(chart, n, rng):
    """n initial states: positions in the domain, unit Euclidean velocities."""
    out = []
    for x, y in _positions(chart, n, rng, 500,
                           "cannot sample %d states on chart %r"):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        out.append(GeodesicState(x, y, math.cos(theta), math.sin(theta)))
    return out

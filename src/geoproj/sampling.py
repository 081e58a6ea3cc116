"""Seeded sampling of geodesic initial states from a chart's sample box."""

from __future__ import annotations

import math
import os

from .flow import GeodesicState
from .metric import DomainError

__all__ = ["default_seed", "sample_states", "sample_points"]


def default_seed():
    """Seed used when callers pass none: the GEOPROJ_SEED variable or 12345."""
    return int(os.environ.get("GEOPROJ_SEED", "12345"))


def sample_points(chart, n, rng):
    """n positions uniform over the sample box, rejected into the domain."""
    xa, xb, ya, yb = chart.sample_box
    inside = chart.runtime().in_domain
    out = []
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 200 * max(n, 1):
            raise DomainError(
                "cannot sample %d points inside chart %r" % (n, chart.name))
        x = rng.uniform(xa, xb)
        y = rng.uniform(ya, yb)
        if inside(x, y):
            out.append((float(x), float(y)))
    return out


def sample_states(chart, n, rng):
    """n initial states: positions in the domain, unit Euclidean velocities."""
    inside = chart.runtime().in_domain
    xa, xb, ya, yb = chart.sample_box
    out = []
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 500 * max(n, 1):
            raise DomainError(
                "cannot sample %d states on chart %r" % (n, chart.name))
        x = rng.uniform(xa, xb)
        y = rng.uniform(ya, yb)
        if not inside(x, y):
            continue
        theta = rng.uniform(0.0, 2.0 * math.pi)
        out.append(GeodesicState(float(x), float(y), math.cos(theta),
                                 math.sin(theta)))
    return out

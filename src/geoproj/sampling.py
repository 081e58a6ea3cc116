"""Seeded sampling of geodesic initial states from a chart's sample box."""

from __future__ import annotations

import math
import os

from .flow import GeodesicState
from .metric import CausalClass, DomainError, classify

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


def sample_states(chart, n, rng, causal=None, min_speed_sq=None):
    """n initial states: positions in the domain, unit Euclidean velocities.

    causal restricts the causal class of the velocity (spacelike or
    timelike; exactly lightlike directions have measure zero and cannot be
    sampled by rejection).  min_speed_sq additionally requires
    |g(v, v)| >= min_speed_sq, bounding the states away from the light cone.
    """
    if causal == CausalClass.LIGHTLIKE:
        raise ValueError("cannot sample exactly lightlike directions; "
                         "construct them explicitly instead")
    inside = chart.runtime().in_domain
    xa, xb, ya, yb = chart.sample_box
    coeffs = chart.runtime().coeffs
    out = []
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 500 * max(n, 1):
            raise DomainError(
                "cannot sample %d states of class %r on chart %r"
                % (n, causal, chart.name))
        x = rng.uniform(xa, xb)
        y = rng.uniform(ya, yb)
        if not inside(x, y):
            continue
        theta = rng.uniform(0.0, 2.0 * math.pi)
        v = (math.cos(theta), math.sin(theta))
        if causal is not None and classify(chart, (x, y), v) != causal:
            continue
        if min_speed_sq is not None:
            E, F, G = coeffs(x, y)
            w = E * v[0] ** 2 + 2 * F * v[0] * v[1] + G * v[1] ** 2
            if abs(w) < min_speed_sq:
                continue
        out.append(GeodesicState(float(x), float(y), v[0], v[1]))
    return out

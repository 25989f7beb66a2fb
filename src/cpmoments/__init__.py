"""Compound Poisson moments: exact weighted Bell polynomials, saddle-point
asymptotics, tilted auxiliary distributions, and random-graph degree
concentration experiments."""

__version__ = "0.1.0"

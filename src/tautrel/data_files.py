"""Bundled gwi data."""

from importlib import resources

from .sums import FormalSum


def _load(name: str) -> FormalSum:
    from .gwi import read_file

    _, sums = read_file(resources.files("tautrel.data").joinpath(name))
    return sum(sums, FormalSum())


def genus1_four_point_equation() -> FormalSum:
    """The unique new codimension-2 equation on the four-point
    genus-1 ambient (Getzler's equation), in the scale the discovery
    pipeline produces: primitive integer coefficients, first term
    positive."""
    return _load("getzler_g1n4k2.gwi")

"""Site-discretized trap array model and the diagonal-quadrant plane split.

Sites form an n x n grid spaced beyond interaction range, so all distance
physics reduces to same-site predicates: a gate needs its two qubits on one
site, and a third qubit on that site would disrupt it.  Every grid line
carries one movable column/row deflector, and every site holds one static
trap, so the array owns n movable columns, n movable rows and n*n static
sites.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RegionTooSmallError


@dataclass(frozen=True)
class ArraySpec:
    """An n x n site grid with one movable row/column per grid line."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"array side must be >= 2, got {self.n}")

    @property
    def num_sites(self) -> int:
        return self.n * self.n


@dataclass(frozen=True)
class Region:
    """A rectangular block of sites.  It owns the movable line of each of
    its grid lines, so its column indices are `x_range` and its row indices
    `y_range`."""

    x_range: range
    y_range: range

    @property
    def num_sites(self) -> int:
        return len(self.x_range) * len(self.y_range)


def split_plane(a: ArraySpec) -> tuple[Region, Region]:
    """Split the array into two diagonal quadrants with disjoint resources.

    Region 1 is the upper-left ceil(n/2) block, region 2 the lower-right
    remainder, and the movable columns/rows split at the same boundary.  The
    two regions share no site, no column index and no row index, which is
    what lets them run independently.
    """
    n = a.n
    if n < 4:
        raise RegionTooSmallError(
            f"need n >= 4 to split an array into two regions, got n={n}")
    m = (n + 1) // 2
    r1 = Region(range(0, m), range(0, m))
    r2 = Region(range(m, n), range(m, n))
    return r1, r2


def full_region(a: ArraySpec) -> Region:
    """The whole array viewed as a single region."""
    whole = range(0, a.n)
    return Region(whole, whole)


def site_in_region(r: Region, x: int, y: int) -> bool:
    return x in r.x_range and y in r.y_range

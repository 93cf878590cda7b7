import pytest

from atomc.arrays import ArraySpec, full_region, site_in_region, split_plane
from atomc.errors import RegionTooSmallError


def test_split_n6():
    r1, r2 = split_plane(ArraySpec(6))
    assert list(r1.x_range) == [0, 1, 2]
    assert list(r1.y_range) == [0, 1, 2]
    assert list(r2.x_range) == [3, 4, 5]
    assert list(r2.y_range) == [3, 4, 5]


def test_split_n7_ceil():
    r1, r2 = split_plane(ArraySpec(7))
    assert r1.x_range == range(0, 4) and r1.y_range == range(0, 4)
    assert r2.x_range == range(4, 7) and r2.y_range == range(4, 7)


def test_split_n16():
    r1, r2 = split_plane(ArraySpec(16))
    assert r1.x_range == range(0, 8)
    assert r2.x_range == range(8, 16)


def test_split_too_small():
    with pytest.raises(RegionTooSmallError):
        split_plane(ArraySpec(3))


@pytest.mark.parametrize("n", range(4, 17))
def test_regions_disjoint_in_everything(n):
    r1, r2 = split_plane(ArraySpec(n))
    assert not set(r1.x_range) & set(r2.x_range)
    assert not set(r1.y_range) & set(r2.y_range)
    # together the site (and so the line index) ranges cover the array
    assert set(r1.x_range) | set(r2.x_range) == set(range(n))
    assert set(r1.y_range) | set(r2.y_range) == set(range(n))
    sites = {(x, y) for x in r1.x_range for y in r1.y_range}
    sites |= {(x, y) for x in r2.x_range for y in r2.y_range}
    assert len(sites) == r1.num_sites + r2.num_sites


def test_site_in_region():
    r1, r2 = split_plane(ArraySpec(6))
    assert site_in_region(r1, 0, 0)
    assert not site_in_region(r1, 3, 0)
    assert site_in_region(r2, 5, 5)
    assert not site_in_region(r2, 2, 5)


def test_full_region():
    a = ArraySpec(5)
    r = full_region(a)
    assert r.num_sites == 25
    assert all(site_in_region(r, x, y) for x in range(5) for y in range(5))


def test_arrayspec_validation():
    with pytest.raises(ValueError):
        ArraySpec(1)
    assert ArraySpec(4).num_sites == 16

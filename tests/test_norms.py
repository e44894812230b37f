"""Steiner lengths and tree-weighted kernel norms on small tori."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockspin.norms import Kernel, kernel_norm, steiner_tree_length, torus_distance

extents = st.tuples(*(st.integers(1, 4) for _ in range(4)))


def _sites(ext, count):
    return st.lists(st.tuples(*(st.integers(0, e - 1) for e in ext)), min_size=count, max_size=count)


@given(extents, st.data())
def test_steiner_between_widest_pair_and_terminal_path(ext, data):
    # every tree holds a path between each pair of terminals, and the path
    # through the terminals in the drawn order is a tree spanning them
    pts = data.draw(_sites(ext, data.draw(st.integers(2, 5))))
    length = steiner_tree_length(pts, ext)
    assert max(torus_distance(a, b, ext) for a, b in itertools.combinations(pts, 2)) <= length
    assert length <= sum(torus_distance(a, b, ext) for a, b in itertools.pairwise(pts))


@given(extents, st.data())
def test_two_terminals_give_torus_distance(ext, data):
    a, b = data.draw(_sites(ext, 2))
    assert steiner_tree_length([a, b], ext) == torus_distance(a, b, ext)


@given(extents, st.data())
def test_three_terminals_meet_at_a_median_site(ext, data):
    # a tree on three terminals is three shortest paths from one branch site
    pts = data.draw(_sites(ext, 3))
    median = min(
        sum(torus_distance(p, v, ext) for p in pts) for v in itertools.product(*(range(e) for e in ext))
    )
    assert steiner_tree_length(pts, ext) == median


@pytest.mark.parametrize("m", [0.0, 0.7])
@given(extents, st.data())
def test_kernel_norm_translation_invariant(m, ext, data):
    keys = data.draw(st.lists(_sites(ext, 3).map(tuple), min_size=1, max_size=4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    entries = {key: complex(rng.standard_normal(), rng.standard_normal()) for key in keys}
    shift = data.draw(st.tuples(*(st.integers(0, e - 1) for e in ext)))
    moved = {tuple(tuple(c + s for c, s in zip(site, shift)) for site in key): val for key, val in entries.items()}
    norm = kernel_norm(Kernel(3, ext, entries), m)
    assert kernel_norm(Kernel(3, ext, moved), m) == pytest.approx(norm, rel=1e-12)

import numpy as np

from epidetect import RngStream


def test_same_address_same_draws():
    a = RngStream(123).derive(4, 0, 17)
    b = RngStream(123).derive(4, 0, 17)
    assert np.array_equal(a.generator.random(100), b.generator.random(100))
    assert a.generator.normal(size=5).tolist() == b.generator.normal(size=5).tolist()


def test_derivation_order_is_irrelevant():
    root = RngStream(99)
    early = root.derive(1, 0, 5)
    draws_early = early.generator.random(10)
    # consume from unrelated streams, then derive the same address again
    root.derive(1, 0, 6).generator.random(1000)
    root.derive(2, 1, 5).generator.random(7)
    again = RngStream(99).derive(1, 0, 5)
    assert np.array_equal(draws_early, again.generator.random(10))


def test_distinct_addresses_decorrelate():
    a = RngStream(7).derive(1, 0, 0).generator.random(2000)
    b = RngStream(7).derive(1, 0, 1).generator.random(2000)
    assert not np.array_equal(a, b)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_different_seeds_differ():
    assert not np.array_equal(RngStream(1).generator.random(50), RngStream(2).generator.random(50))


def test_nested_derive_matches_flat():
    nested = RngStream(5).derive(3).derive(1, 2)
    flat = RngStream(5).derive(3, 1, 2)
    assert nested.path == flat.path == (3, 1, 2)
    assert np.array_equal(nested.generator.random(20), flat.generator.random(20))

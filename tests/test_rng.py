import numpy as np
import pytest

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


def reference(master, path):
    """A generator keyed by numpy's own `SeedSequence`: the reference for every key."""
    seq = np.random.SeedSequence(master, spawn_key=path)
    return np.random.Generator(np.random.Philox(seq))


def assert_matches_reference(stream, path):
    """`stream` is at `path` and holds the key, counter and draws of `reference`."""
    want = reference(stream.master_seed, path)
    assert stream.path == path
    got_state, want_state = (g.bit_generator.state["state"] for g in (stream.generator, want))
    assert np.array_equal(got_state["key"], want_state["key"]), path
    assert np.array_equal(got_state["counter"], want_state["counter"]), path
    assert np.array_equal(stream.generator.random(8), want.random(8)), path
    assert stream.generator.integers(0, 2**63, 4).tolist() == want.integers(0, 2**63, 4).tolist()


def assert_span_matches_reference(stream, prefix, lo, hi):
    span = stream.derive_span(prefix, lo, hi)
    assert len(span) == hi - lo
    for j, got in zip(range(lo, hi), span):
        path = stream.path + tuple(prefix) + (j,)
        assert got.master_seed == stream.master_seed
        assert_matches_reference(got, path)
        assert_matches_reference(stream.derive(*prefix, j), path)


MASTERS = [0, 1, 7, 2**32 - 1, 2**32, 2**130 + 3]


@pytest.mark.parametrize("master", MASTERS)
def test_root_stream_is_seed_sequence(master):
    # no spawn key: numpy mixes zeros for the words a short seed lacks
    assert_matches_reference(RngStream(master), ())


@pytest.mark.parametrize("master", MASTERS)
@pytest.mark.parametrize("path", [(3,), (8, 2, 2**33), (4, 1, 2**64 + 5, 0, 9)])
def test_derive_is_seed_sequence(master, path):
    assert_matches_reference(RngStream(master).derive(*path), path)
    assert_matches_reference(RngStream(master, path), path)


@pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**130 + 3])
@pytest.mark.parametrize("prefix", [(), (3,), (8, 2, 2**33)])
def test_span_gives_the_streams_of_derive(master, prefix):
    root = RngStream(master)
    assert_span_matches_reference(root, prefix, 0, 40)
    assert_span_matches_reference(root, prefix, 2**32 - 3, 2**32 + 3)  # one word, then two
    assert_span_matches_reference(root, prefix, 2**64 - 2, 2**64 + 2)  # two words, then three
    assert_span_matches_reference(root.derive(4, 1), prefix, 17, 41)


def test_empty_span():
    assert RngStream(9).derive_span((1, 2), 5, 5) == []


@pytest.mark.parametrize("prefix, lo", [((-1,), 0), ((2, -3), 4), ((1,), -1)])
def test_negative_entries_raise_like_derive(prefix, lo):
    root = RngStream(9)
    with pytest.raises(ValueError):
        root.derive(*prefix, lo)
    with pytest.raises(ValueError):
        root.derive_span(prefix, lo, lo + 2)


@pytest.mark.parametrize("master, path", [(-1, ()), (-1, (2,)), (5, (-1,)), (5, (2, -3))])
def test_negative_address_raises_like_seed_sequence(master, path):
    with pytest.raises(ValueError):
        reference(master, path)
    with pytest.raises(ValueError):
        RngStream(master, path)

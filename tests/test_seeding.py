import numpy as np
import pytest

from multitask_irl import subseed, substream


def test_same_key_reproduces_stream():
    a = substream(7, "demo", 3).random(8)
    b = substream(7, "demo", 3).random(8)
    assert np.array_equal(a, b)


def test_distinct_keys_diverge():
    a = substream(7, "demo", 3).random(8)
    b = substream(7, "demo", 4).random(8)
    c = substream(8, "demo", 3).random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_string_and_int_keys_are_distinct_namespaces():
    a = substream(0, "task").random(4)
    b = substream(0, 0).random(4)
    assert not np.array_equal(a, b)


def test_subseed_nests_by_appending_to_the_key_path():
    flat = subseed(11, "a", 2, "b")
    nested = subseed(subseed(11, "a", 2), "b")
    assert flat.entropy == nested.entropy
    assert tuple(flat.spawn_key) == tuple(nested.spawn_key)
    assert np.array_equal(
        np.random.default_rng(flat).random(6), np.random.default_rng(nested).random(6)
    )


def test_nested_derivations_do_not_collide():
    # A sampler keyed off a bench substream must not repeat another rep's draws.
    a = substream(subseed(3, "rep", 0), "mc").random(4)
    b = substream(subseed(3, "rep", 1), "mc").random(4)
    assert not np.array_equal(a, b)


def test_invalid_seeds_and_keys():
    with pytest.raises(ValueError):
        subseed(-1, "x")
    with pytest.raises(ValueError):
        subseed(0, -2)
    with pytest.raises(TypeError):
        subseed(0, 1.5)

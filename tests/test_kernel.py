from iolw5gsim.kernel import rng_stream


def test_rng_stream_reproducible_and_independent():
    a1 = rng_stream(7, 0).random(1000)
    a2 = rng_stream(7, 0).random(1000)
    b = rng_stream(7, 1).random(1000)
    assert (a1 == a2).all()
    assert (a1 != b).any()

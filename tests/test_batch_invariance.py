"""Batch invariance: a request's predictions do not depend on its batchmates.

Activation scales are per image, so however the router coalesces requests
into dispatch groups and a node slices a group into serve batches
(``max_batch_size``), every request's predictions equal the model's
predictions for that request's images served alone: on EXACT and ANALYTIC
nodes, with coalescing on and off, and through a
:class:`~repro.fleet.FleetCluster` worker.
"""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.cluster import ClusterNode, ClusterRouter, ExecutionMode, ForwardMemo
from repro.dnn import make_pattern_image_dataset, train_pattern_cnn
from repro.fleet import FleetCluster

#: Image magnitudes a request may carry: a batchmate a thousand times
#: brighter (or dimmer) than the others is what a shared scale got wrong.
MAGNITUDES = (1.0, 1e-3, 1e3)


@pytest.fixture(scope="module")
def demo():
    """The demo CNN ``python -m repro.gateway`` serves, and its test images."""
    dataset = make_pattern_image_dataset(samples=150, size=8, seed=13)
    cnn, _ = train_pattern_cnn(dataset, conv_channels=(1,), hidden_sizes=(4,), epochs=6, seed=13)
    return dataset.test_images, cnn


def _images(pool, indices, magnitude):
    return pool[[index % len(pool) for index in indices]] * magnitude


requests_strategy = st.lists(
    st.tuples(
        st.lists(st.integers(0, 10**6), min_size=1, max_size=16),
        st.sampled_from(MAGNITUDES),
    ),
    min_size=1,
    max_size=8,
)


@given(
    requests=requests_strategy,
    max_batch_size=st.integers(1, 256),
    coalesce=st.booleans(),
    mode=st.sampled_from(list(ExecutionMode)),
)
@example(
    # Sixteen test images next to one test image x1000: under one scale per
    # batch the bright batchmate zeroed most of the others' codes.
    requests=[(list(range(16)), 1.0), ([16], 1e3)],
    max_batch_size=256,
    coalesce=True,
    mode=ExecutionMode.EXACT,
)
@example(
    requests=[([0, 1, 2], 1.0), ([3], 1e3), ([0, 1, 2], 1.0)],
    max_batch_size=256,
    coalesce=True,
    mode=ExecutionMode.ANALYTIC,
)
def test_every_request_is_predicted_as_if_served_alone(
    demo, requests, max_batch_size, coalesce, mode
):
    pool, cnn = demo
    node = ClusterNode(
        "n0",
        num_macros=8,
        max_batch_size=max_batch_size,
        execution_mode=mode,
        forward_memo=ForwardMemo(),
        # Every memo hit re-runs the request alone and compares.
        spot_check_every=1 if mode is ExecutionMode.ANALYTIC else 0,
    )
    router = ClusterRouter([node], coalesce=coalesce)
    router.register_model("cnn", cnn)
    batches = [_images(pool, indices, magnitude) for indices, magnitude in requests]
    ids = [
        # Equal requests share a digest, so the memo serves one entry to
        # requests with different batchmates.
        router.submit("cnn", images, arrival_s=0.0, input_digest=repr(request))
        for images, request in zip(batches, requests)
    ]
    router.drain()
    for rid, images in zip(ids, batches):
        assert np.array_equal(router.result(rid).predictions, cnn.predict(images))


@pytest.mark.timeout(300)
def test_a_fleet_worker_predicts_each_request_as_if_served_alone(demo):
    pool, cnn = demo
    requests = [
        (list(range(5)), 1.0),
        ([5], 1e3),
        (list(range(6, 13)), 1.0),
        ([13, 14, 15], 1e-3),
        (list(range(16, 32)), 1.0),
        ([32], 1e3),
    ]
    batches = [_images(pool, indices, magnitude) for indices, magnitude in requests]
    node = ClusterNode("n0", num_macros=8, max_batch_size=8)
    with FleetCluster([node], workers=1, coalesce=True) as fleet:
        fleet.register_model("cnn", cnn)
        ids = [fleet.submit("cnn", images, arrival_s=0.0) for images in batches]
        results = {result.request_id: result for result in fleet.drain()}
        assert max(result.coalesced for result in results.values()) > 1
        for rid, images in zip(ids, batches):
            assert np.array_equal(results[rid].predictions, cnn.predict(images))


@pytest.mark.parametrize("mode", list(ExecutionMode))
def test_an_image_whose_scale_underflows_is_served_next_to_a_normal_request(demo, mode):
    # One pixel at 1e-322, the rest 0: max |x| / 127 underflows to 0.0, and
    # dividing by it would turn the zero pixels into NaN codes that fail
    # every request of the dispatch group.  It quantises as a zero image.
    pool, cnn = demo
    tiny = np.zeros_like(pool[:1])
    tiny.flat[0] = 1e-322
    node = ClusterNode("n0", num_macros=8, execution_mode=mode, forward_memo=ForwardMemo())
    router = ClusterRouter([node], coalesce=True)
    router.register_model("cnn", cnn)
    batches = [pool[:4], tiny]
    ids = [router.submit("cnn", images, arrival_s=0.0) for images in batches]
    router.drain()
    for rid, images in zip(ids, batches):
        result = router.result(rid)
        assert result.trace.coalesced == 2
        assert np.array_equal(result.predictions, cnn.predict(images))
    assert np.array_equal(router.result(ids[1]).predictions, cnn.predict(np.zeros_like(tiny)))

"""Differential suite: the quantised conv forward against its frozen oracle.

:meth:`repro.dnn.conv.QuantizedConv2DLayer.forward` quantises each pixel
once, under its image's scale (set by the pixels that image's windows
cover), and lowers the integer codes; ``oracle.conv`` keeps the original
forward, which lowers the images first and quantises the ``k^2``-fold
im2col matrix under one scale for the whole batch.  A batch of one has one
scale either way, so every image of a batch must come out bit for bit as
the oracle computes it for that image alone.  Charges do not depend on the
data, so on a :class:`TiledMatmulEngine` the macro ledgers, engine counters,
last dispatch and cache state of a batch must match the oracle's run on the
same batch.

The sweep covers strides above the kernel size (windows with gaps between
them, whose pixels must not set the scale) and all-zero, constant, negative
and outlier inputs, and batches whose images' own scales differ by orders
of magnitude.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracle.conv import quantized_conv_forward
from repro.core.chip import IMCChip
from repro.core.config import MacroConfig
from repro.core.matmul import TiledMatmulEngine
from repro.dnn.conv import Conv2DLayer, QuantizedConv2DLayer

INPUT_KINDS = ("normal", "zero", "constant", "negative", "outlier", "mixed")


def _engine():
    return TiledMatmulEngine(IMCChip(4, MacroConfig(precision_bits=8)))


def _macro_records(engine):
    return [
        {
            opcode: (rec.invocations, rec.words, rec.cycles, rec.energy_j)
            for opcode, rec in macro.stats.records.items()
        }
        for macro in engine.chip.macros
    ]


def _images(kind, shape, seed):
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros(shape)
    if kind == "constant":
        return np.full(shape, rng.normal(scale=3.0))
    values = rng.normal(scale=2.0, size=shape)
    if kind == "negative":
        return -np.abs(values)
    if kind == "outlier":
        # One large pixel anywhere: in a window, in a stride gap, or past
        # the last window — only the first may set the scale.
        values.reshape(-1)[rng.integers(values.size)] = 40.0 * rng.choice((-1.0, 1.0))
    if kind == "mixed":
        # Each image at its own magnitude, one of them all-zero: batchmates'
        # scales differ by up to six orders of magnitude.
        values *= 10.0 ** rng.uniform(-3.0, 3.0, size=(shape[0], 1, 1, 1))
        values[rng.integers(shape[0])] = 0.0
    return values


@st.composite
def conv_cases(draw):
    kernel = draw(st.integers(1, 4))
    return {
        "batch": draw(st.integers(1, 300)),
        "channels": draw(st.integers(1, 3)),
        "side": draw(st.integers(max(3, kernel), 12)),
        "kernel": kernel,
        "stride": draw(st.integers(1, 5)),
        "out_channels": draw(st.integers(1, 3)),
        "weight_bits": draw(st.integers(2, 8)),
        "activation_bits": draw(st.integers(2, 8)),
        "relu": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
    }


def _build(case, kind):
    layer = Conv2DLayer.random(
        case["channels"],
        case["out_channels"],
        kernel_size=case["kernel"],
        stride=case["stride"],
        relu=case["relu"],
        seed=case["seed"],
    )
    quantized = QuantizedConv2DLayer(
        layer, weight_bits=case["weight_bits"], activation_bits=case["activation_bits"]
    )
    shape = (case["batch"], case["channels"], case["side"], case["side"])
    return quantized, _images(kind, shape, case["seed"])


def _bits(array):
    return np.ascontiguousarray(array).tobytes()


def _assert_each_image_matches_the_oracle_alone(layer, images, outputs):
    assert outputs.shape[0] == images.shape[0]
    for index in range(images.shape[0]):
        alone = quantized_conv_forward(layer, images[index : index + 1])
        assert _bits(outputs[index]) == _bits(alone[0]), f"image {index}"


class TestQuantiseBeforeLoweringMatchesOracle:
    @pytest.mark.parametrize("kind", INPUT_KINDS)
    @given(case=conv_cases())
    def test_golden_backend_bit_identical(self, kind, case):
        layer, images = _build(case, kind)
        _assert_each_image_matches_the_oracle_alone(layer, images, layer.forward(images))

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    @given(case=conv_cases())
    def test_engine_outputs_ledgers_and_counters_identical(self, kind, case):
        layer, images = _build(case, kind)
        new_engine, oracle_engine = _engine(), _engine()
        for _ in range(2):  # cold (programming charged) then warm
            got = layer.forward(images, matmul=new_engine)
            quantized_conv_forward(layer, images, matmul=oracle_engine)
            _assert_each_image_matches_the_oracle_alone(layer, images, got)
        assert _macro_records(new_engine) == _macro_records(oracle_engine)
        assert dataclasses.asdict(new_engine.counters) == dataclasses.asdict(
            oracle_engine.counters
        )
        assert new_engine.last_dispatch == oracle_engine.last_dispatch
        assert new_engine.cache.summary() == oracle_engine.cache.summary()

    @pytest.mark.parametrize("stride", [3, 4])
    def test_gap_and_edge_pixels_never_set_the_scale(self, stride):
        layer = QuantizedConv2DLayer(
            Conv2DLayer.random(1, 2, kernel_size=2, stride=stride, seed=5),
            weight_bits=8,
            activation_bits=4,
        )
        images = np.random.default_rng(5).normal(size=(3, 1, 9, 9))
        spiked = images.copy()
        spiked[:, :, 2, :] = 1e6  # row 2 lies in the gap after the first windows
        spiked[:, :, :, 8] = -1e6  # column 8 lies past the last window
        assert _bits(layer.forward(spiked)) == _bits(layer.forward(images))
        _assert_each_image_matches_the_oracle_alone(layer, spiked, layer.forward(spiked))

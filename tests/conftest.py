import numpy as np
import pytest

from timecaps import model
from timecaps.model import ModelConfig
from timecaps.tensor import _accumulate, make_op


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_cfg():
    return ModelConfig.tiny()


@pytest.fixture
def toy_cfg():
    return ModelConfig.toy()


@pytest.fixture
def inf_front_conv_gradient(monkeypatch):
    """Give the front convolution a backward that emits inf for every batch
    holding a sample above 1e50; its forward, and so the loss, is unchanged.
    The negative controls for a non-finite gradient under a finite loss use
    it as their trigger."""
    real = model.front_conv

    def front_conv(x, params, cfg):
        out = real(x, params, cfg)
        if np.abs(x.data).max() <= 1e50:
            return out

        def backward(gout):
            _accumulate(out, np.full(out.shape, np.inf), owned=True)

        return make_op(out.data, (out,), backward)

    monkeypatch.setattr(model, "front_conv", front_conv)

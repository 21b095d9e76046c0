"""Unit tests for the request-policy layer (repro.core.policy):
the owner-prediction table (aliasing, eviction, confidence
saturation, invalidation) and per-access request-type selection.
"""

import pytest

from repro.coherence.messages import MsgKind
from repro.core.policy import (AdaptivePolicy, CriticalityPolicy,
                               OwnerPredictor, make_policy)

from tests.systems import MiniSpandex

LINE = 0x1_0000


class FakeTU:
    """Just enough TU surface for RequestPolicy.select."""

    def __init__(self, device_class="cpu"):
        self.device_class = device_class


# -- owner predictor -------------------------------------------------------

def test_predictor_requires_confidence_threshold():
    pred = OwnerPredictor(threshold=2)
    pred.train(LINE, "c0")
    assert pred.predict(LINE) is None          # confidence 1 < 2
    pred.train(LINE, "c0")
    assert pred.predict(LINE) == "c0"          # confidence 2


def test_predictor_confidence_saturates():
    pred = OwnerPredictor(threshold=2, max_confidence=3)
    for _ in range(10):
        pred.train(LINE, "c0")
    assert pred.lookup(LINE) == ("c0", 3)
    # saturation means exactly max_confidence mispredicts forget it
    pred.mispredict(LINE)
    pred.mispredict(LINE)
    assert pred.predict(LINE) is None          # 1 < threshold
    pred.mispredict(LINE)
    assert pred.lookup(LINE) is None           # entry dropped


def test_predictor_owner_change_restarts_confidence():
    pred = OwnerPredictor(threshold=2)
    pred.train(LINE, "c0")
    pred.train(LINE, "c0")
    pred.train(LINE, "g1")                     # new owner observed
    assert pred.predict(LINE) is None
    assert pred.lookup(LINE) == ("g1", 1)


def test_predictor_aliasing_lines_evict_each_other():
    pred = OwnerPredictor(sets=64, threshold=2, line_bytes=64)
    alias = LINE + 64 * 64                     # same set, different tag
    pred.train(LINE, "c0")
    pred.train(LINE, "c0")
    assert pred.predict(LINE) == "c0"
    pred.train(alias, "g0")                    # evicts LINE's entry
    assert pred.predict(LINE) is None
    assert pred.lookup(LINE) is None
    assert pred.lookup(alias) == ("g0", 1)


def test_predictor_distinct_sets_do_not_interfere():
    pred = OwnerPredictor(sets=64, threshold=2, line_bytes=64)
    other = LINE + 2 * 64                      # different set
    pred.train(LINE, "c0")
    pred.train(LINE, "c0")
    pred.train(other, "g0")
    assert pred.predict(LINE) == "c0"


def test_predictor_invalidate_on_ownership_transfer():
    pred = OwnerPredictor(threshold=2)
    pred.train(LINE, "c0")
    pred.train(LINE, "c0")
    pred.invalidate(LINE)                      # our own write-class req
    assert pred.predict(LINE) is None
    assert pred.lookup(LINE) is None
    # invalidating a different line in the same set is a no-op
    pred.train(LINE, "c0")
    pred.invalidate(LINE + 64 * 64)
    assert pred.lookup(LINE) == ("c0", 1)


def test_predictor_rejects_zero_sets():
    with pytest.raises(ValueError):
        OwnerPredictor(sets=0)


# -- criticality selection -------------------------------------------------

def test_criticality_converts_only_low_weight_stores():
    policy = CriticalityPolicy()
    gpu, cpu = FakeTU("gpu"), FakeTU("cpu")
    assert policy.select(MsgKind.REQ_WT, LINE, gpu) is \
        MsgKind.REQ_WT_FWD
    assert policy.select(MsgKind.REQ_O, LINE, gpu) is \
        MsgKind.REQ_WT_FWD
    assert policy.select(MsgKind.REQ_O, LINE, cpu) is None
    assert policy.select(MsgKind.REQ_V, LINE, gpu) is None
    assert policy.wants_prediction(MsgKind.REQ_V)
    assert not policy.wants_prediction(MsgKind.REQ_O)


# -- adaptive selection ----------------------------------------------------

def test_adaptive_converts_after_observed_remote_read():
    policy = AdaptivePolicy(region_lines=4, remote_threshold=1)
    tu = FakeTU("cpu")
    assert policy.select(MsgKind.REQ_O, LINE, tu) is None
    policy.observe_forward(LINE, "g0")
    assert policy.select(MsgKind.REQ_O, LINE, tu) is \
        MsgKind.REQ_WT_FWD
    # whole region flips: a neighbouring line in the same 4-line
    # region converts too, but a different region stays fixed
    assert policy.select(MsgKind.REQ_O, LINE + 64, tu) is \
        MsgKind.REQ_WT_FWD
    assert policy.select(MsgKind.REQ_O, LINE + 4 * 64, tu) \
        is None


def test_adaptive_threshold_counts_observations():
    policy = AdaptivePolicy(region_lines=4, remote_threshold=3)
    tu = FakeTU("cpu")
    policy.observe_forward(LINE, "g0")
    policy.observe_forward(LINE + 64, "g1")
    assert policy.select(MsgKind.REQ_O, LINE, tu) is None
    policy.observe_forward(LINE, "g0")
    assert policy.select(MsgKind.REQ_O, LINE, tu) is \
        MsgKind.REQ_WT_FWD


def test_adaptive_never_touches_loads():
    policy = AdaptivePolicy()
    tu = FakeTU("cpu")
    policy.observe_forward(LINE, "g0")
    assert policy.select(MsgKind.REQ_V, LINE, tu) is None
    assert policy.wants_prediction(MsgKind.REQ_V)


# -- factory ---------------------------------------------------------------

def test_make_policy_names():
    assert make_policy("fixed") is None
    assert isinstance(make_policy("criticality"), CriticalityPolicy)
    assert isinstance(make_policy("adaptive"), AdaptivePolicy)
    with pytest.raises(ValueError):
        make_policy("bogus")


def test_tu_device_class_is_the_device_role():
    """The builder hands each TU its device's role; the L1's name plays
    no part (neither name starts with the class letter)."""
    mini = MiniSpandex({"accel": "GPU", "host": "MESI"})
    assert mini.l1s["accel"].tu.device_class == "gpu"
    assert mini.l1s["host"].tu.device_class == "cpu"

"""FaultConfig / LinkWindow / PartitionWindow construction validation
(including the jitter ``classes`` filter's traffic-class names),
the ``unreliable`` / ``active`` gates that decide whether the builder
interposes the reliable-transport sublayer, and the ``--link-down``
CLI spec parser."""

import dataclasses

import pytest

from repro.system import (FaultConfig, LinkWindow, PartitionWindow,
                          parse_link_down)


# -- activity gates -----------------------------------------------------------
@pytest.mark.tier1
def test_default_config_is_inert():
    config = FaultConfig()
    assert not config.active
    assert not config.unreliable


@pytest.mark.tier1
def test_stress_profile_is_timing_only():
    config = FaultConfig.stress(7)
    assert config.active
    assert not config.unreliable            # plain Network stays in place


@pytest.mark.tier1
def test_unreliable_stress_profile_arms_the_transport():
    config = FaultConfig.unreliable_stress(7)
    assert config.active
    assert config.unreliable
    assert config.link_down                 # includes a scheduled outage


@pytest.mark.tier1
@pytest.mark.parametrize("kwargs", [
    dict(drop_prob=0.01),
    dict(dup_prob=0.01),
    dict(reorder_prob=0.1, reorder_window=16),
    dict(link_down=(LinkWindow(start=100, length=50),)),
    dict(partitions=(PartitionWindow(start=100, length=50),)),
], ids=("drop", "dup", "reorder", "link_down", "partition"))
def test_each_delivery_fault_class_flips_unreliable(kwargs):
    config = FaultConfig(seed=1, **kwargs)
    assert config.unreliable
    assert config.active                    # unreliable implies active


# -- construction validation --------------------------------------------------
@pytest.mark.tier1
@pytest.mark.parametrize("kwargs,match", [
    (dict(seed=-1), "seed"),
    (dict(delay_prob=-0.1), "delay_prob"),
    (dict(delay_prob=1.5), "delay_prob"),
    (dict(nack_prob=2.0), "nack_prob"),
    (dict(drop_prob=-0.5), "drop_prob"),
    (dict(dup_prob=1.01), "dup_prob"),
    (dict(reorder_prob=-0.2, reorder_window=8), "reorder_prob"),
    (dict(max_extra_delay=-1), "max_extra_delay"),
    (dict(reorder_window=-1), "reorder_window"),
    (dict(burst_period=100, burst_length=200), "burst_length"),
    (dict(reorder_prob=0.5), "reorder_window"),
    (dict(drop_prob=1.0), "drops every message"),
    # "reqv" is no traffic class (the class is "ReqV"): jitter would
    # silently never fire
    (dict(classes=("reqv",)), "classes must be a tuple"),
    # a bare string would be matched by substring: "ReqWT" is in
    # "ReqWT+data"
    (dict(classes="ReqWT+data"), "classes must be a tuple"),
])
def test_invalid_construction_raises_value_error(kwargs, match):
    with pytest.raises(ValueError, match=match):
        FaultConfig(**kwargs)


@pytest.mark.tier1
def test_jitter_classes_accept_traffic_class_names():
    config = FaultConfig(delay_prob=0.1, max_extra_delay=4,
                         classes=("ReqWT+data", "Probe"))
    assert config.classes == ("ReqWT+data", "Probe")


@pytest.mark.tier1
def test_burst_window_equal_to_period_is_allowed():
    # length == period means "always congested" — degenerate but legal
    config = FaultConfig(burst_period=100, burst_length=100,
                         burst_extra=5)
    assert config.active


@pytest.mark.tier1
def test_replace_revalidates():
    config = FaultConfig.stress(1)
    with pytest.raises(ValueError, match="drop_prob"):
        dataclasses.replace(config, drop_prob=-0.1)


@pytest.mark.tier1
@pytest.mark.parametrize("kwargs", [
    dict(start=-1, length=10),
    dict(start=0, length=0),
    dict(start=5, length=-2),
])
def test_link_window_validates_bounds(kwargs):
    with pytest.raises(ValueError):
        LinkWindow(**kwargs)


@pytest.mark.tier1
def test_partition_window_validates_socket():
    with pytest.raises(ValueError, match="socket"):
        PartitionWindow(start=0, length=10, socket=-1)
    with pytest.raises(ValueError):
        PartitionWindow(start=-5, length=10)


# -- --link-down spec parsing -------------------------------------------------
@pytest.mark.tier1
def test_parse_link_down_defaults_to_wildcards():
    window = parse_link_down("2000:1500")
    assert window == LinkWindow(start=2000, length=1500,
                                src="*", dst="*")


@pytest.mark.tier1
def test_parse_link_down_with_endpoints():
    assert parse_link_down("100:50:c0") == \
        LinkWindow(start=100, length=50, src="c0", dst="*")
    assert parse_link_down("100:50:c0:llc*") == \
        LinkWindow(start=100, length=50, src="c0", dst="llc*")


@pytest.mark.tier1
@pytest.mark.parametrize("spec", ["2000", "a:b", "1:2:3:4:5", ""])
def test_parse_link_down_rejects_malformed_specs(spec):
    with pytest.raises(ValueError):
        parse_link_down(spec)


@pytest.mark.tier1
def test_parse_link_down_validates_window():
    with pytest.raises(ValueError):
        parse_link_down("-5:100")           # negative start
    with pytest.raises(ValueError):
        parse_link_down("100:0")            # zero length

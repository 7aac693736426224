"""Shared fixtures: tiny topologies and networks that keep tests fast."""

from __future__ import annotations

import pytest

from repro.sim.network import FbflyNetwork, NetworkConfig
from repro.topology.flattened_butterfly import FlattenedButterfly


@pytest.fixture
def tiny_topology() -> FlattenedButterfly:
    """2-ary 3-flat: 8 hosts, 4 switches, 2 inter-switch dimensions."""
    return FlattenedButterfly(k=2, n=3)


@pytest.fixture
def small_topology() -> FlattenedButterfly:
    """3-ary 3-flat: 27 hosts, 9 switches — enough for path diversity."""
    return FlattenedButterfly(k=3, n=3)


@pytest.fixture
def tiny_network(tiny_topology) -> FbflyNetwork:
    return FbflyNetwork(tiny_topology, NetworkConfig(seed=7))


@pytest.fixture
def small_network(small_topology) -> FbflyNetwork:
    return FbflyNetwork(small_topology, NetworkConfig(seed=7))


def drain(network: FbflyNetwork, slack_ns: float = 5_000_000.0):
    """Run a network until it has no more work (bounded by ``slack_ns``)."""
    network.sim.run()
    network.stats.finalize(network.sim.now)
    return network.stats


class _GoldenPayloads(dict):
    """Golden payloads computed on first use, once per session."""

    def __missing__(self, name):
        from repro.experiments import golden
        payload = self[name] = golden.GOLDEN_BUILDERS[name]()
        return payload


@pytest.fixture(scope="session")
def golden_payloads():
    """name -> live golden payload, shared by every test in the session
    (each builder simulates for tens of seconds; computing it once keeps
    the golden checks and the ``golden-refresh`` CLI test from paying
    twice)."""
    return _GoldenPayloads()

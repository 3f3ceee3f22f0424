"""The scenario file format: the documented example decodes through the
strict decoder, and its world has the nodes and namespaces it describes."""

from __future__ import annotations

import re
from pathlib import Path

import yaml

from tunectl.codec import from_doc
from tunectl.scenarios import NodeGroup, Quota, ScenarioConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_example() -> dict:
    section = README.read_text().split("## Scenario files", 1)[1]
    return yaml.safe_load(re.search(r"```yaml\n(.*?)```", section, re.S).group(1))


def test_the_readme_example_decodes_and_builds_its_world():
    cfg = from_doc(ScenarioConfig, _readme_example())
    assert cfg.nodes == (NodeGroup(4.0, 3),)
    assert cfg.namespaces == (Quota("user1", 18.0), Quota("user2", 6.0))
    assert cfg.experiments == ("mnist.yaml",)
    world = cfg.world()
    assert [n.capacity_cpu for n in world.nodes.values()] == [4.0, 4.0, 4.0]
    assert {n: ns.cpu_limit for n, ns in world.namespaces.items()} == {"user1": 18.0, "user2": 6.0}
    assert (world.seed, world.gang, world.autoscaler.max_nodes, world.chaos.mode) == (7, True, 50, "fail-trial")


def test_plain_nodes_and_namespaces_build_in_order():
    cfg = from_doc(ScenarioConfig, {"nodes": [2, {"capacityCpu": 8, "count": 2}], "namespaces": ["b", "a"]})
    world = cfg.world()
    assert [(node_id, n.capacity_cpu) for node_id, n in world.nodes.items()] == [
        ("node-0000", 2.0),
        ("node-0001", 8.0),
        ("node-0002", 8.0),
    ]
    assert [(name, ns.cpu_limit) for name, ns in world.namespaces.items()] == [("b", None), ("a", None)]

"""Algorithm registry: built-ins resolve by name, registered plugins win."""

from __future__ import annotations

import pytest

from tunectl.suggest import registry
from tunectl.suggest.registry import (
    BUILTINS,
    AlgorithmPlugin,
    EngineState,
    algorithm_names,
    allowed_settings,
    get_algorithm,
    is_registered,
    register_algorithm,
)


def _plugin(name: str) -> AlgorithmPlugin:
    def suggest(request):
        raise AssertionError("never called")

    return AlgorithmPlugin(
        name=name,
        allowed_settings=frozenset({"mine"}),
        restore_state=lambda exp, produced: EngineState(algorithm=name, produced=produced),
        suggest=suggest,
    )


@pytest.fixture
def fresh_registry(monkeypatch):
    """A registry in which nothing has been looked up or registered yet."""
    monkeypatch.setattr(registry, "_REGISTRY", {})


def test_a_plugin_registered_first_leaves_every_other_builtin_resolvable(fresh_registry):
    register_algorithm(_plugin("random"))
    assert is_registered("tpe")
    assert get_algorithm("tpe").name == "tpe"
    assert algorithm_names() == sorted(BUILTINS)


def test_a_plugin_registered_under_a_builtin_name_wins_for_that_name(fresh_registry):
    mine = _plugin("tpe")
    register_algorithm(mine)
    assert get_algorithm("tpe") is mine
    assert allowed_settings("tpe") == {"mine"}
    assert get_algorithm("random").name == "random"
    assert allowed_settings("random") == {"random_state"}


def test_a_plugin_registered_after_the_builtin_was_loaded_replaces_it(fresh_registry):
    assert get_algorithm("grid").name == "grid"
    mine = _plugin("grid")
    register_algorithm(mine)
    assert get_algorithm("grid") is mine


def test_each_builtin_module_declares_the_name_and_settings_of_its_table_entry(fresh_registry):
    for name, builtin in BUILTINS.items():
        plugin = get_algorithm(name)
        assert plugin.name == name
        assert plugin.allowed_settings is builtin.settings
        assert allowed_settings(name) == builtin.settings

"""The ``>>>`` examples in the module docstrings run and pass."""

from __future__ import annotations

import doctest

import pytest

from rothe import cli, core, oracle, reconstruct, rules


@pytest.mark.parametrize("module", [core, rules, reconstruct, oracle, cli], ids=lambda m: m.__name__)
def test_module_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0

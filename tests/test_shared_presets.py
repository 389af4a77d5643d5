"""One spec per preset, shared by the command line and the scenario builders.

``presets._shared`` builds a preset's spec on first use and hands the same
spec out after that; the public constructors keep building fresh ones.  These
tests pin that the sharing happens (a second scenario or ``check`` builds no
isometry), that it changes no byte of any answer, cold cache or warm, and
that threads racing on a cold cache get the answers of one thread.
"""

import contextlib
import importlib
import io
import json
import sys
import threading

import pytest

from wignersim import cli
from wignersim.channels import NO_COLLAPSE, OBJECTIVE_COLLAPSE, CollapseModel
from wignersim.deduction import build_deutsch_scenario, build_fr_scenario
from wignersim.presets import (
    _shared,
    build_measurement_isometry,
    deutsch_variant,
    frauchiger_renner,
    presets,
    wigner_friend,
)
from wignersim.serialize import experiment_to_document

# The package exports the function ``presets`` under the module's own name.
PRESETS_MODULE = importlib.import_module("wignersim.presets")

SCENARIOS = [
    ("fr", model, post_select)
    for model in (CollapseModel.subjective("F1"), NO_COLLAPSE, OBJECTIVE_COLLAPSE)
    for post_select in (True, False)
] + [
    ("deutsch", collapse, basis)
    for collapse in (True, False)
    for basis in ("superposition", "product")
]


def scenario_json(case) -> str:
    kind, first, second = case
    if kind == "fr":
        outcome = build_fr_scenario(first, second)
    else:
        outcome = build_deutsch_scenario(first, second)
    return json.dumps(outcome.to_json(), sort_keys=True, ensure_ascii=False)


@pytest.fixture
def isometry_builds(monkeypatch):
    """Count the measurement isometries the preset constructors build."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return build_measurement_isometry(*args, **kwargs)

    monkeypatch.setattr(PRESETS_MODULE, "build_measurement_isometry", counting)
    return calls


def test_a_second_scenario_builds_no_isometry(isometry_builds):
    _shared.cache_clear()
    build_fr_scenario()
    assert isometry_builds == ["F1", "F2", "A", "W"]
    build_fr_scenario()
    build_fr_scenario(NO_COLLAPSE, post_select=False)
    assert len(isometry_builds) == 4
    build_deutsch_scenario()
    build_deutsch_scenario(wigner_basis="product")
    assert len(isometry_builds) == 8
    build_deutsch_scenario(False)
    build_deutsch_scenario(False, wigner_basis="product")
    assert len(isometry_builds) == 8


def test_a_second_cli_check_builds_no_isometry(isometry_builds):
    _shared.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["check", "fr"]) == 1
        assert len(isometry_builds) == 4
        assert cli.main(["check", "fr"]) == 1
        assert cli.main(["tables", "--preset", "fr", "--target", "w"]) == 0
    assert len(isometry_builds) == 4


def test_public_constructors_build_fresh_specs():
    assert frauchiger_renner() is not frauchiger_renner()
    assert deutsch_variant() is not deutsch_variant()
    assert wigner_friend("product") is not wigner_friend("product")
    for name, build in presets().items():
        assert build() is not build()
        assert build() is not _shared(name)
        assert _shared(name) is _shared(name)
        assert experiment_to_document(_shared(name)) == experiment_to_document(build())


@pytest.mark.parametrize("case", SCENARIOS, ids=str)
def test_scenarios_are_byte_identical_from_a_cold_and_a_warm_cache(case):
    _shared.cache_clear()
    cold = scenario_json(case)
    warm = scenario_json(case)
    assert cold == warm


def test_threads_racing_on_a_cold_cache_get_the_answers_of_one_thread():
    want = [scenario_json(case) for case in SCENARIOS]
    for _ in range(3):
        _shared.cache_clear()
        failures = []

        def work(offset):
            try:
                for i in list(range(offset, len(SCENARIOS))) + list(range(offset)):
                    if scenario_json(SCENARIOS[i]) != want[i]:
                        failures.append(SCENARIOS[i])
            except Exception as err:  # report it from the main thread
                failures.append(repr(err))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

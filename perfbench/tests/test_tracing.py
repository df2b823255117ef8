import io
import sys
import time
from contextlib import redirect_stdout

import pytest

import tracing
from taitkit import cli
from taitkit.goeritz import SymmetricIntForm


def bindings():
    """Every attribute of every taitkit module, plus the traced method."""
    snapshot = {}
    for name, module in sys.modules.items():
        if module is not None and (name == "taitkit" or name.startswith("taitkit.")):
            for attr, value in vars(module).items():
                snapshot[(name, attr)] = value
    snapshot[("SymmetricIntForm", "determinant")] = vars(SymmetricIntForm)["determinant"]
    return snapshot


def test_restore_puts_back_every_binding():
    before = bindings()
    tracer = tracing.Tracer(tracing.load_layers())
    tracer.install()
    try:
        during = bindings()
        changed = {key for key in before if during[key] is not before[key]}
        # the function is rebound where it is defined and where it is imported
        assert ("taitkit.goeritz", "check_identities") in changed
        assert ("taitkit.cli", "check_identities") in changed
        assert ("taitkit", "check_identities") in changed
        assert ("SymmetricIntForm", "determinant") in changed
    finally:
        tracer.restore()
    after = bindings()
    assert all(after[key] is before[key] for key in before)
    assert set(after) == set(before)


def test_every_public_function_has_a_layer():
    # _targets raises when a public function lacks a layer or a listed one is gone
    tracing.Tracer(tracing.load_layers())._targets()


def test_layer_times_subtract_children():
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("a", 2.0, 3.0, 1, 0),     # a inside b inside a: one outermost call
        ("c", 5.0, 9.0, 0, 0),
    ]
    times = tracing.layer_times(spans)
    assert times["a"]["self_s"] == pytest.approx(10 - 3 - 4 + 1)
    assert times["b"]["self_s"] == pytest.approx(3 - 1)
    assert times["c"]["self_s"] == pytest.approx(4)
    assert times["a"]["calls"] == 1
    assert times["a"]["inclusive_s"] == pytest.approx(10)
    assert tracing.root_time(spans) == pytest.approx(10)


def test_self_times_and_remainder_sum_to_traced_wall(tmp_path):
    tracer = tracing.Tracer(tracing.load_layers())
    tracer.install()
    try:
        start = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            for name in ("8_8", "hopf"):
                assert cli.main(["flype-check", "--input", str(bundled_table()),
                                 "--a", name, "--b", name]) == 0
        wall = time.perf_counter() - start
    finally:
        tracer.restore()
    times = tracing.layer_times(tracer.spans)
    remainder = wall - tracing.root_time(tracer.spans)
    assert remainder >= 0
    assert all(t["self_s"] >= 0 for t in times.values())
    assert sum(t["self_s"] for t in times.values()) + remainder == pytest.approx(wall)
    assert times["cli.main"]["calls"] == 2
    assert times["orbit.is_flype_related"]["calls"] == 2
    assert times["goeritz.check_identities"]["calls"] == 0


def bundled_table():
    from importlib import resources
    return resources.files("taitkit.data").joinpath("alternating_upto8.json")

"""The benchmark in ``perfbench/`` wraps public functions of ``safemanip`` by
module and name.  A rename or a removal would break it only when the
benchmark runs; this test makes it a test failure.  It reads ``perfbench``
and changes nothing there.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
from tracing import Installed, Tracer, _resolve  # noqa: E402


def test_every_benchmark_hook_installs_and_restores():
    originals = {hook.name: _resolve(hook)[2] for hook in layers.HOOKS}
    with Installed(Tracer(), layers.HOOKS) as installed:
        for hook in layers.HOOKS:
            assert installed.sites[hook.name], hook.name
            assert _resolve(hook)[2] is not originals[hook.name], hook.name
    for hook in layers.HOOKS:
        assert _resolve(hook)[2] is originals[hook.name], hook.name

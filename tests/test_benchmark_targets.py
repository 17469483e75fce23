"""Every library name the benchmark's traced run wraps still exists.

`perfbench/tracing.py` wraps the operations listed in its `TARGETS` table,
looking each one up with `getattr` on its `cspcover` module, so a renamed or
removed operation breaks the traced run. This test reads that file by path
without changing it (no bytecode is written) and checks every listed name.
"""

import importlib
import pathlib
import runpy

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_exists():
    targets = runpy.run_path(str(TRACING))["TARGETS"]
    assert targets
    missing = [
        "%s.%s" % (home, name)
        for home, names in targets.items()
        for name in names
        if not hasattr(importlib.import_module("cspcover." + home), name)
    ]
    assert missing == []

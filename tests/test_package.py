"""The package's public names."""

import subprocess
import sys

import leadindex


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from leadindex import *", namespace)
    for name in leadindex.__all__:
        assert namespace[name] is getattr(leadindex, name)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = "import sys, leadindex.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

import os
import subprocess
import sys
from pathlib import Path

import sbcpmu


def test_cli_import_pulls_in_no_scipy():
    # every CLI process pays the import; scipy.stats alone used to cost ~1 s
    code = (
        "import sys, sbcpmu, sbcpmu.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(sbcpmu.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"

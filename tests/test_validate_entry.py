"""``tools/validate_entry.py`` validates the checkout it lives in, not one
at a fixed path: a copy of the tool imports its own ``__ray_entry__``."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools",
    "validate_entry.py",
)


def test_copy_imports_its_own_entry(tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "tools").mkdir(parents=True)
    shutil.copy(TOOL, checkout / "tools" / "validate_entry.py")
    entry = checkout / "__ray_entry__.py"
    entry.write_text("def queries():\n    return {}\n")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "import validate_entry; print(validate_entry.load_entry().__file__)",
            str(checkout / "tools"),
        ],
        cwd=elsewhere,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == str(entry)

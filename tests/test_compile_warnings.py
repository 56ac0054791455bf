"""Every tracked Python file compiles with warnings as errors.

An invalid string escape such as ``'\\S'`` in a non-raw string only warns
today (DeprecationWarning, SyntaxWarning from Python 3.12) and is slated to
become a SyntaxError; this catches it when the line is written."""

from __future__ import annotations

import os
import subprocess
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracked_py_files() -> list[str]:
    out = subprocess.run(
        ["git", "ls-files", "*.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return [os.path.join(ROOT, f) for f in out.split()]


def test_tracked_files_compile_without_warnings():
    files = _tracked_py_files()
    assert os.path.join(ROOT, "__ray_entry__.py") in files
    failed = []
    for path in files:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                compile(source, path, "exec")
            except SyntaxError as ex:
                failed.append(f"{os.path.relpath(path, ROOT)}:{ex.lineno}: {ex.msg}")
    assert not failed, failed

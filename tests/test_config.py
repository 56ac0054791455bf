"""Every ``CrawlConfig`` field is a setting the engine reads: a field no code
reads is a dead option (it doubles the configurations to cover and does
nothing)."""

from __future__ import annotations

import ast
import dataclasses
import pathlib

import scrupyst_ray
from scrupyst_ray.config import CrawlConfig


def _attributes_read(root: pathlib.Path) -> set[str]:
    names = set()
    for path in root.rglob("*.py"):
        if path.name == "config.py" and path.parent == root:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_crawl_config_field_is_read():
    read = _attributes_read(pathlib.Path(scrupyst_ray.__file__).parent)
    unread = [f.name for f in dataclasses.fields(CrawlConfig) if f.name not in read]
    assert unread == []

"""Access to the bundled desk corpus (recipe subgraphs, kitchen, goals)."""

from __future__ import annotations

from pathlib import Path

SUBGRAPH_NAMES = ("whipped_cream", "greek_salad", "ice")


def corpus_dir() -> Path:
    return Path(__file__).with_name("corpus")


def corpus_file(name: str) -> Path:
    return corpus_dir() / name


def subgraph_paths() -> list[Path]:
    return [corpus_file(f"{name}.foon.txt") for name in SUBGRAPH_NAMES]

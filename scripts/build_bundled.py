#!/usr/bin/env python3
"""Regenerate the bundled solution corpus (src/neargroup/bundled/*.json)."""

from pathlib import Path

from neargroup import corpus
from neargroup.io import save_solution
from neargroup.solutions import residual

OUT = Path(__file__).resolve().parent.parent / "src" / "neargroup" / "bundled"


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for name, sol in corpus.corpus_all().items():
        rep = residual(sol)
        assert rep.passed, f"{name} fails residuals:\n{rep}"
        path = OUT / f"{name}.json"
        save_solution(sol, path)
        print(f"wrote {path} (max residual {rep.max_residual:.2e})")


if __name__ == "__main__":
    main()

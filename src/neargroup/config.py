"""Runtime configuration: tolerances, search budgets, archive location.

Settings come from (in increasing precedence) defaults, a key=value config
file, and the NEARGROUP_TOLERANCE environment variable.
"""

import os
from dataclasses import dataclass, fields
from pathlib import Path

__all__ = ["Config", "load_config"]


@dataclass
class Config:
    tolerance: float = 1e-10
    oracle_tolerance: float = 1e-9
    random_starts: int = 1000  # per m = 2n case tag; the m = n solver draws none
    archive_path: str = "./neargroup_archive"
    seed: int = 20260809

    def __post_init__(self):
        if not (0.0 < self.tolerance < 1e-3):
            raise ValueError("tolerance must lie in (0, 1e-3)")
        if not (0.0 < self.oracle_tolerance < 1e-3):
            raise ValueError("oracle_tolerance must lie in (0, 1e-3)")
        if self.random_starts <= 0:
            raise ValueError("random_starts must be positive")

    def solve_config(self):
        from .solvers import SolveConfig

        return SolveConfig(seed=self.seed, random_starts=self.random_starts,
                           residual_tol=self.tolerance)


_COERCE = {f.name: f.type for f in fields(Config)}  # key -> its field's type


def load_config(path: str | Path | None = None, env: dict | None = None) -> Config:
    env = os.environ if env is None else env
    values: dict = {}
    if path is not None and Path(path).exists():
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, _, val = line.partition("=")
            key = key.strip()
            if key in _COERCE:
                values[key] = _COERCE[key](val.strip())
    if "NEARGROUP_TOLERANCE" in env:
        values["tolerance"] = float(env["NEARGROUP_TOLERANCE"])
    return Config(**values)

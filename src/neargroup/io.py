"""Versioned JSON serialization for solutions and the solution archive.

Schema ``neargroup-solution/1``: groups as {"factors": [n1, ...]}, elements
as residue arrays, exact phases as {"num": p, "den": q}, complex doubles as
[re, im] pairs.  Phases round-trip bit-exactly; doubles round-trip through
Python's repr (exact for binary64).  ``Archive`` re-verifies every solution
it loads; ``load_solution`` and ``load_bundled`` read a file as it is, so that
``neargroup verify`` can report a failing one.  A Gram matrix that is no
bicharacter, or form values that are no quadratic form over it, are refused
with ``ValueError`` on load.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .abelian import Bicharacter, FiniteAbelianGroup, Phase, QuadraticForm
from .solutions import (
    ACJData,
    GeneralSolution,
    MNSolution,
    fingerprint,
    residual,
)

__all__ = [
    "SCHEMA",
    "solution_to_json",
    "solution_from_json",
    "save_solution",
    "load_solution",
    "Archive",
    "bundled_path",
    "load_bundled",
]

SCHEMA = "neargroup-solution/1"


def _phase(p: Phase) -> dict:
    return {"num": p.num, "den": p.den}


def _unphase(d: dict) -> Phase:
    return Phase(d["num"], d["den"])


def _c(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


_PHASE_MAX_DEN = 240  # largest denominator _phase_of tries


def _phase_of(z: complex) -> dict | None:
    """Optional exact-phase form of a unimodular complex number."""
    import math

    z = complex(z)
    if abs(abs(z) - 1.0) > 1e-13:
        return None
    ang = math.atan2(z.imag, z.real) / (2 * math.pi) % 1.0
    for den in range(1, _PHASE_MAX_DEN + 1):
        num = round(ang * den)
        cand = complex(np.exp(2j * np.pi * num / den))
        if abs(cand - z) < 1e-13:
            p = Phase(num % den, den)
            return {"num": p.num, "den": p.den}
    return None


def _unc(v) -> complex:
    return complex(v[0], v[1])


def _group_json(G: FiniteAbelianGroup) -> dict:
    return {"factors": list(G.factors)}


def _bichar_json(b: Bicharacter) -> dict:
    return {"gram": [[_phase(p) for p in row] for row in b.gram]}


def _form_json(a: QuadraticForm) -> dict:
    return {"values": [_phase(p) for p in a.values]}


def _btensor_json(bt: np.ndarray) -> list[dict]:
    return [{"idx": ix[:4], "g": ix[4], "v": _c(bt[tuple(ix)])}
            for ix in np.argwhere(bt).tolist()]


def solution_to_json(s: GeneralSolution) -> dict:
    """``"kind": "mn"`` with b and c for an m = n solution (``is_mn``),
    else ``"kind": "general"`` with the ACJ data and the nonzero b entries."""
    acj = s.acj
    mn = s.is_mn
    out = {
        "schema": SCHEMA,
        "group": _group_json(s.group),
        "provenance": dict(s.provenance),
        "kind": "mn" if mn else "general",
        "bicharacter": _bichar_json(acj.bichar),
        "form": _form_json(acj.form),
    }
    if mn:
        c = acj.c_t[0]
        out.update({
            "b": [_c(z) for z in s.btensor[0, 0, 0, 0]],
            "c": _c(c),
            "c_phase": _phase_of(c),
        })
    else:
        out.update({
            "acj": {
                "bar": list(acj.bar),
                "g_t": [list(g) for g in acj.g_t],
                "c_t": [_c(z) for z in acj.c_t],
                "eps_t": list(acj.eps_t),
                "eps": acj.eps,
            },
            "btensor": _btensor_json(s.btensor),
        })
    out["d_exact"] = {"p": s.d_exact.p, "q": s.d_exact.q,
                      "D": s.d_exact.D, "r": s.d_exact.r}
    return out


def solution_from_json(data: dict) -> GeneralSolution:
    if data.get("schema") != SCHEMA:
        raise ValueError(f"unknown schema {data.get('schema')!r}")
    G = FiniteAbelianGroup(tuple(data["group"]["factors"]))
    gram = tuple(tuple(_unphase(p) for p in row) for row in data["bicharacter"]["gram"])
    b = Bicharacter(G, gram)
    a = QuadraticForm(b, tuple(_unphase(p) for p in data["form"]["values"]))
    if len(a.A) != G.order or not a.is_valid():
        raise ValueError("form is not a quadratic form over the bicharacter")
    prov = data.get("provenance", {})
    if data["kind"] == "mn":
        bvec = np.array([_unc(v) for v in data["b"]])
        return MNSolution(G, b, a, bvec, _unc(data["c"]), provenance=prov)
    acj_d = data["acj"]
    acj = ACJData(
        form=a,
        bar=tuple(acj_d["bar"]),
        g_t=tuple(tuple(g) for g in acj_d["g_t"]),
        c_t=tuple(_unc(z) for z in acj_d["c_t"]),
        eps_t=tuple(acj_d["eps_t"]),
        eps=acj_d["eps"],
    )
    L = len(acj.bar)
    bt = np.zeros((L, L, L, L, G.order), dtype=complex)
    for entry in data["btensor"]:
        r, ss, t, u = entry["idx"]
        bt[r, ss, t, u, entry["g"]] = _unc(entry["v"])
    return GeneralSolution(acj, bt, provenance=prov)


def save_solution(s, path: str | Path):
    Path(path).write_text(json.dumps(solution_to_json(s), indent=1))


def load_solution(path: str | Path):
    return solution_from_json(json.loads(Path(path).read_text()))


def bundled_path(name: str) -> Path:
    """Resolve a name like 'z5_m5.json' inside the packaged corpus."""
    from importlib import resources

    base = resources.files("neargroup") / "bundled"
    p = Path(str(base / name))
    if not p.exists():
        raise FileNotFoundError(f"no bundled file {name!r}")
    return p


def load_bundled(name: str):
    if not name.endswith(".json"):
        name += ".json"
    return load_solution(bundled_path(name))


class Archive:
    """Directory store of verified solutions keyed by (group, m, fingerprint)."""

    def __init__(self, root: str | Path, tolerance: float = 1e-10):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.tolerance = tolerance

    def _key(self, s) -> str:
        fp = fingerprint(s)
        h = hashlib.sha256(repr(fp).encode()).hexdigest()[:12]
        gname = "x".join(str(f) for f in s.group.factors)
        return f"Z{gname}_m{s.m}_{h}.json"

    def store(self, s) -> Path:
        if not residual(s, self.tolerance).passed:
            raise ValueError("refusing to archive a failing solution")
        path = self.root / self._key(s)
        save_solution(s, path)
        return path

    def load(self, name: str):
        s = load_solution(self.root / name)
        if not residual(s, self.tolerance).passed:
            raise ValueError(f"archived solution {name} fails re-verification")
        return s

    def entries(self) -> list[str]:
        return sorted(p.name for p in self.root.glob("*.json"))

    def load_all(self) -> list:
        return [self.load(name) for name in self.entries()]

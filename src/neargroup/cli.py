"""Command-line interface.

Exit codes: 0 success / verification pass, 1 verification failure, 2 input
error, 3 resource bound exceeded.  Group specs use the grammar ``Z<n>`` with
products like ``Z2xZ2xZ3``; specs are canonicalized to invariant factors.
All commands accept ``--json`` for machine output; identical inputs and seeds
produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import zlib
from pathlib import Path

from .abelian import (
    FiniteAbelianGroup,
    ResourceError,
    enumerate_bicharacters,
    enumerate_quadratic_forms,
    subgroup_generated_by,
)
from .config import load_config
from .io import Archive, bundled_path, load_solution, solution_to_json
from .solutions import residual

EXIT_OK, EXIT_FAIL, EXIT_INPUT, EXIT_RESOURCE = 0, 1, 2, 3


def parse_group(spec: str) -> FiniteAbelianGroup:
    parts = spec.strip().split("x")
    factors = []
    for p in parts:
        m = re.fullmatch(r"[Zz](\d+)", p.strip())
        if not m:
            raise ValueError(f"bad group spec {spec!r}; use Z<n> or Z2xZ2xZ3")
        factors.append(int(m.group(1)))
    G = FiniteAbelianGroup(tuple(factors))
    if not G.is_canonical:
        G, _ = G.canonicalized()
    return G


def parse_elements(spec: str, G: FiniteAbelianGroup):
    """';'-separated residue vectors like '1,0;0,1'."""
    out = []
    for part in spec.split(";"):
        vec = tuple(int(x) for x in part.split(","))
        if len(vec) != G.rank:
            raise ValueError(f"element {part!r} has wrong rank for {G}")
        out.append(G.reduce(vec))
    return out


def _resolve_file(path: str):
    if path.startswith("bundled/"):
        return bundled_path(path.split("/", 1)[1])
    return path


def _load(path: str):
    return load_solution(_resolve_file(path))


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def cmd_forms(args, cfg):
    G = parse_group(args.group)
    bichars = enumerate_bicharacters(G, nondegenerate_only=not args.all)
    rows = []
    for b in bichars:
        evens = [a for a in enumerate_quadratic_forms(b) if a.is_even()]
        rows.append({
            "gram": [[{"num": p.num, "den": p.den} for p in row] for row in b.gram],
            "nondegenerate": b.is_nondegenerate(),
            "even_forms": [[{"num": p.num, "den": p.den} for p in a.values]
                           for a in evens],
        })
    human = [f"{G}: {len(bichars)} symmetric bicharacter(s)"
             f"{' (nondegenerate)' if not args.all else ''}"]
    for i, row in enumerate(rows):
        gram_txt = [["{}/{}".format(p["num"], p["den"]) for p in r]
                    for r in row["gram"]]
        human.append(f"  #{i}: gram exponents {gram_txt}, "
                     f"{len(row['even_forms'])} even form(s)")
    _emit(args, {"group": list(G.factors), "bicharacters": rows}, "\n".join(human))
    return EXIT_OK


def cmd_classify(args, cfg):
    """``solve`` and ``classify`` (G, m); ``solve --archive`` also stores each
    class representative."""
    from .solvers import classify

    res = classify(parse_group(args.group), args.m, cfg.solve_config())
    payload = _classification_payload(res)
    if args.archive:
        arch = Archive(cfg.archive_path, cfg.tolerance)
        payload["archived"] = [str(arch.store(c.solution)) for c in res.classes]
    _emit(args, payload, res.summary())
    return EXIT_OK


def _classification_payload(res) -> dict:
    return {
        "group": list(res.group.factors),
        "m": res.m,
        "num_classes": res.num_classes,
        "num_classes_absolute": res.num_classes_absolute,
        "completeness": res.completeness,
        "certified_empty": res.certified_empty,
        "classes": [
            {
                "case": str(c.case) if c.case else None,
                "max_residual": c.residuals.max_residual,
                "completeness": c.completeness,
                "fingerprint_hash": zlib.crc32(repr(c.fingerprint).encode()),
                "solution": solution_to_json(c.solution),
            }
            for c in res.classes
        ],
        "refutations": [
            {"case": str(f.tag), "refuted_by": f.refuted_by}
            for f in res.refutations
        ],
        "provenance": res.provenance,
    }


def cmd_verify(args, cfg):
    s = _load(args.file)
    rep = residual(s, cfg.tolerance)
    payload = {
        "file": args.file,
        "passed": rep.passed,
        "max_residual": rep.max_residual,
        "per_equation": rep.per_equation,
    }
    extra = ""
    if args.deep:
        from .cuntz import oracle_check
        from .tuples import to_tuple, verify_admissible

        t = to_tuple(s, check=False)
        rep_t = verify_admissible(t, cfg.oracle_tolerance)
        rep_o = oracle_check(t, cfg.oracle_tolerance)
        payload["admissible"] = {"passed": rep_t.passed,
                                 "max_residual": rep_t.max_residual}
        payload["oracle"] = {"passed": rep_o.passed,
                             "max_residual": rep_o.max_residual}
        extra = (f"\nadmissible tuple: {rep_t.max_residual:.3e}"
                 f" ({'pass' if rep_t.passed else 'FAIL'})"
                 f"\ncuntz oracle:     {rep_o.max_residual:.3e}"
                 f" ({'pass' if rep_o.passed else 'FAIL'})")
        if not (rep_t.passed and rep_o.passed):
            rep = rep_t if not rep_t.passed else rep_o
    _emit(args, payload, str(rep) + extra)
    return EXIT_OK if payload["passed"] and (
        not args.deep or (payload["admissible"]["passed"]
                          and payload["oracle"]["passed"])) else EXIT_FAIL


def cmd_indicators(args, cfg):
    from .cuntz import fs_indicators
    from .tuples import to_tuple

    s = _load(args.file)
    t = to_tuple(s, check=False)
    (nu21, nu31, nu41), rep = fs_indicators(t, cfg.oracle_tolerance)
    payload = {
        "nu21": [nu21.real, nu21.imag],
        "nu31": [nu31.real, nu31.imag],
        "nu41": [nu41.real, nu41.imag],
        "cross_checks_passed": rep.passed,
        "cross_checks": rep.per_equation,
    }
    human = (f"nu_21 = {nu21:.6f}\nnu_31 = {nu31:.6f}\nnu_41 = {nu41:.6f}\n"
             f"cross-checks: {'pass' if rep.passed else 'FAIL'}"
             f" (max {rep.max_residual:.2e})")
    _emit(args, payload, human)
    return EXIT_OK if rep.passed else EXIT_FAIL


def cmd_out(args, cfg):
    from .fusion import out_group

    s = _load(args.file)
    res = out_group(s)
    payload = {"order": res.order, "isomorphism_type": res.isomorphism_type,
               "element_orders": list(res.element_orders),
               "inconclusive": res.inconclusive}
    human = (f"Out(C): order {res.order}"
             + (f", isomorphic to {res.isomorphism_type}" if res.isomorphism_type else "")
             + (" [inconclusive orbits reported]" if res.inconclusive else ""))
    _emit(args, payload, human)
    return EXIT_OK


def cmd_dequiv(args, cfg):
    from .fusion import dequiv_fusion, dequiv_twisted

    s = _load(args.file)
    if s.m != s.n:
        print("input error: de-equivariantization needs an m=n solution",
              file=sys.stderr)
        return EXIT_INPUT
    G = s.group
    H = subgroup_generated_by(G, parse_elements(args.subgroup, G))
    if args.cocycle:
        table = json.loads(Path(args.cocycle).read_text())
        omega = {}
        for entry in table:
            omega[(tuple(entry["h"]), tuple(entry["k"]))] = complex(*entry["v"])
        ring = dequiv_twisted(G, s.acj.bichar, s.acj.form, H, omega)
    else:
        ring = dequiv_fusion(G, s.acj.bichar, s.acj.form, H)
    payload = ring.to_json()
    payload["dimension_residual"] = ring.dimension_residual()
    human = (f"{ring.name}: rank {ring.rank}, associativity exact, "
             f"PF dimension residual {ring.dimension_residual():.2e}\n"
             + "\n".join(f"  {lab}: d = {d:.6f}" for lab, d in
                         zip(ring.labels, ring.dimensions())))
    _emit(args, payload, human)
    return EXIT_OK


def cmd_equiv(args, cfg):
    from .abelian import GroupAutomorphism
    from .fusion import d8_rep_data, equiv_fusion, find_near_group_subring

    s = _load(args.file)
    G = s.group
    if args.gamma:
        if args.gamma.upper() != "D8":
            print("input error: only the built-in gamma spec 'D8' is shipped",
                  file=sys.stderr)
            return EXIT_INPUT
        ring = equiv_fusion(G, s.m, d8_rep_data())
    elif args.aut:
        images = parse_elements(args.aut, G)
        theta = GroupAutomorphism(G, tuple(images))
        ring = equiv_fusion(G, s.m, theta)
    else:
        print("input error: pass --aut THETA or --gamma SPEC", file=sys.stderr)
        return EXIT_INPUT
    sub = find_near_group_subring(ring)
    payload = ring.to_json()
    payload["near_group_subring"] = sub.to_json() if sub else None
    human = f"{ring.name}: rank {ring.rank}"
    if sub:
        human += f"\ncontains a near-group subring of rank {sub.rank}"
    _emit(args, payload, human)
    return EXIT_OK


def cmd_graph(args, cfg):
    from .fusion import principal_graph

    G = parse_group(args.group)
    gr = principal_graph(G, args.l)
    norm2 = gr.norm_squared()
    payload = gr.to_json()
    payload["norm_squared"] = norm2
    payload["expected_index"] = gr.metadata["index"]
    human = (gr.to_dot()
             + f"\n// |Gamma|^2 = {norm2:.9f}, 1 + l d = {gr.metadata['index']:.9f}")
    _emit(args, payload, human)
    return EXIT_OK


def cmd_export(args, cfg):
    from .tuples import to_tuple

    s = _load(args.file)
    if not args.tuple:
        print("input error: only --tuple export is supported", file=sys.stderr)
        return EXIT_INPUT
    t = to_tuple(s, check=False)
    payload = {
        "n": t.n, "m": t.m, "eps": t.eps, "d": t.d,
        "chi": [[[z.real, z.imag] for z in row] for row in t.chi],
        "V": [[[ [z.real, z.imag] for z in row] for row in M] for M in t.V],
        "U": [[[ [z.real, z.imag] for z in row] for row in M] for M in t.U],
        "j1_matrix": [[[z.real, z.imag] for z in row] for row in t.M1],
        "j2_matrix": [[[z.real, z.imag] for z in row] for row in t.M2],
        "l_tensor": [
            {"T": i, "idx": [x, y, z], "v": [t.ltensor[i, x, y, z].real,
                                             t.ltensor[i, x, y, z].imag]}
            for i in range(t.m) for x in range(t.m) for y in range(t.m)
            for z in range(t.m) if t.ltensor[i, x, y, z] != 0
        ],
    }
    out = args.output or "tuple.json"
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=1)
    _emit(args, {"written": out}, f"admissible tuple written to {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="neargroup",
        description="verify, solve and classify near-group category data")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--json", action="store_true", help="machine output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forms", help="bicharacters and even forms of a group")
    p.add_argument("group")
    p.add_argument("--all", action="store_true", help="include degenerate")
    p.set_defaults(func=cmd_forms)

    p = sub.add_parser("solve", help="solve the classification system")
    p.add_argument("group")
    p.add_argument("m", type=int)
    p.add_argument("--archive", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("classify", help="classify (G, m)")
    p.add_argument("group")
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_classify, archive=False)

    p = sub.add_parser("verify", help="verify a solution file")
    p.add_argument("file")
    p.add_argument("--deep", action="store_true",
                   help="also run the admissible-tuple and Cuntz oracles")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("indicators", help="Frobenius-Schur indicators")
    p.add_argument("file")
    p.set_defaults(func=cmd_indicators)

    p = sub.add_parser("out", help="automorphism group of the category")
    p.add_argument("file")
    p.set_defaults(func=cmd_out)

    p = sub.add_parser("dequiv", help="de-equivariantization fusion rules")
    p.add_argument("file")
    p.add_argument("--subgroup", required=True)
    p.add_argument("--cocycle", help="JSON cocycle table for the twisted case")
    p.set_defaults(func=cmd_dequiv)

    p = sub.add_parser("equiv", help="equivariantization fusion rules")
    p.add_argument("file")
    p.add_argument("--aut", help="generator images, e.g. '4' for g -> -g on Z5")
    p.add_argument("--gamma", help="built-in rep data spec (D8)")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("graph", help="2^G_l1 principal graph")
    p.add_argument("group")
    p.add_argument("l", type=int)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("export", help="export an admissible tuple")
    p.add_argument("file")
    p.add_argument("--tuple", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_export)

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ValueError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args, cfg)
    except ResourceError as e:
        print(f"resource bound exceeded: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, FileNotFoundError, KeyError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

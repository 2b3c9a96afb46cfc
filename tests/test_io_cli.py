import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from neargroup.cli import main, parse_group
from neargroup.config import Config, load_config
from neargroup.io import (
    Archive,
    bundled_path,
    load_bundled,
    load_solution,
    save_solution,
    solution_from_json,
    solution_to_json,
)
from neargroup.solutions import (
    ACJData,
    GeneralSolution,
    MNSolution,
    fingerprint,
    gauge_act,
    residual,
    residual_general,
    residual_mn,
)


def test_roundtrip_mn(corpus_mn, tmp_path):
    for name, s in corpus_mn.items():
        path = tmp_path / f"{name}.json"
        save_solution(s, path)
        s2 = load_solution(path)
        assert s2.group.factors == s.group.factors
        assert s2.bichar.gram == s.bichar.gram  # bit-exact phases
        assert s2.form.values == s.form.values
        assert np.array_equal(s2.b, s.b)  # exact doubles via repr
        assert s2.c == s.c


def test_roundtrip_general(corpus_all, tmp_path):
    s = corpus_all["z3_m6"]
    path = tmp_path / "g.json"
    save_solution(s, path)
    s2 = load_solution(path)
    assert np.array_equal(s2.btensor, s.btensor)
    assert s2.acj.c_t == s.acj.c_t


def test_bundled_corpus_loads_and_verifies(corpus_all):
    for name in corpus_all:
        s = load_bundled(name)
        rep = residual(s)
        direct = residual_mn(s) if isinstance(s, MNSolution) else residual_general(s)
        assert rep.passed and rep.per_equation == direct.per_equation, name


def test_mn_kind_is_read_off_the_data(corpus_mn, tmp_path):
    """An m = n solution is told by its data, not by how it was built: each
    bundled m = n entry moved by the identity gauge (a plain
    ``GeneralSolution``) fingerprints as ``"mn"``, gets the Galois-form and
    m=n equations, serialises as ``"kind": "mn"`` and is archived under the
    entry's own key.  An L = 1 normal form with eps_t = (-1,) is not one."""
    mn_keys = {f"gal{i}" for i in range(1, 9)} | {f"mn{i}" for i in range(1, 6)}
    arch = Archive(tmp_path / "arch")
    for name, s in corpus_mn.items():
        t = gauge_act(np.eye(1), s)
        assert type(t) is GeneralSolution, name
        assert fingerprint(t)[0] == "mn" and fingerprint(t) == fingerprint(s), name
        assert set(residual(t).per_equation) == mn_keys, name
        assert solution_to_json(t)["kind"] == "mn", name
        assert arch._key(t) == arch._key(s), name
    s = corpus_mn["z2_m2"]
    a = s.acj
    planted = GeneralSolution(ACJData(a.form, a.bar, a.g_t, a.c_t, (-1,), a.eps), s.btensor)
    assert not planted.is_mn
    assert fingerprint(planted)[0] == "general"
    assert set(residual(planted).per_equation) == set(residual_general(planted).per_equation)
    assert solution_to_json(planted)["kind"] == "general"


def test_archive_roundtrip(corpus_mn, tmp_path):
    arch = Archive(tmp_path / "arch")
    for s in corpus_mn.values():
        arch.store(s)
    assert len(arch.entries()) == len(corpus_mn)
    for s in arch.load_all():
        pass  # load re-verifies internally


def test_archive_rejects_bad(tmp_path, corpus_mn):
    s = corpus_mn["z2_m2"]
    bad = MNSolution(s.group, s.bichar, s.form, s.b + 1e-2, s.c)
    with pytest.raises(ValueError):
        Archive(tmp_path / "arch2").store(bad)


def test_load_refuses_group_data_that_is_not_a_pair(tmp_path, capsys):
    """A form value that breaks a(g+h)<g,h> = a(g)a(h), or a missing one, is
    refused on load with ValueError, as a Gram entry of too large an order
    is: each is an input error of ``verify``, exit 2, not a failing solution."""
    good = json.loads(bundled_path("z3_m3.json").read_text())
    bad_form = json.loads(json.dumps(good))
    bad_form["form"]["values"][1] = {"num": 0, "den": 1}
    short_form = json.loads(json.dumps(good))
    short_form["form"]["values"].pop()
    bad_gram = json.loads(json.dumps(good))
    bad_gram["bicharacter"]["gram"][0][0] = {"num": 1, "den": 2}
    solution_from_json(good)
    for data in (bad_form, short_form, bad_gram):
        with pytest.raises(ValueError):
            solution_from_json(data)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        assert main(["verify", str(p)]) == 2
        capsys.readouterr()


def test_config_defaults_and_env(tmp_path):
    cfg = load_config()
    assert cfg.tolerance == 1e-10
    f = tmp_path / "cfg"
    f.write_text("tolerance = 1e-9\nrandom_starts = 77\n# comment\ngrid_per_dim = 5\n")
    cfg = load_config(f)  # an unknown key, such as a stale grid_per_dim, is ignored
    assert cfg.tolerance == 1e-9 and cfg.random_starts == 77
    cfg = load_config(f, env={"NEARGROUP_TOLERANCE": "1e-8"})
    assert cfg.tolerance == 1e-8
    with pytest.raises(ValueError):
        Config(tolerance=1.0)
    # every key is read, as its field's type
    f.write_text("tolerance = 1e-9\noracle_tolerance = 1e-8\nrandom_starts = 5\n"
                 "archive_path = ./arch\nseed = 7\n")
    cfg = load_config(f)
    assert cfg == Config(1e-9, 1e-8, 5, "./arch", 7)
    assert [type(getattr(cfg, k)) for k in vars(cfg)] == [float, float, int, str, int]


def test_config_checks_oracle_tolerance(tmp_path, capsys):
    """oracle_tolerance lies in (0, 1e-3), as tolerance does: a negative one
    fails every tuple, a large one passes a wrong one.  A config file out of
    range is an input error."""
    for bad in (-1.0, 0.0, 1e-3, 10.0):
        with pytest.raises(ValueError):
            Config(oracle_tolerance=bad)
    f = tmp_path / "cfg"
    for bad in ("-1", "10"):
        f.write_text(f"oracle_tolerance = {bad}\n")
        assert main(["--config", str(f), "indicators", "bundled/z3_m3.json"]) == 2
        assert "oracle_tolerance" in capsys.readouterr().err


def test_parse_group():
    assert parse_group("Z4").factors == (4,)
    assert parse_group("Z2xZ2xZ3").factors == (2, 6)  # canonicalized
    with pytest.raises(ValueError):
        parse_group("A5")


def test_cli_verify_pass_and_fail(tmp_path, corpus_mn, capsys):
    assert main(["verify", "bundled/z5_m5.json"]) == 0
    capsys.readouterr()
    s = corpus_mn["z2_m2"]
    bad = MNSolution(s.group, s.bichar, s.form, s.b + 1e-2, s.c)
    p = tmp_path / "bad.json"
    save_solution(bad, p)
    assert main(["verify", str(p)]) == 1
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "missing.json")]) == 2


def test_cli_json_deterministic(capsys):
    assert main(["--json", "classify", "Z2", "2"]) == 0
    out1 = capsys.readouterr().out
    assert main(["--json", "classify", "Z2", "2"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2  # byte-identical for identical inputs and seeds
    data = json.loads(out1)
    assert data["num_classes"] == 1


def test_cli_solve_archive(tmp_path, capsys):
    """``solve --archive`` stores one file per class in the configured
    archive_path."""
    cfg = tmp_path / "cfg"
    cfg.write_text(f"archive_path = {tmp_path / 'arch'}\n")
    assert main(["--config", str(cfg), "--json", "solve", "Z2", "2", "--archive"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["classes"]) == 2
    files = sorted((tmp_path / "arch").glob("*.json"))
    assert sorted(map(str, files)) == sorted(data["archived"])
    assert len(files) == len(data["classes"])
    assert [s.m for s in Archive(tmp_path / "arch").load_all()] == [2, 2]


def test_cli_dequiv_refuses_a_general_solution(capsys):
    """De-equivariantization needs m = n: z3_m6 (m = 2n) is an input error."""
    assert main(["dequiv", "bundled/z3_m6.json", "--subgroup", "0"]) == 2
    assert "needs an m=n solution" in capsys.readouterr().err


def test_cli_classify_input_error(capsys):
    """m not a multiple of |G| is an input error, exit code 2."""
    assert main(["classify", "Z2", "3"]) == 2
    assert "input error" in capsys.readouterr().err


def test_fingerprint_hash_is_stable_across_processes():
    """The --json fingerprint digest depends on the fingerprint only, not on
    the per-process salt of Python's str hash."""
    from neargroup.cli import _classification_payload
    from neargroup.solutions import fingerprint
    from neargroup.solvers import ClassificationResult, SolutionClass

    s = load_bundled("z2_m2")
    res = ClassificationResult(s.group, 2, [
        SolutionClass(s, None, residual_mn(s), fingerprint(s), "COMPLETE")])
    assert _classification_payload(res)["classes"][0]["fingerprint_hash"] == 1911186030


def test_cli_classify_z3_6_json(capsys):
    assert main(["--json", "classify", "Z3", "6"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["num_classes"] == 2
    assert all(c["case"] is not None for c in data["classes"])
    assert all(c["max_residual"] < 1e-10 for c in data["classes"])


def test_cli_graph_and_indicators(capsys):
    assert main(["graph", "Z3", "2"]) == 0
    out = capsys.readouterr().out
    assert "graph principal" in out and "v_rho" in out
    assert main(["indicators", "bundled/z2_m2.json"]) == 0
    out = capsys.readouterr().out
    assert "nu_21" in out


def test_cli_dequiv_and_equiv(capsys):
    assert main(["dequiv", "bundled/z2z2_m4.json", "--subgroup", "1,1"]) == 0
    capsys.readouterr()
    assert main(["equiv", "bundled/z5_m5.json", "--aut", "4"]) == 0
    capsys.readouterr()
    assert main(["equiv", "bundled/z3_m6.json", "--gamma", "D8"]) == 0
    capsys.readouterr()
    # input errors; the theta-equivariantization is of K(G, n), the D8 one of K(G, 2n)
    assert main(["dequiv", "bundled/z2z2_m4.json", "--subgroup", "1,0"]) == 2
    capsys.readouterr()
    assert main(["equiv", "bundled/z3_m6.json", "--aut", "2"]) == 2
    assert "not of K(Z3, 6)" in capsys.readouterr().err
    assert main(["equiv", "bundled/z5_m5.json", "--gamma", "D8"]) == 2
    assert "not of K(Z5, 5)" in capsys.readouterr().err


def test_cli_export_tuple(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert main(["export", "bundled/z2_m2.json", "--tuple",
                 "--output", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["n"] == 2 and data["m"] == 2


def test_cli_resource_exit(capsys):
    assert main(["forms", "Z128"]) == 3
    capsys.readouterr()


def test_exact_c_phase_in_json(corpus_mn):
    from neargroup.io import solution_to_json

    data = solution_to_json(corpus_mn["z2_m2"])
    assert data["c_phase"] == {"num": 7, "den": 24}  # e^{7 pi i / 12}
    data5 = solution_to_json(corpus_mn["z5_m5"])
    assert data5["c_phase"] == {"num": 1, "den": 2}  # c = -1


def test_verify_corpus_script():
    """scripts/verify_corpus.py runs every layer, the word oracle up to its
    default alphabet 10, on the bundled corpus."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, str(root / "scripts" / "verify_corpus.py")],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "all layers pass" in out.stdout
    assert out.stdout.count(" oracle ") == 6  # every entry but alphabet 24

"""Exit codes, report files, and determinism of the command line."""
import json

import pytest

from tiltlab.cli import main


@pytest.fixture()
def ka2_spec(tmp_path):
    path = tmp_path / "ka2.json"
    path.write_text(json.dumps({"catalog": "linear_an", "n": 2, "d": 1}))
    return str(path)


def write_objects(tmp_path, name, entries):
    path = tmp_path / name
    path.write_text(json.dumps({"generators": entries}))
    return str(path)


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_enumerate_counts_five_classes(tmp_path, ka2_spec):
    code, rep = run(tmp_path, "enumerate", "--spec", ka2_spec)
    assert code == 0
    assert rep["report"]["count"] == 5
    assert all(c["verdict"] == "yes" for c in rep["report"]["clusters"])


def test_missing_spec_file_is_a_spec_error(tmp_path):
    assert main(["enumerate", "--spec", str(tmp_path / "nope.json")]) == 3


def test_d_zero_rejected_at_parse(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"catalog": "linear_an", "n": 2, "d": 0}))
    assert main(["enumerate", "--spec", str(path)]) == 3


def test_missing_d_is_a_spec_error(tmp_path):
    path = tmp_path / "nod.json"
    path.write_text(json.dumps({"catalog": "linear_an", "n": 2}))
    assert main(["enumerate", "--spec", str(path)]) == 3


def test_non_prime_p_is_a_spec_error(tmp_path, capsys):
    path = tmp_path / "p4.json"
    path.write_text(json.dumps({"catalog": "linear_an", "n": 2, "d": 1,
                                "p": 4}))
    assert main(["enumerate", "--spec", str(path)]) == 3
    assert "p = 4" in capsys.readouterr().err


def test_check_tilting_pass_and_fail(tmp_path, ka2_spec):
    free = write_objects(tmp_path, "free.json",
                         [{"kind": "projective", "vertex": 1},
                          {"kind": "projective", "vertex": 2}])
    code, rep = run(tmp_path, "check", "--spec", ka2_spec, "tilting", free)
    assert code == 0
    assert rep["report"]["verdict"] == "tilting"

    pair = write_objects(tmp_path, "pair.json",
                         [{"kind": "simple", "vertex": 1},
                          {"kind": "simple", "vertex": 2}])
    code, rep = run(tmp_path, "check", "--spec", ka2_spec, "tilting", pair)
    assert code == 1
    assert rep["report"]["detail"]["reason"].startswith("T2")


def test_check_air_rank_deficient_fails(tmp_path, ka2_spec):
    single = write_objects(tmp_path, "s.json",
                           [{"kind": "simple", "vertex": 2}])
    code, rep = run(tmp_path, "check", "--spec", ka2_spec, "air", single)
    assert code == 1
    assert rep["report"]["verdict"] == "no"


def test_check_quasi_exit_codes(tmp_path, ka2_spec):
    sink = write_objects(tmp_path, "sink.json",
                         [{"kind": "simple", "vertex": 2}])
    code, _ = run(tmp_path, "check", "--spec", ka2_spec, "quasi", sink)
    assert code == 0

    pair = write_objects(tmp_path, "pair.json",
                         [{"kind": "simple", "vertex": 1},
                          {"kind": "simple", "vertex": 2}])
    code, rep = run(tmp_path, "check", "--spec", ka2_spec, "quasi", pair)
    assert code == 1
    assert rep["report"]["verdict"] == "refuted"

    proj = write_objects(tmp_path, "p.json",
                         [{"kind": "projective", "vertex": 1}])
    code, rep = run(tmp_path, "check", "--spec", ka2_spec, "quasi", proj)
    assert code == 4
    assert rep["report"]["detail"]["anomalies"]


def test_decomposable_generator_gets_its_summands_verdicts(tmp_path,
                                                          ka2_spec):
    # S_1 + S_2 as one generator, and as the pair [S_1, S_2]
    summed = write_objects(tmp_path, "sum.json",
                           [{"dims": [1, 1], "mats": [[[0]]]}])
    pair = write_objects(tmp_path, "pair.json",
                         [{"kind": "simple", "vertex": 1},
                          {"kind": "simple", "vertex": 2}])
    for target, verdict in (("tilting", "not_tilting"), ("quasi", "refuted"),
                            ("air", "no")):
        for obj in (summed, pair):
            code, rep = run(tmp_path, "check", "--spec", ka2_spec, target,
                            obj)
            assert (code, rep["report"]["verdict"]) == (1, verdict)


def test_enumeration_disagreement_is_a_hard_mismatch(tmp_path, ka2_spec,
                                                     monkeypatch, capsys):
    from tiltlab import silting
    clique = silting.enumerate_clique

    def drop_one(*args, **kwargs):
        out = clique(*args, **kwargs)
        out.clusters.pop()
        return out

    monkeypatch.setattr(silting, "enumerate_clique", drop_one)
    code, rep = run(tmp_path, "enumerate", "--spec", ka2_spec,
                    "--method", "both")
    assert (code, rep) == (1, None)
    assert "hard mismatch: enumeration methods disagree" in \
        capsys.readouterr().err


def test_internal_error_has_its_own_exit_code(tmp_path, ka2_spec,
                                              monkeypatch, capsys):
    from tiltlab import cli

    def broken(*args, **kwargs):
        raise ValueError("broken checker")

    monkeypatch.setattr(cli, "cmd_check", broken)
    obj = write_objects(tmp_path, "p1.json",
                        [{"kind": "projective", "vertex": 1}])
    code, rep = run(tmp_path, "check", "--spec", ka2_spec, "tilting", obj)
    assert (code, rep) == (5, None)
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "ValueError: broken checker" in err


def test_out_of_window_object_rejected(tmp_path, ka2_spec):
    shifted = write_objects(tmp_path, "sh.json",
                            [{"kind": "simple", "vertex": 1, "shift": 2}])
    assert main(["check", "--spec", ka2_spec, "quasi", shifted]) == 3


def test_verify_bijection_passes(tmp_path, ka2_spec):
    code, rep = run(tmp_path, "verify", "--spec", ka2_spec, "bijection")
    assert code == 0
    assert rep["report"]["count"] == 5
    assert rep["report"]["injective"] is True


def test_verify_torsion_passes(tmp_path, ka2_spec):
    code, rep = run(tmp_path, "verify", "--spec", ka2_spec, "torsion")
    assert code == 0
    rows = rep["report"]["clusters"]
    assert len(rows) == 5
    assert sum(r["tilting_case"] for r in rows) == 2


def test_verify_equiv_consistent(tmp_path, ka2_spec):
    code, rep = run(tmp_path, "verify", "--spec", ka2_spec, "equiv")
    assert code == 0
    assert all(r["consistent"] for r in rep["report"]["objects"])


def test_same_config_byte_identical(tmp_path, ka2_spec):
    out = tmp_path / "r.json"
    assert main(["verify", "--spec", ka2_spec, "bijection",
                 "--out", str(out)]) == 0
    first = out.read_bytes()
    assert main(["verify", "--spec", ka2_spec, "bijection",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_markdown_format(tmp_path, ka2_spec):
    out = tmp_path / "r.md"
    assert main(["enumerate", "--spec", ka2_spec, "--format", "markdown",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# Enumeration report")
    assert "| ids | verdict |" in text

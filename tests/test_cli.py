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


def test_depth_bounds_the_universe(tmp_path, ka2_spec):
    # at depth 0 only the projectives have a model; the other simple
    # needs depth 1
    sizes = []
    for depth in ("0", "1"):
        code, rep = run(tmp_path, "verify", "--spec", ka2_spec, "bijection",
                        "--depth", depth)
        assert code == 0
        sizes.append(rep["report"]["universe_size"])
    assert sizes == [2, 3]
    assert main(["verify", "--spec", ka2_spec, "bijection",
                 "--depth", "-1"]) == 3


def test_universe_dim_bound_below_one_is_a_spec_error(tmp_path, ka2_spec,
                                                      capsys):
    for bound in ("-3", "0"):
        assert main(["verify", "--spec", ka2_spec, "bijection",
                     "--universe-dim-bound", bound]) == 3
        assert "--universe-dim-bound" in capsys.readouterr().err
    code, rep = run(tmp_path, "verify", "--spec", ka2_spec, "bijection",
                    "--universe-dim-bound", "1")
    assert code == 0 and rep["report"]["universe_size"] > 0


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


def test_prime_past_the_int64_bound_is_a_spec_error(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"catalog": "linear_an", "n": 2, "d": 1,
                                "p": 4294967311}))
    assert main(["enumerate", "--spec", str(path)]) == 3
    assert "below 2^21 = 2,097,152" in capsys.readouterr().err


def test_matrices_breaking_a_relation_are_a_spec_error(tmp_path, capsys):
    spec = tmp_path / "nak3.json"
    spec.write_text(json.dumps({"catalog": "nakayama_rad_square_zero",
                                "n": 3, "d": 1}))
    # a_2 a_1 acts by 1, but rad^2 = 0 over Nak_3
    obj = write_objects(tmp_path, "bad.json",
                        [{"dims": [1, 1, 1], "mats": [[[1]], [[1]]]}])
    assert main(["check", "--spec", str(spec), "tilting", obj]) == 3
    assert ("generator 0: relation [1, 2] (arrow ids) does not act by zero"
            in capsys.readouterr().err)


@pytest.mark.parametrize("spec,entries", [
    ({"catalog": "linear_an", "n": 2, "d": 1}, [{"kind": "simple"}]),
    ({"catalog": "linear_an", "n": 2, "d": 1},
     [{"kind": "simple", "vertex": "x"}]),
    ({"catalog": "linear_an", "n": 2, "d": 1},
     [{"kind": "simple", "vertex": 1, "shift": "a"}]),
    ({"catalog": "linear_an", "n": 2, "d": 1}, [5]),
    ({"catalog": "linear_an", "n": 2, "d": 1}, {"generators": 5}),
    ({"catalog": "linear_an", "n": 2, "d": "one"}, []),
    ({"catalog": "linear_an", "n": "two", "d": 1}, []),
    ({"catalog": "linear_an", "n": 2, "d": 1, "p": "x"}, []),
    ([{"catalog": "linear_an", "n": 2, "d": 1}], []),
    ({"vertices": 2, "arrows": [[1, 1, 2]], "relations": [["a"]], "d": 1},
     []),
    # JSON numbers that are not integers, and booleans, are not truncated
    ({"catalog": "linear_an", "n": 2, "d": 1.5}, []),
    ({"catalog": "linear_an", "n": True, "d": 1}, []),
    ({"catalog": "linear_an", "n": 2, "d": 1, "p": 1009.0}, []),
    ({"vertices": 2.7, "arrows": [[1, 1, 2]], "d": 1}, []),
    ({"vertices": 2, "arrows": [[1, 1, 2.0]], "d": 1}, []),
    ({"vertices": 3, "arrows": [[1, 1, 2], [2, 2, 3]],
      "relations": [[True, 2]], "d": 1}, []),
    ({"catalog": "linear_an", "n": 2, "d": 1},
     [{"kind": "simple", "vertex": True}]),
    ({"catalog": "linear_an", "n": 2, "d": 1},
     [{"kind": "simple", "vertex": 1, "shift": 0.0}]),
    ({"catalog": "linear_an", "n": 2, "d": 1},
     [{"dims": [1.0, 1], "mats": [[[1]]]}]),
    ({"catalog": "linear_an", "n": 2, "d": 1},
     [{"dims": [1, 1], "mats": [[[True]]]}]),
    ({"catalog": "linear_an", "n": 2, "d": 1},
     [{"dims": [1, 1], "mats": [[[1.5]]]}]),
], ids=["no-vertex", "vertex-x", "shift-a", "entry-5", "generators-5",
        "d-one", "n-two", "p-x", "spec-list", "relation-a", "d-float",
        "n-true", "p-float", "vertices-float", "arrow-float", "relation-true",
        "vertex-true", "shift-float", "dims-float", "mats-true",
        "mats-float"])
def test_malformed_input_is_a_spec_error(tmp_path, capsys, spec, entries):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    obj = tmp_path / "obj.json"
    obj.write_text(json.dumps(entries))
    assert main(["check", "--spec", str(path), "quasi", str(obj)]) == 3
    assert capsys.readouterr().err.startswith("error:")


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


def test_zero_vertex_matrices_may_be_empty(tmp_path, ka2_spec):
    # S_1 of A_2 has dims (1, 0): its arrow matrix has shape (0, 1), and
    # JSON can only write it as []
    by_kind = write_objects(tmp_path, "kind.json",
                            [{"kind": "simple", "vertex": 1}])
    for mats in ([[]], [[[]]]):
        by_mats = write_objects(tmp_path, "mats.json",
                                [{"dims": [1, 0], "mats": mats}])
        for target in ("tilting", "quasi", "air"):
            want = run(tmp_path, "check", "--spec", ka2_spec, target, by_kind)
            got = run(tmp_path, "check", "--spec", ka2_spec, target, by_mats)
            assert got[0] != 3
            assert got == want
    # an entry-free matrix where the shape needs entries is still an error
    wrong = write_objects(tmp_path, "wrong.json",
                          [{"dims": [1, 1], "mats": [[]]}])
    assert main(["check", "--spec", ka2_spec, "tilting", wrong]) == 3


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


@pytest.mark.parametrize("error, code", [
    ("NoSolution", 5), ("WindowViolation", 5), ("HomologyOutsideWindow", 5),
    ("NotAdmissible", 3), ("FieldTooSmall", 3),
    ("PoolConstructionUnsupported", 3)])
def test_library_errors_that_input_cannot_cause_are_internal(
        tmp_path, ka2_spec, monkeypatch, capsys, error, code):
    from tiltlab import cli, errors
    exc = getattr(errors, error)

    def broken(*args, **kwargs):
        raise exc(1) if exc is errors.HomologyOutsideWindow else exc("raised")

    monkeypatch.setattr(cli, "enumerate_silting", broken)
    assert run(tmp_path, "enumerate", "--spec", ka2_spec) == (code, None)
    err = capsys.readouterr().err
    if code == 5:
        assert err.startswith("internal error:")
        assert f"{error}: " in err
    else:
        assert err.startswith("error: ")


@pytest.mark.parametrize("error, code, prefix", [
    ("UndecidedIso", 4, "undecided: "),
    ("RandomBudgetExhausted", 2, "budget exceeded: "),
    ("ResolutionDepthExceeded", 2, "budget exceeded: ")])
@pytest.mark.parametrize("command", ["enumerate", "check"])
def test_escaped_verdict_and_budget_errors_are_not_bad_input(
        tmp_path, ka2_spec, monkeypatch, capsys, error, code, prefix,
        command):
    # an undecided isomorphism is an undecided verdict, and an exhausted
    # random or resolution budget is a budget; neither comes from the input
    from tiltlab import cli, errors

    def broken(*args, **kwargs):
        raise getattr(errors, error)("raised")

    monkeypatch.setattr(cli, "enumerate_silting", broken)
    monkeypatch.setattr(cli, "check_tilting", broken)
    obj = write_objects(tmp_path, "p1.json",
                        [{"kind": "projective", "vertex": 1}])
    args = ["check", "--spec", ka2_spec, "tilting", obj] \
        if command == "check" else ["enumerate", "--spec", ka2_spec]
    assert run(tmp_path, *args) == (code, None)
    assert capsys.readouterr().err == f"{prefix}raised\n"


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


# SHA-256 of stdout for fixed runs.  A refactor keeps every report
# byte-identical and so keeps these; a change that alters a report on purpose
# refreezes the digest and says why.
FROZEN_REPORTS = [
    (("verify", "--spec", "a2.json", "bijection"), 0,
     "d3b76ecc426e42f2de854cb4b85eb82d529bd3c74cac60a3c2771007ded63221"),
    (("verify", "--spec", "a2.json", "torsion"), 0,
     "24c7c887d04b13aa0f3e024013dc1bb74d311b874850c1b8e6d240ebe881822d"),
    (("verify", "--spec", "a2.json", "equiv"), 0,
     "d7156122fe18d4ca9c933b57ee09d7687912c65e2dc53f78515a10dc7ac30f7b"),
    (("enumerate", "--spec", "a2.json", "--method", "both"), 0,
     "396376a12255b5e5af9455fad172b9f24bfc30766f89647497ad2a76f86331a3"),
    (("check", "--spec", "a2.json", "tilting", "proj.json"), 0,
     "0408f2b8ff87114c8687caf365cc649270013723e9c34e6ac25fc19994775899"),
    (("check", "--spec", "a2.json", "quasi", "simples.json"), 1,
     "9e48fc9dd239efc172d8a0b9808f40dd592e85108637c869976496d950f0acfd"),
    (("check", "--spec", "a2.json", "air", "proj.json"), 0,
     "92aed61f097ac3496a19875ba27e05a52fbf613564400af81fc9c82103e54073"),
    (("check", "--spec", "a2.json", "--format", "markdown", "tilting",
      "proj.json"), 0,
     "5da2dfc0d3c4cad61014a5ed7c9bdc0b519498c7bc6963aa746489a9c5b38364"),
    (("verify", "--spec", "a2.json", "--d", "2", "bijection"), 0,
     "31e5a465d3b41a37d227c46c9b766a2934fadd8076bfdbcdd7ec6d2d6aae1eea"),
    (("verify", "--spec", "nak3.json", "bijection"), 0,
     "fae9eea8e5b6feb4e70cf3e817d5e8f68b672f97beb00af58f4db16eeed178ac"),
    (("check", "--spec", "a2.json", "tilting", "p1.json"), 1,
     "c15d4d6f903dbf64e80da6eeb20302e0a539f615334f00e0340de0b8bb9de411"),
]


@pytest.mark.parametrize("argv,code,digest", FROZEN_REPORTS,
                         ids=[" ".join(a) for a, _, _ in FROZEN_REPORTS])
def test_report_digests_frozen(tmp_path, monkeypatch, capsys, argv, code,
                               digest):
    import hashlib
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a2.json").write_text(
        json.dumps({"catalog": "linear_an", "n": 2, "d": 1}))
    (tmp_path / "nak3.json").write_text(json.dumps(
        {"catalog": "nakayama_rad_square_zero", "n": 3, "d": 1}))
    write_objects(tmp_path, "proj.json", [{"kind": "projective", "vertex": 1},
                                          {"kind": "projective", "vertex": 2}])
    write_objects(tmp_path, "simples.json", [{"kind": "simple", "vertex": 1},
                                             {"kind": "simple", "vertex": 2}])
    write_objects(tmp_path, "p1.json", [{"kind": "projective", "vertex": 1}])
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_k0_refutation_classes_are_integers(tmp_path, ka2_spec):
    # one summand cannot span K0 of A_2; its class is reported as numbers
    objs = write_objects(tmp_path, "p1.json",
                         [{"kind": "projective", "vertex": 1}])
    code, rep = run(tmp_path, "check", "--spec", ka2_spec, "tilting", objs)
    assert code == 1
    refut = rep["report"]["detail"]["route_a"]["silting"]["refutation"]
    assert refut["kind"] == "k0" and refut["classes"] == [[1, 0]]

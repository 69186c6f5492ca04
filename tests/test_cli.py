import contextlib
import copy
import hashlib
import io
import itertools
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupoidlab import graphs
from groupoidlab.cli import (
    MAX_FINITE_SIZE,
    ConfigError,
    build_system,
    build_x_backend,
    check_singular,
    discrete_graph_from_obj,
    main,
    parse_config,
    run_battery,
)
from groupoidlab.spaces import (
    FiniteBackend,
    FiniteBox,
    FinitePoint,
    box_contains,
    odometer,
    point_from_token,
)


@pytest.fixture
def fast_cfg():
    return parse_config(
        {
            "seeds": [7],
            "bounds": {"samples": 60, "axiom_trials": 60, "density_depth": 32},
        }
    )


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_config_defaults():
    cfg = parse_config({})
    assert cfg["z_backend"] == "odometer"
    assert cfg["x_backend"] == "point"
    assert cfg["seeds"] == [7]
    assert cfg["bounds"]["isotropy_bound"] == 20


def test_config_field_diagnostics():
    with pytest.raises(ConfigError, match="z_backend"):
        parse_config({"z_backend": "rotation-by-pi"})
    with pytest.raises(ConfigError, match="x_backend.size"):
        parse_config({"x_backend": {"kind": "finite", "size": 0}})
    with pytest.raises(ConfigError, match="z_backend: expected"):
        parse_config({"z_backend": {"kind": ["odometer"]}})
    with pytest.raises(ConfigError, match="x_backend: expected"):
        parse_config({"x_backend": {"kind": "cantor"}})
    with pytest.raises(ConfigError, match="x_backend.size"):
        parse_config({"x_backend": {"kind": "finite", "size": True}})
    with pytest.raises(ConfigError, match="seeds"):
        parse_config({"seeds": []})
    with pytest.raises(ConfigError, match="bounds.samples"):
        parse_config({"bounds": {"samples": -1}})
    with pytest.raises(ConfigError, match="bounds.frobnicate"):
        parse_config({"bounds": {"frobnicate": 3}})
    # JSON true is not the integer 1
    with pytest.raises(ConfigError, match=r"config\.seeds\[0\]: expected an integer"):
        parse_config({"seeds": [True]})
    with pytest.raises(ConfigError, match=r"config\.seeds\[1\]: expected an integer"):
        parse_config({"seeds": [3, False]})
    with pytest.raises(ConfigError, match=r"config\.bounds\.samples: expected a positive integer"):
        parse_config({"bounds": {"samples": True}})


@pytest.mark.parametrize("key, param", [("x_backend", "size"), ("z_backend", "order")])
def test_finite_sizes_are_bounded(tmp_path, capsys, key, param):
    """The battery enumerates every point and basic open of a finite
    factor, so its size is capped where it is parsed."""
    kind = {"x_backend": "finite", "z_backend": "finite-cyclic"}[key]
    top = parse_config({key: {"kind": kind, param: MAX_FINITE_SIZE}})
    assert top[key] == {"kind": kind, param: MAX_FINITE_SIZE}
    for n in (MAX_FINITE_SIZE + 1, 10**20):
        with pytest.raises(ConfigError) as exc:
            parse_config({key: {"kind": kind, param: n}})
        assert str(exc.value) == f"config.{key}.{param}: expected at most {MAX_FINITE_SIZE}"
    cfg = write_json(tmp_path, "big.json", {key: {"kind": kind, param: 10**20}})
    assert main(["run", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config.{key}.{param}: expected at most {MAX_FINITE_SIZE}\n"


@pytest.mark.parametrize(
    "model, field",
    [
        ({"z_backend": "bogus"}, "sequence.model.z_backend: expected"),
        ({"x_backend": {"kind": "finite", "size": 0}},
         "sequence.model.x_backend.size: expected a positive integer"),
        ({"x_backend": {"kind": "finite", "size": MAX_FINITE_SIZE + 1}},
         f"sequence.model.x_backend.size: expected at most {MAX_FINITE_SIZE}"),
    ],
    ids=["z_backend", "x_backend.size", "x_backend.size-cap"],
)
def test_sequence_model_errors_name_the_sequence_field(tmp_path, capsys, model, field):
    """A bad factor in a sequence document is named by its place in that
    document, not in a config."""
    doc = {"model": model, "tail": {"kind": "head-only"}, "limit": "FIN @(P:.0;F:0/1)"}
    assert main(["converge", write_json(tmp_path, "seq.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}")


def test_json_parse_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"seeds": [1,]}')
    rc = main(["--config", str(bad)])
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [["run", "--config"], ["check", "ktheory", "--config"], ["ktheory"], ["snf"], ["converge"]],
)
def test_oversized_integer_names_the_file(tmp_path, capsys, argv):
    # an integer past Python's 4300-digit conversion limit is not a
    # JSONDecodeError, but it is still a bad input file
    bad = tmp_path / "huge.json"
    bad.write_text("[" + "7" * 4301 + "]")
    assert main(argv + [str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: Exceeds the limit (4300 digits)")


@pytest.mark.parametrize("argv", [["--config"], ["ktheory"], ["snf"], ["converge"]])
def test_too_deep_json_names_the_file(tmp_path, capsys, argv):
    # the JSON decoder recurses once per level: a document nested past the
    # interpreter's recursion limit is a bad input file, not a crash
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    assert main(argv + [str(deep)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {deep}: nested too deeply\n"


@pytest.mark.parametrize(
    "argv",
    [["run", "--config"], ["check", "ktheory", "--config"], ["ktheory"], ["snf"], ["converge"],
     ["check", "backends", "--out"]],
)
def test_unreadable_or_unwritable_path_names_the_path(tmp_path, capsys, argv):
    # a directory can be neither read nor written as a file; that is a bad
    # path (exit 2), not a failed check (exit 1)
    assert main(argv + [str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"


# ---------------------------------------------------------------------------
# the battery
# ---------------------------------------------------------------------------


def test_battery_default_passes(fast_cfg):
    report = run_battery(fast_cfg)
    assert report.overall
    names = [r.name for r in report.records]
    assert names == [
        "backends",
        "minimality",
        "freeness",
        "singular",
        "axioms",
        "contracting",
        "principality",
        "ktheory",
        "dimension",
        "classification",
    ]
    # the classification step is reported but explicitly not mechanized
    cls = report.records[-1]
    assert cls.informational and "not mechanized" in cls.statement


@pytest.mark.parametrize("z", ["odometer", "golden-rotation"])
@pytest.mark.parametrize(
    "x",
    ["point", "cantor", "circle", {"kind": "finite", "size": 3}],
    ids=["point", "cantor", "circle", "finite3"],
)
def test_minimality_takes_the_factor_split(monkeypatch, z, x):
    """At default bounds every free config is decided by the two 1-D
    density checks alone: the product orbit is never built."""

    def no_product_sweep(*args):
        raise AssertionError("minimality fell back to the product sweep")

    monkeypatch.setattr(graphs, "orbit_plus", no_product_sweep)
    cfg = parse_config({"z_backend": z, "x_backend": x, "seeds": [3, 7, 101]})
    (record,) = run_battery(cfg, only="minimality").records
    assert record.verdict is True
    assert record.params["base_points"] == 30


@pytest.mark.parametrize("z", ["odometer", "golden-rotation"])
@pytest.mark.parametrize("size", [65, 128])
def test_minimality_reaches_every_point_of_a_large_finite_x(z, size):
    """The dense sequence of a finite X visits its points in its first
    ``size`` terms, so the density depth is at least the size; at most
    64 points the default depth stays."""
    cfg = parse_config({"z_backend": z, "x_backend": {"kind": "finite", "size": size}})
    (record,) = run_battery(cfg, only="minimality").records
    assert record.verdict is True and record.evidence == {}
    assert record.params["depth"] == size
    small = parse_config({"z_backend": z, "x_backend": {"kind": "finite", "size": 64}})
    assert run_battery(small, only="minimality").records[0].params["depth"] == 64


def test_minimality_names_the_base_points_it_missed():
    """A failing minimality record lists up to 4 base points as tokens,
    and each one replays as a failing density check."""
    cfg = parse_config(
        {"z_backend": "golden-rotation", "x_backend": "circle", "bounds": {"density_depth": 1}}
    )
    (record,) = run_battery(cfg, only="minimality").records
    assert record.verdict is False
    missed = record.evidence["not_dense_from"]
    assert 1 <= len(missed) <= 4
    graph = graphs.build_model_graph(build_system(cfg), build_x_backend(cfg))
    eps, depth = graph.x_backend.density_resolution(1)
    for token in missed:
        vertex = point_from_token(token)
        assert graph.vertex_backend.has_point(vertex)
        assert graphs.orbit_dense(graph, vertex, depth, eps) is False


def test_battery_negative_control():
    cfg = parse_config(
        {
            "z_backend": {"kind": "finite-cyclic", "order": 3},
            "seeds": [7],
            "bounds": {"samples": 60, "axiom_trials": 40},
        }
    )
    report = run_battery(cfg)
    verdicts = {r.name: r.verdict for r in report.records}
    assert not report.overall
    assert verdicts["freeness"] is False
    freeness = next(r for r in report.records if r.name == "freeness")
    assert freeness.evidence["periods_found"] == [3, 6, 9, 12, 15, 18]
    assert verdicts["principality"] is False
    assert verdicts["ktheory"] is False
    assert verdicts["minimality"] is True  # the control is minimal, just not free


@pytest.mark.parametrize(
    "x, boxes",
    [("point", 1), ({"kind": "finite", "size": 3}, 3), ("circle", 4), ("cantor", 4)],
    ids=["point", "finite3", "circle", "cantor"],
)
def test_singular_takes_each_basic_open_once(x, boxes):
    cfg = parse_config({"x_backend": x, "seeds": [3]})
    graph = graphs.build_model_graph(odometer(), build_x_backend(cfg))
    record = check_singular(cfg, graph)
    assert record.verdict is True and record.params == {"boxes": boxes}
    assert record.evidence["outside"] == []
    witnesses = record.evidence["index_witnesses"]
    assert list(witnesses) == [f"box_{b}" for b in range(boxes)]
    opens = [graph.x_backend.basic_open(b) for b in range(boxes)]
    assert all(a != b for a, b in itertools.combinations(opens, 2))
    for b, hits in enumerate(witnesses.values()):
        assert len(hits) == 3 and hits == sorted(set(hits))
        assert all(box_contains(opens[b], graph.x_point(m)) for m in hits)
    if x == "point":
        assert witnesses == {"box_0": [1, 2, 3]}
    if boxes == 3:
        assert witnesses == {"box_0": [1, 4, 7], "box_1": [2, 5, 8], "box_2": [3, 6, 9]}


class _RepOutside(FiniteBox):
    """A finite box whose representative is the next point, outside it."""

    def rep_point(self):
        return FinitePoint((min(self.indices) + 1) % self.size, self.size)


class _SkewedFinite(FiniteBackend):
    """Three points whose dense-sequence term for box 1 is the point 2."""

    def basic_open(self, i):
        box = super().basic_open(i)
        return _RepOutside(box.indices, box.size) if i % self.size == 1 else box


def test_singular_fails_on_a_dense_term_outside_its_box(fast_cfg):
    graph = graphs.build_model_graph(odometer(), _SkewedFinite(3))
    record = check_singular(fast_cfg, graph)
    assert record.verdict is False
    assert record.evidence["outside"] == ["box_1"]
    assert record.evidence["index_witnesses"]["box_1"] == [2, 5, 8]


# sha256 of the JSON report for seed 1 with samples and axiom_trials at 60,
# pinned so that refactors of the exact cores cannot change a report byte
@pytest.mark.parametrize(
    "z, x, digest",
    [
        ("odometer", "point",
         "8408c639ae777c57e42f5d6f23a5fd6a5138a244a89941b1e3f97f6adbe92cd7"),
        ("odometer", "cantor",
         "b2f9b99371e33adbabb9f30daff194885b49a039c64a02fc3c4968b4046d518c"),
        ("odometer", "circle",
         "f07af9283772912a95c93fda8e9fec8f7e9e930e059fe75fb48df55497de99c8"),
        ("odometer", {"kind": "finite", "size": 3},
         "e4aa615563b373de32c01a1af0330429983efdc28557bcf81cdb1bafe0264b1a"),
        ("golden-rotation", "point",
         "e8e9ad32ff552c4e8f36b9e708628a54fdd2d475eb908c5e29528db9657cba44"),
        ("golden-rotation", "cantor",
         "e458271ce4e7f45f6d17e432876b1dff42e1cf2bce6f360bc9de500a21adade3"),
        ("golden-rotation", "circle",
         "3bcc33e1123dc10c7466bc556e33b28e504ecb0d712957f9f4ce458a1cdd418e"),
        ("golden-rotation", {"kind": "finite", "size": 3},
         "0390164c889b6dea15ba3f860763bad8fb4d86776c201986761d7f3447b42ca3"),
        ({"kind": "finite-cyclic", "order": 3}, "point",
         "8c71155a7120cb5e3528b2214edad75fbbf01a54d452a8a2bca7c8791544dd7c"),
    ],
    ids=[f"{z}-{x}" for z in ("odometer", "golden-rotation")
         for x in ("point", "cantor", "circle", "finite3")] + ["finite-cyclic-point"],
)
def test_battery_report_digest_pinned(z, x, digest):
    cfg = parse_config(
        {"z_backend": z, "x_backend": x, "seeds": [1],
         "bounds": {"samples": 60, "axiom_trials": 60}}
    )
    assert hashlib.sha256(run_battery(cfg).to_json().encode()).hexdigest() == digest


def test_battery_finite_x_ktheory_record():
    doc = {
        "x_backend": {"kind": "finite", "size": 3},
        "seeds": [3],
        "bounds": {"samples": 40, "axiom_trials": 40},
    }
    # a backend object holds the kind and its parameter only
    with pytest.raises(ConfigError, match=r"^config\.x_backend\.note: unknown field$"):
        parse_config({**doc, "x_backend": {"kind": "finite", "size": 3, "note": "x"}})
    cfg = parse_config(doc)
    report = run_battery(cfg)
    assert cfg["x_backend"] == {"kind": "finite", "size": 3}
    assert json.loads(report.to_json())["config"]["x_backend"] == {"kind": "finite", "size": 3}
    record = next(r for r in report.records if r.name == "ktheory")
    assert record.verdict
    assert record.evidence["K0"] == "Z^3 with unit [1, 1, 1]"
    assert record.evidence["K1"] == "0"


def test_battery_deterministic(fast_cfg):
    a = run_battery(fast_cfg).to_json()
    b = run_battery(fast_cfg).to_json()
    assert a == b


def test_single_check(fast_cfg):
    report = run_battery(fast_cfg, only="dimension")
    assert len(report.records) == 1 and report.records[0].name == "dimension"


# ---------------------------------------------------------------------------
# subcommands through main()
# ---------------------------------------------------------------------------


def test_main_run_exit_codes(tmp_path):
    ok_cfg = write_json(
        tmp_path,
        "ok.json",
        {"seeds": [7], "bounds": {"samples": 40, "axiom_trials": 40}},
    )
    out = tmp_path / "report.json"
    assert main(["--config", ok_cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["overall"] == "pass"
    bad_cfg = write_json(
        tmp_path,
        "bad.json",
        {
            "z_backend": {"kind": "finite-cyclic", "order": 3},
            "seeds": [7],
            "bounds": {"samples": 40, "axiom_trials": 40},
        },
    )
    assert main(["--config", bad_cfg, "--out", str(tmp_path / "r2.json")]) == 1


def test_main_check_unknown_lists_available(capsys):
    rc = main(["check", "nonsense"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "available" in err and "principality" in err


def test_main_check_with_flag_overrides(capsys):
    rc = main(["check", "principality", "--samples", "120", "--bound", "20", "--seed", "7"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    (record,) = out["records"]
    assert record["name"] == "principality" and record["verdict"] == "pass"
    assert record["params"]["samples"] == 120
    assert record["params"]["bound"] == 20
    assert record["params"]["seeds"] == [7]
    assert record["evidence"]["violations"] == []


@pytest.mark.parametrize("flag", ["--samples", "--bound"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_main_flag_overrides_must_be_positive(flag, value, capsys):
    """A flag is held to the check a config file's bound gets: no vacuous
    pass on zero samples, and the message names the flag."""
    assert main(["check", "principality", flag, value, "--seed", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag}: expected a positive integer\n"


@pytest.mark.parametrize("flag", ["--samples", "--bound"])
def test_main_flag_override_rejected_like_the_config_bound(tmp_path, flag, capsys):
    key = {"--samples": "samples", "--bound": "isotropy_bound"}[flag]
    cfg = write_json(tmp_path, "zero.json", {"bounds": {key: 0}})
    assert main(["check", "principality", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: config.bounds.{key}: expected a positive integer\n"
    assert main(["run", flag, "0"]) == 2
    assert capsys.readouterr().err == f"error: {flag}: expected a positive integer\n"


def test_main_report_alias(tmp_path):
    cfg = write_json(
        tmp_path, "cfg.json", {"seeds": [5], "bounds": {"samples": 40, "axiom_trials": 40}}
    )
    out = tmp_path / "alias.json"
    assert main(["report", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["overall"] == "pass"


def test_battery_cantor_x_multi_seed():
    cfg = parse_config(
        {
            "z_backend": "golden-rotation",
            "x_backend": "cantor",
            "seeds": [3, 9],
            "bounds": {"samples": 50, "axiom_trials": 50},
        }
    )
    report = run_battery(cfg)
    assert report.overall
    kt = next(r for r in report.records if r.name == "ktheory")
    assert "countable rank" in kt.evidence["K0"]


def test_main_ktheory_subcommand(tmp_path, capsys):
    path = write_json(
        tmp_path,
        "on3.json",
        {"vertices": ["v"], "edges": [["v", "v", "a"], ["v", "v", "b"], ["v", "v", "c"]]},
    )
    assert main(["ktheory", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["K0"] == {"rank": 0, "torsion": [2], "unit": [1], "unit_order": 2}
    assert out["K1"]["rank"] == 0


def test_main_ktheory_loop_graph(tmp_path, capsys):
    path = write_json(tmp_path, "loops.json", {"kind": "one-vertex-loops"})
    assert main(["ktheory", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["K0"] == {"rank": 1, "torsion": [], "unit": [1], "unit_order": "infinite"}


def test_main_snf_subcommand(tmp_path, capsys):
    path = write_json(tmp_path, "id3.json", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert main(["snf", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["D"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_main_snf_rejects_ragged(tmp_path):
    path = write_json(tmp_path, "ragged.json", [[1, 2], [3]])
    assert main(["snf", path]) == 2


@pytest.mark.parametrize("command", ["ktheory", "snf", "converge"])
@pytest.mark.parametrize(
    "flag", [["--config", "c.json"], ["--seed", "3"], ["--samples", "5"], ["--bound", "5"],
             ["--format", "text"]],
    ids=["config", "seed", "samples", "bound", "format"],
)
def test_document_commands_take_only_the_path_and_out(tmp_path, capsys, command, flag):
    """ktheory, snf and converge read one document and write one output:
    a battery flag there is a usage error, not an option they ignore."""
    with pytest.raises(SystemExit) as exc:
        main([command, str(tmp_path / "doc.json")] + flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ktheory", "snf", "converge"])
def test_document_commands_reject_battery_flags_before_them(tmp_path, capsys, command):
    """A battery flag before the subcommand is the same usage error as one
    after it, not an option it ignores."""
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "3", "--format", "text", command, str(tmp_path / "doc.json")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format --seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run"], ["report"], ["check", "backends"]])
def test_battery_flags_before_or_after_the_command(tmp_path, command):
    """The battery flags read the same on either side of the subcommand,
    and a flag given on both sides takes the later value."""
    cfg = write_json(tmp_path, "c.json", {"bounds": {"axiom_trials": 20, "density_depth": 16}})
    flags = ["--config", cfg, "--seed", "5", "--samples", "3", "--bound", "5", "--format", "text"]
    after, before, both = (tmp_path / name for name in ("after", "before", "both"))
    assert main(command + flags + ["--out", str(after)]) == 0
    assert main(["--out", str(before)] + flags + command) == 0
    assert before.read_bytes() == after.read_bytes()
    assert after.read_text().endswith("overall: PASS\n")
    assert main(flags + command + ["--seed", "7", "--format", "json", "--out", str(both)]) == 0
    config = json.loads(both.read_text())["config"]
    assert config["seeds"] == [7]
    assert (config["bounds"]["samples"], config["bounds"]["isotropy_bound"]) == (3, 5)


@pytest.mark.parametrize("command", [["run"], ["report"], ["check", "backends"]])
def test_battery_commands_keep_every_flag(tmp_path, command):
    cfg = write_json(tmp_path, "c.json", {"bounds": {"axiom_trials": 20, "density_depth": 16}})
    out = tmp_path / "r.txt"
    flags = ["--config", cfg, "--seed", "3", "--samples", "5", "--bound", "5",
             "--format", "text", "--out", str(out)]
    assert main(command + flags) == 0
    assert out.read_text().endswith("overall: PASS\n")


def test_document_commands_keep_out(tmp_path):
    path = write_json(tmp_path, "id2.json", [[1, 0], [0, 1]])
    out = tmp_path / "d.json"
    assert main(["snf", path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["D"] == [[1, 0], [0, 1]]


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"entries": 5}, "matrix: expected a non-empty list of rows"),
        ([[1, 2], 5], "matrix[1]: expected a non-empty list of integers"),
        ([[1, 2], [3]], "matrix[1]: has length 1, expected 2"),
        ({"entries": [[1, True]]}, "matrix[0][1]: expected an integer"),
    ],
)
def test_main_snf_names_file_and_field(tmp_path, capsys, doc, message):
    path = write_json(tmp_path, "m.json", doc)
    assert main(["snf", path]) == 2
    assert f"error: {path}: {message}\n" == capsys.readouterr().err


def test_main_converge_subcommand(tmp_path, capsys):
    doc = {
        "model": {"z_backend": "odometer", "x_backend": "point"},
        "head": [],
        "tail": {
            "kind": "escaping",
            "prefix": "FIN @(P:.0;F:0/1)",
            "x_last": "F:0/1",
            "x_box": 0,
            "rep_start": 0,
        },
        "limit": "FIN @(P:.0;F:0/1)",
    }
    path = write_json(tmp_path, "seq.json", doc)
    assert main(["converge", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "pass"


def test_main_converge_counterexample(tmp_path, capsys):
    doc = {
        "model": {"z_backend": "odometer", "x_backend": "point"},
        "head": [],
        "tail": {"kind": "constant", "path": "FIN (P:1.1;F:0/1;7)"},
        "limit": "FIN @(P:.0;F:0/1)",
    }
    path = write_json(tmp_path, "seq2.json", doc)
    assert main(["converge", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["escape"] == "fail" and out["verdict"] == "fail"


def test_main_converge_head_only_undecidable(tmp_path, capsys):
    doc = {
        "model": {"z_backend": "odometer", "x_backend": "point"},
        "head": ["FIN @(P:.0;F:0/1)"],
        "tail": {"kind": "head-only"},
        "limit": "FIN @(P:.0;F:0/1)",
    }
    path = write_json(tmp_path, "seq3.json", doc)
    assert main(["converge", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "undecidable"


@pytest.mark.parametrize(
    "tail, field",
    [
        ({"kind": "constant"}, "path"),
        ({"kind": "escaping", "x_last": "F:0/1"}, "prefix"),
        ({"kind": "escaping", "prefix": "FIN @(P:.0;F:0/1)"}, "x_last"),
        ({"kind": "base-point", "z_rule": {"kind": "constant", "point": "P:.0"}}, "idx"),
        ({"kind": "base-point", "idx": "5|2"}, "z_rule"),
        # present but of the wrong JSON type
        ({"kind": "constant", "path": ["FIN @(P:.0;F:0/1)"]}, "path"),
        ({"kind": "escaping", "prefix": 5, "x_last": "F:0/1"}, "prefix"),
        ({"kind": "escaping", "prefix": "FIN @(P:.0;F:0/1)", "x_last": 0}, "x_last"),
        ({"kind": "escaping", "prefix": "FIN @(P:.0;F:0/1)", "x_last": "F:0/1",
          "x_box": "0"}, "x_box"),
        ({"kind": "escaping", "prefix": "FIN @(P:.0;F:0/1)", "x_last": "F:0/1",
          "rep_start": True}, "rep_start"),
        ({"kind": "base-point", "idx": 5,
          "z_rule": {"kind": "constant", "point": "P:.0"}}, "idx"),
        ({"kind": "base-point", "idx": "5|2", "z_rule": "P:.0"}, "z_rule"),
        ({"kind": "base-point", "idx": "5|2", "x_last": 1,
          "z_rule": {"kind": "constant", "point": "P:.0"}}, "x_last"),
        # finite index data ends in an edge whose x is x_last
        ({"kind": "base-point", "idx": "1,2",
          "z_rule": {"kind": "constant", "point": "P:.0"}}, "x_last"),
    ],
)
def test_main_converge_missing_tail_field(tmp_path, capsys, tail, field):
    doc = {
        "model": {"z_backend": "odometer", "x_backend": "point"},
        "head": [],
        "tail": tail,
        "limit": "FIN @(P:.0;F:0/1)",
    }
    path = write_json(tmp_path, "missing.json", doc)
    assert main(["converge", path]) == 2
    problem = "expected" if field in tail else "missing"
    assert f"sequence.tail.{field}: {problem}" in capsys.readouterr().err


def _nested(inner: str, depth: int = 5000) -> str:
    return "(P:.0;" * depth + inner + ")" * depth


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("converge", {"head": 5}, "sequence.head: expected a list"),
        ("converge", {"head": [5]}, "sequence.head: expected a list of path lines"),
        ("converge", {"limit": 5}, "sequence.limit: expected a string"),
        ("converge", {"model": "odometer"}, "sequence.model: expected an object"),
        ("converge", {"tail": {"kind": "base-point", "idx": "5|2",
                               "z_rule": {"kind": "constant", "point": 0}}},
         "sequence.tail.z_rule.point: expected a string"),
        ("run", {"bounds": 5}, "config.bounds: expected an object"),
        # a string of the right type but with bad content
        ("converge", {"tail": {"kind": "base-point", "idx": "a|b",
                               "z_rule": {"kind": "constant", "point": "P:.0"}}},
         "sequence.tail.idx: invalid literal"),
        ("converge", {"tail": {"kind": "base-point", "idx": "0|1",
                               "z_rule": {"kind": "constant", "point": "P:.0"}}},
         "sequence.tail.idx: edge indices must be >= 1"),
        ("converge", {"tail": {"kind": "base-point", "idx": "5|2",
                               "z_rule": {"kind": "constant", "point": "Q:.0"}}},
         "sequence.tail.z_rule.point: unknown point token"),
        ("converge", {"tail": {"kind": "base-point", "idx": "1,2", "x_last": "P:2.0",
                               "z_rule": {"kind": "constant", "point": "P:.0"}}},
         "sequence.tail.x_last: bits must be 0 or 1"),
        ("converge", {"tail": {"kind": "constant", "path": "FIN @(Q:.0;F:0/1)"}},
         "sequence.tail.path: unknown point token"),
        ("converge", {"tail": {"kind": "escaping", "prefix": "FIN (P:.0;F:0/1)",
                               "x_last": "F:0/1"}},
         "sequence.tail.prefix:"),
        ("converge", {"head": ["INF z=P:.0"]}, "sequence.head[0]:"),
        ("converge", {"limit": "FIN @(P:.0;F:0/1;F:0/1)"},
         "sequence.limit: malformed pair token"),
        ("converge", {"limit": "FIN @(C:1/0:0;F:0/1)"}, "sequence.limit:"),
        ("converge", {"limit": "FINW 1"}, "sequence.limit: a FINW line needs the loop graph"),
        # integers out of range
        ("converge", {"model": {"x_backend": "circle"}, "limit": "FIN @(P:.0;C:0:0)",
                      "tail": {"kind": "escaping", "prefix": "FIN @(P:.0;C:0:0)",
                               "x_last": "C:0:0", "x_box": -1}},
         "sequence.tail.x_box: expected a non-negative integer"),
        ("converge", {"tail": {"kind": "escaping", "prefix": "FIN @(P:.0;F:0/1)",
                               "x_last": "F:0/1", "rep_start": -2}},
         "sequence.tail.rep_start: expected a non-negative integer"),
        ("check", {"seeds": [True], "bounds": {"samples": 4}}, "config.seeds[0]: expected an integer"),
        ("check", {"bounds": {"samples": True}}, "config.bounds.samples: expected a positive integer"),
        # a kind that is not a string
        ("converge", {"tail": {"kind": "base-point", "idx": "5|2",
                               "z_rule": {"kind": ["constant"], "point": "P:.0"}}},
         "sequence.tail.z_rule.kind: unknown kind"),
        # escaping tails: an infinite prefix, an x_box off the x of d(prefix)
        ("converge", {"tail": {"kind": "escaping", "prefix": "INF z=P:.0 idx=|1",
                               "x_last": "F:0/1"}},
         "sequence.tail.prefix: escaping tails extend a finite prefix"),
        ("converge", {"model": {"z_backend": "golden-rotation",
                                "x_backend": {"kind": "finite", "size": 2}},
                      "limit": "FIN @(C:0:0;F:0/2)",
                      "tail": {"kind": "escaping", "prefix": "FIN @(C:0:0;F:0/2)",
                               "x_last": "F:1/2", "x_box": 1}},
         "sequence.tail.x_box: x_box_index must select a basic open"),
        # points of the wrong factor
        ("converge", {"tail": {"kind": "base-point", "idx": "1,2", "x_last": "F:0/1",
                               "z_rule": {"kind": "constant", "point": "C:0:0"}}},
         "sequence.tail.z_rule.point: C:0:0 is not a point of the Z factor"),
        ("converge", {"tail": {"kind": "constant", "path": "FIN (C:0:0;F:0/1;1)"}},
         "sequence.tail.path: C:0:0 is not a point of the Z factor"),
        ("converge", {"limit": "INF z=C:0:0 idx=|1"},
         "sequence.limit: C:0:0 is not a point of the Z factor"),
        ("converge", {"head": ["FIN (P:.0;P:.0;1)"]},
         "sequence.head[0]: P:.0 is not a point of the X factor"),
        ("converge", {"limit": "FIN @(P:.0;F:0/2)"},
         "sequence.limit: (P:.0;F:0/2) is not a point of the vertex space Z x X"),
        ("converge", {"limit": "FIN @(F:0/1;P:.0)"},
         "sequence.limit: (F:0/1;P:.0) is not a point of the vertex space Z x X"),
        ("converge", {"tail": {"kind": "escaping", "prefix": "FIN @(P:.0;F:0/1)",
                               "x_last": "P:.0"}},
         "sequence.tail.x_last: P:.0 is not a point of the X factor"),
        ("converge", {"tail": {"kind": "base-point", "idx": "1", "x_last": "F:0/2",
                               "z_rule": {"kind": "constant", "point": "P:.0"}}},
         "sequence.tail.x_last: F:0/2 is not a point of the X factor"),
        # over a circle X, basic open 10^14 is an arc of level about 1.4e7:
        # it is rejected without building it
        ("converge", {"model": {"x_backend": "circle"}, "limit": "FIN @(P:.0;C:0:0)",
                      "tail": {"kind": "escaping", "prefix": "FIN @(P:.0;C:0:0)",
                               "x_last": "C:0:0", "x_box": 10**14}},
         "sequence.tail.x_box: x_box_index must select a basic open"),
        # point tokens parse recursively: a pair nested past the recursion
        # limit is a bad field, not a crash
        ("converge", {"tail": {"kind": "base-point", "idx": "5|2",
                               "z_rule": {"kind": "constant", "point": _nested("P:.0")}}},
         "sequence.tail.z_rule.point: nested too deeply"),
        ("converge", {"tail": {"kind": "constant", "path": "FIN @" + _nested("F:0/1")}},
         "sequence.tail.path: nested too deeply"),
        # a misspelled top-level key is refused like an unknown bound
        ("check", {"z_backend": "odometer", "bound": {"samples": 3}, "seed": [1]},
         "config.bound: unknown field"),
        # so is a key that a sequence or graph document does not read
        ("converge", {"heads": ["FIN @(Q:.0;F:0/1)"]}, "sequence.heads: unknown field"),
        ("converge", {"model": {"x_bakend": "circle"}}, "sequence.model.x_bakend: unknown field"),
        ("converge", {"tail": {"kind": "constant", "path": "FIN @(P:.0;F:0/1)", "pth": 3}},
         "sequence.tail.pth: unknown field"),
        ("converge", {"tail": {"kind": "head-only", "path": "FIN @(P:.0;F:0/1)"}},
         "sequence.tail.path: unknown field"),
        ("converge", {"tail": {"kind": "base-point", "idx": "5|2",
                               "z_rule": {"kind": "constant", "point": "P:.0", "pont": 0}}},
         "sequence.tail.z_rule.pont: unknown field"),
        ("converge", {"tail": {"kind": [], "path": "FIN @(P:.0;F:0/1)"}},
         "sequence.tail.kind: unknown kind []"),
        ("ktheory", {"vertices": ["v"], "edges": [], "singulr": ["v"]},
         "graph.singulr: unknown field"),
        ("ktheory", {"kind": "one-vertex-loops", "vertices": 5}, "graph.vertices: unknown field"),
        # a finite point token names its size
        ("converge", {"limit": "FIN @(P:.0;F:0/*)"}, "sequence.limit: invalid literal"),
        # a backend object takes its kind and its parameter only
        ("check", {"x_backend": {"kind": "finite", "size": 3, "sise": 5}},
         "config.x_backend.sise: unknown field"),
        ("converge", {"model": {"x_backend": {"kind": "finite", "size": 2, "szie": 9}}},
         "sequence.model.x_backend.szie: unknown field"),
    ],
)
def test_main_wrongly_typed_field(tmp_path, capsys, command, doc, message):
    if command == "converge":
        doc = {"tail": {"kind": "head-only"}, "limit": "FIN @(P:.0;F:0/1)", **doc}
        argv = ["converge", write_json(tmp_path, "doc.json", doc)]
    elif command == "ktheory":
        argv = ["ktheory", write_json(tmp_path, "doc.json", doc)]
    else:
        argv = [command, "--config", write_json(tmp_path, "doc.json", doc)]
        argv += ["principality"] if command == "check" else []
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_graph_ingestion_diagnostics():
    with pytest.raises(ConfigError, match="vertices"):
        discrete_graph_from_obj({"vertices": "v"})
    with pytest.raises(ConfigError, match="edges"):
        discrete_graph_from_obj({"vertices": ["v"], "edges": [["v", "v"]]})
    with pytest.raises(ConfigError, match="graph"):
        discrete_graph_from_obj({"vertices": ["v"], "edges": [["v", "w", "e"]]})
    with pytest.raises(ConfigError, match=r"graph\.singular"):
        discrete_graph_from_obj({"vertices": ["a"], "singular": [["a"]]})
    with pytest.raises(ConfigError, match=r"graph\.edges\[0\]"):
        discrete_graph_from_obj({"vertices": ["a"], "edges": [[["a"], "a", "e"]]})


def test_report_text_format(fast_cfg):
    report = run_battery(fast_cfg, only="dimension")
    text = report.to_text()
    assert "[PASS] dimension" in text
    assert text.endswith("overall: PASS\n")


# ---------------------------------------------------------------------------
# ingest fuzz: mutated documents exit 0, 1 or 2, never with a traceback
# ---------------------------------------------------------------------------

_ODO_VERTEX = "FIN @(P:.0;F:0/1)"
FUZZ_DOCS = [
    ("converge", {"model": {"z_backend": "odometer", "x_backend": "point"},
                  "head": [_ODO_VERTEX, "INF z=P:.0 idx=2|1"],
                  "tail": {"kind": "base-point", "idx": "1,2", "x_last": "F:0/1",
                           "z_rule": {"kind": "constant", "point": "P:.0"}},
                  "limit": "FIN (P:1.1;F:0/1;1)"}),
    ("converge", {"model": {"z_backend": "golden-rotation", "x_backend": "circle"},
                  "tail": {"kind": "base-point", "idx": "3|1,2",
                           "z_rule": {"kind": "approach", "point": "C:1/3:0"}},
                  "limit": "INF z=C:1/3:0 idx=3|1,2"}),
    ("converge", {"model": {"z_backend": "odometer", "x_backend": "point"},
                  "tail": {"kind": "escaping", "prefix": _ODO_VERTEX, "x_last": "F:0/1",
                           "x_box": 0, "rep_start": 1},
                  "limit": _ODO_VERTEX}),
    ("converge", {"model": {"z_backend": "golden-rotation",
                            "x_backend": {"kind": "finite", "size": 2}},
                  "tail": {"kind": "constant", "path": "FIN @(C:0:0;F:1/2)"},
                  "limit": "FIN @(C:0:0;F:1/2)"}),
    ("converge", {"head": [_ODO_VERTEX], "tail": {"kind": "head-only"}, "limit": _ODO_VERTEX}),
    ("ktheory", {"vertices": ["u", "v"], "edges": [["u", "v", "a"], ["v", "u", "b"],
                                                   ["u", "u", "c"]], "singular": ["v"]}),
    ("ktheory", {"kind": "one-vertex-loops"}),
    ("snf", {"entries": [[2, 4], [6, 8]]}),
    ("snf", [[1, 2, 3], [4, 5, 6]]),
    ("check", {"z_backend": {"kind": "finite-cyclic", "order": 3},
               "x_backend": {"kind": "finite", "size": 2},
               "seeds": [3, 5], "bounds": {"samples": 4, "isotropy_bound": 6}}),
]

#: replacement values: every JSON type, plus strings that parse as points
#: and path lines of the wrong factor
_FUZZ_VALUES = [
    None, True, False, 0, -1, 3, "", "x", "C:0:0", "P:.0", "F:0/1", "F:1/2",
    "FIN (C:0:0;F:0/1;1)", "INF z=C:0:0 idx=|1", "1,2", "|1", [], ["constant"], [[1]],
    {}, {"kind": "constant"},
]
_DELETE = object()


def _locations(doc, where=()):
    yield where
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _locations(value, where + (key,))


def _mutated(doc, where, value):
    """``doc`` with the value at ``where`` replaced by a copy of ``value``,
    or deleted; deleting the whole document leaves ``null``."""
    if value is not _DELETE:
        value = copy.deepcopy(value)
    if not where:
        return None if value is _DELETE else value
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[where[-1]]
    else:
        parent[where[-1]] = value
    return doc


@st.composite
def fuzzed_documents(draw):
    command, doc = draw(st.sampled_from(FUZZ_DOCS))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        where = draw(st.sampled_from(list(_locations(doc))))
        doc = _mutated(doc, where, draw(st.sampled_from(_FUZZ_VALUES + [_DELETE])))
    return command, doc


_NAMES_A_FIELD = re.compile(r"\b(config|sequence|graph|matrix)\b[.\[:]")


@given(case=fuzzed_documents())
@example(case=("converge", {"tail": {"kind": "base-point", "idx": "1,2",
                                      "z_rule": {"kind": "constant", "point": "C:0:0"}},
                             "limit": _ODO_VERTEX}))
@example(case=("converge", {"tail": {"kind": "base-point", "idx": "1,2",
                                      "z_rule": {"kind": ["constant"], "point": "P:.0"}},
                             "limit": _ODO_VERTEX}))
@settings(max_examples=150, deadline=None)
def test_ingest_fuzz_names_the_field(tmp_path_factory, case):
    command, doc = case
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    argv = ["check", "--config", str(path), "dimension"] if command == "check" else [command, str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    if rc == 2:
        message = err.getvalue()
        assert message.startswith("error: ") and (
            str(path) in message or _NAMES_A_FIELD.search(message)
        ), message

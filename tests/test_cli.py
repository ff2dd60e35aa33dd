import json
from fractions import Fraction as F

import pytest

from isospec.cli import main, run
from isospec.reports import canonical_json


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def docs(tmp_path):
    return {
        "k4": write(tmp_path, "k4.graph", {
            "vertices": 4,
            "arcs": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
            "undirected": True,
        }),
        "c4": write(tmp_path, "c4.graph", {
            "vertices": 4,
            "arcs": [[0, 1], [1, 2], [2, 3], [3, 0]],
            "undirected": True,
        }),
        "c5": write(tmp_path, "c5.graph", {
            "vertices": 5,
            "arcs": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]],
            "undirected": True,
        }),
        "c6": write(tmp_path, "c6.graph", {
            "vertices": 6,
            "arcs": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]],
            "undirected": True,
        }),
        "k2": write(tmp_path, "k2.graph", {
            "vertices": 2, "arcs": [[0, 1]], "undirected": True,
        }),
        "coloring": write(tmp_path, "coloring.map", {
            "map": {"0": "0", "1": "1", "2": "0", "3": "1", "4": "0", "5": "1"},
        }),
    }


def test_iso_subcommand(docs):
    code, report = run(["iso", docs["k4"], "-n", "3", "--mode", "disjoint"])
    assert code == 0
    assert report["payload"]["iota"].numerator == 8
    assert report["findings"][0]["kind"] == "complete_graph_formula"
    assert report["findings"][0]["discrepancy"] is True


def test_supergeometric_subcommand(docs):
    code, report = run(["supergeometric", docs["c4"]])
    assert code == 0
    assert report["payload"]["supergeometric"] is True
    rows = report["payload"]["rows"]
    assert [str(r["iota"]) for r in rows] == ["1/2", "5/6", "1"]


def test_nohom_subcommand(docs):
    code, report = run(["nohom", docs["c5"], docs["k2"], "--mode", "vertex_onto"])
    assert code == 0
    assert report["payload"]["verdict"] == "none exists"
    code, report = run(["nohom", docs["c6"], docs["k2"], "--mode", "edge_onto"])
    assert code == 0
    assert report["payload"]["map"] == [0, 1, 0, 1, 0, 1]


def test_cheeger_and_nodal_subcommands(docs):
    code, report = run(["cheeger", docs["c4"], "-n", "2"])
    assert code == 0
    assert all(c["passed"] for c in report["checks"])
    code, report = run(["nodal", docs["c4"], "--eigen", "2"])
    assert code == 0
    assert report["payload"]["kappa"] == 2


def test_compare_subcommand(docs):
    code, report = run([
        "compare", docs["c6"], docs["k2"], "--map", docs["coloring"], "--check", "both",
    ])
    assert code == 0
    assert report["payload"]["classification"] == "onto_edge"
    assert report["checks"][0]["passed"]


def test_compare_both_on_vertex_onto_only_map(docs, tmp_path, capsys):
    # C8 -> C4 map that is vertex-onto but misses the arc {3, 0}
    c8 = write(tmp_path, "c8.graph", {
        "vertices": 8, "arcs": [[i, (i + 1) % 8] for i in range(8)], "undirected": True,
    })
    sigma = write(tmp_path, "vertex.map", {
        "map": {str(i): str(x) for i, x in enumerate((0, 1, 2, 3, 2, 1, 0, 1))},
    })
    for backend in ([], ["--float"]):
        code, report = run(backend + ["compare", c8, docs["c4"], "--map", sigma])
        assert code == 0
        payload = report["payload"]
        assert payload["classification"] == "onto_vertex"
        assert payload["comparison"]["part_b"] is None
        assert payload["comparison"]["part_a"]["holds"]
        assert report["checks"] == [
            {"name": "comparison bounds", "passed": True},
            {"name": "comparison part (b) needs an edge-onto homomorphism",
             "passed": True, "skipped": True},
        ]
        code_a, report_a = run(backend + ["compare", c8, docs["c4"], "--map", sigma, "--check", "a"])
        assert code_a == 0
        assert canonical_json(report_a["payload"]["comparison"]["part_a"]) == canonical_json(
            payload["comparison"]["part_a"]
        )
        code_b, report_b = run(backend + ["compare", c8, docs["c4"], "--map", sigma, "--check", "b"])
        assert code_b == 2
        assert report_b["error"] == "part (b) needs an edge-onto homomorphism"
    assert main(["compare", c8, docs["c4"], "--map", sigma]) == 0
    assert "[SKIP] comparison part (b) needs an edge-onto homomorphism" in capsys.readouterr().out


def test_compare_one_vertex_chain_is_an_unmet_precondition(tmp_path, capsys):
    k1 = write(tmp_path, "k1.json", {"vertices": 1, "arcs": [[0, 0]]})
    sigma = write(tmp_path, "m.json", {"map": {"0": "0"}})
    for check in ("none", "a", "b", "both"):
        argv = ["compare", k1, k1, "--map", sigma, "--check", check]
        code, report = run(argv)
        assert code == 2
        assert report["error"] == "the source chain has no flow between two distinct vertices"
        assert main(argv) == 2
        assert "error: the source chain has no flow" in capsys.readouterr().err


def test_compare_computes_constants_once(docs, monkeypatch):
    from isospec import cli, homomorphism

    calls = []
    original = homomorphism.comparison_constants

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "comparison_constants", counting)
    monkeypatch.setattr(homomorphism, "comparison_constants", counting)
    payloads = {}
    for check in ("both", "a", "b", "none"):
        calls.clear()
        code, report = run([
            "compare", docs["c6"], docs["k2"], "--map", docs["coloring"], "--check", check,
        ])
        assert code == 0
        assert len(calls) == 1, check
        payloads[check] = canonical_json(report["payload"]["constants"])
    assert len(set(payloads.values())) == 1


def test_spectrum_deterministic_payload(docs):
    code1, rep1 = run(["spectrum", docs["c4"]])
    code2, rep2 = run(["spectrum", docs["c4"]])
    assert code1 == code2 == 0
    assert canonical_json(rep1["payload"]) == canonical_json(rep2["payload"])


def test_probe_three_clique():
    code, report = run(["probe", "three-clique", "--sweep", "2..3"])
    assert code == 0
    points = report["payload"]["points"]
    assert [p["block_size"] for p in points] == [2, 3]
    assert str(points[1]["pi_hub"]) == "1/8"
    assert points[1]["strict_gap"] is True
    assert points[0]["pi_hub_matches"] is True


def test_probe_circulant():
    code, report = run(["probe", "circulant", "--order", "4", "--connections", "1"])
    assert code == 0
    assert report["payload"]["supergeometric"] is True
    code, report = run(["probe", "circulant", "--order", "5", "--connections", "1,2"])
    assert code == 0
    assert report["payload"]["supergeometric"] is True


def test_probe_gencheeger_records_findings():
    code, report = run(["probe", "gencheeger", "--max-vertices", "4"])
    assert code == 0
    findings = report["findings"]
    assert findings
    evaluated = [f for f in findings if f.get("hypothesis_met")]
    assert any(f["upper_holds"] is False for f in evaluated)
    assert all(f["lower_holds"] for f in evaluated)


def test_probes_honour_cap():
    # 16 vertices: over the default cap, within --cap 16
    code, report = run(["--cap", "16", "probe", "three-clique", "--sweep", "5..5"])
    assert code == 0
    point = report["payload"]["points"][0]
    assert (point["iota_3"], point["iota_tilde_3"]) == (F(1, 21), F(5, 84))
    code, report = run(["--cap", "4", "probe", "gencheeger", "--max-vertices", "5"])
    assert code == 2
    assert "exceeds the enumeration cap 4" in report["error"]


@pytest.mark.parametrize("argv, message", [
    (["--cap", "9", "probe", "three-clique", "--sweep", "3..3"], "needs 10 vertices; cap is 9"),
    (["--cap", "6", "probe", "circulant", "--order", "7"], "order 7 exceeds cap 6"),
])
def test_probes_refuse_a_graph_over_the_cap_before_building_it(argv, message, capsys):
    code, report = run(argv)
    assert code == 2 and message in report["error"]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("max_n", ["0", "1", "-1"])
def test_probe_gencheeger_max_n_below_two_rejected(max_n, capsys):
    argv = ["probe", "gencheeger", "--max-vertices", "3", "--max-n", max_n]
    code, report = run(argv)
    assert code == 2 and report is None
    assert main(argv) == 2
    assert "--max-n: must be at least 2" in capsys.readouterr().err


def test_probe_gencheeger_max_n_clamps_per_chain():
    code, report = run(["probe", "gencheeger", "--max-vertices", "3", "--max-n", "2"])
    assert code == 0 and report["payload"]["findings_count"] == 4
    # above every chain's vertex count: each chain stops at its own count
    code, big = run(["probe", "gencheeger", "--max-vertices", "3", "--max-n", "9"])
    _, unset = run(["probe", "gencheeger", "--max-vertices", "3"])
    assert code == 0 and big["findings"] == unset["findings"]
    assert big["payload"]["findings_count"] == 7


@pytest.mark.parametrize("sweep", ["4..3", "3..", "x"])
def test_probe_sweep_must_be_a_nonempty_range(sweep, capsys):
    argv = ["probe", "three-clique", "--sweep", sweep]
    assert run(argv) == (2, None)
    assert main(argv) == 2
    assert "--sweep" in capsys.readouterr().err


def test_probe_sweep_single_value():
    code, report = run(["probe", "three-clique", "--sweep", "2"])
    assert code == 0
    assert [p["block_size"] for p in report["payload"]["points"]] == [2]


@pytest.mark.parametrize("argv", [
    ["probe", "circulant", "--order", "5", "--max-n", "3", "--sweep", "9..9"],
    ["probe", "circulant", "--max-vertices", "4"],
    ["probe", "three-clique", "--order", "5"],
    ["probe", "three-clique", "--max-n", "3"],
    ["probe", "gencheeger", "--sweep", "2..3"],
    ["probe", "gencheeger", "--connections", "1,2"],
])
def test_probe_refuses_options_of_another_experiment(argv, capsys):
    assert run(argv) == (2, None)
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_input_errors_exit_2(docs, tmp_path):
    code, report = run(["iso", "nope.graph", "-n", "2"])
    assert code == 2
    bad = tmp_path / "bad.graph"
    bad.write_text("{not json")
    code, report = run(["iso", str(bad), "-n", "2"])
    assert code == 2
    code, report = run(["iso", docs["c4"], "-n", "9"])
    assert code == 2


@pytest.mark.parametrize("field, value", [("undirected", "false"), ("vertices", True)])
def test_non_boolean_undirected_and_boolean_vertices_exit_2(tmp_path, capsys, field, value):
    document = {"vertices": 4, "arcs": [[0, 1], [1, 2], [2, 3], [3, 0]], "undirected": True}
    document[field] = value
    path = write(tmp_path, "bad.graph", document)
    argv = ["iso", path, "-n", "2"]
    code, report = run(argv)
    assert code == 2 and f"'{field}' must be" in report["error"]
    assert main(argv) == 2
    assert f"'{field}' must be" in capsys.readouterr().err


@pytest.mark.parametrize("mode, keys", [
    ("disjoint", {"n", "mode", "iota", "witness"}),
    ("partition", {"n", "mode", "iota_tilde", "witness_tilde"}),
    ("both", {"n", "mode", "iota", "witness", "iota_tilde", "witness_tilde"}),
])
def test_iso_payload_holds_only_the_mathematics(docs, mode, keys):
    """The iso payload is n, mode and the solved sides' values and witnesses,
    under report schema 2; no search statistic enters it."""
    code, report = run(["iso", docs["c4"], "-n", "2", "--mode", mode])
    assert code == 0
    assert report["schema"] == "2"
    assert set(report["payload"]) == keys


def test_cap_override(docs):
    code, report = run(["--cap", "3", "iso", docs["c4"], "-n", "2"])
    assert code == 2
    assert "cap" in report["error"]


@pytest.mark.parametrize("spelling", ["separate", "equals"])
def test_json_and_out_flag(docs, tmp_path, capsys, spelling):
    from isospec.cli import main

    out = tmp_path / "report.json"
    flag = ["--out", str(out)] if spelling == "separate" else [f"--out={out}"]
    rc = main(["--json", *flag, "iso", docs["c4"], "-n", "2"])
    assert rc == 0
    assert capsys.readouterr().out == ""
    data = json.loads(out.read_text())
    assert data["payload"]["iota"] == "1/2"
    assert "timing_s" not in data


def test_out_path_that_cannot_be_opened_is_an_input_error(docs, tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["--json", "--out", str(out), "spectrum", docs["c4"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert not out.parent.exists()


def test_consecutive_runs_share_no_state(docs, tmp_path, capsys):
    """The parser is built once per process; no option of one call may leak
    into the next."""
    from isospec.cli import main

    code, report = run(["--float", "iso", docs["c4"], "-n", "2"])
    assert code == 0 and report["payload"]["iota"] == 0.5
    assert isinstance(report["payload"]["iota"], float)
    code, report = run(["iso", docs["c4"], "-n", "2"])
    assert code == 0 and report["payload"]["iota"] == F(1, 2)
    assert isinstance(report["payload"]["iota"], F)
    out = tmp_path / "report.json"
    assert main(["--json", "--out", str(out), "iso", docs["c4"], "-n", "2"]) == 0
    assert capsys.readouterr().out == ""
    out.unlink()
    assert main(["--json", "iso", docs["c4"], "-n", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["iota"] == "1/2"
    assert not out.exists()


def test_non_finite_kernel_entry_rejected(tmp_path):
    """A NaN kernel entry is refused as a kernel error before any solve."""
    path = tmp_path / "nan.graph"
    path.write_text(json.dumps({
        "vertices": 3,
        "arcs": [[0, 1], [1, 2], [2, 0], [0, 2]],
        "kernel": {"type": "explicit", "matrix": [[0, 0.5, float("nan")], [0, 0, 1], [1, 0, 0]]},
    }))
    code, report = run(["iso", str(path), "-n", "2"])
    assert code == 2
    assert report["error"] == "non-finite kernel entry at (0,2)"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected(jobs, capsys):
    from isospec.cli import main

    code, report = run(["--jobs", jobs, "probe", "three-clique"])
    assert code == 2 and report is None
    capsys.readouterr()
    assert main(["--jobs", jobs, "probe", "three-clique"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_jobs_clamped_to_cpu_count(monkeypatch):
    import multiprocessing

    from isospec import cli

    class FakePool:
        """Records its size and maps serially; starts no worker."""

        sizes = []

        def __init__(self, processes):
            self.sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(x) for x in items]

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    code, report = run(["--jobs", "1000", "probe", "three-clique", "--sweep", "2..3"])
    assert code == 0
    assert FakePool.sizes == [3]
    assert [p["block_size"] for p in report["payload"]["points"]] == [2, 3]


@pytest.mark.parametrize("flags", [["--exact", "--float"], ["--float", "--exact"]])
def test_backend_flags_exclude_each_other(docs, flags, capsys):
    argv = flags + ["iso", docs["c4"], "-n", "2"]
    assert run(argv) == (2, None)
    assert main(argv) == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["probe", "circulant", "--order", "0"],
    ["probe", "circulant", "--order", "-2"],
    ["probe", "circulant", "--order", "1"],
    ["probe", "gencheeger", "--max-vertices", "0"],
    ["probe", "gencheeger", "--max-vertices", "1"],
    ["probe", "three-clique", "--sweep", "0..1"],
    ["probe", "three-clique", "--sweep", "-2"],
])
def test_probe_options_below_their_minimum_rejected(argv, capsys):
    assert run(argv) == (2, None)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"argument {argv[2]}: " in err and "must be at least" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["probe", "circulant", "--order", "2"],
    ["probe", "gencheeger", "--max-vertices", "2"],
    ["probe", "three-clique", "--sweep", "1"],
])
def test_probe_options_at_their_minimum_accepted(argv):
    code, report = run(argv)
    assert code == 0 and report["findings"]


def two_state_document(tmp_path, matrix):
    return write(tmp_path, "two_state.graph", {
        "vertices": 2, "arcs": [[0, 1], [1, 0]],
        "kernel": {"type": "explicit", "matrix": matrix},
    })


def test_float_iso_on_a_slowly_mixing_rational_kernel(tmp_path):
    """K = [[1 - e, e], [2e, 1 - 2e]] with e = 1e-6: the float backend rounds
    the exact law once, so no iteration can run out on a slowly mixing chain."""
    path = two_state_document(tmp_path, [["999999/1000000", "1/1000000"],
                                         ["1/500000", "499999/500000"]])
    code, exact = run(["iso", path, "-n", "2"])
    assert code == 0 and exact["payload"]["iota"] == F(3, 2000000)
    code, report = run(["--float", "iso", path, "-n", "2"])
    assert code == 0
    assert report["payload"]["iota"] == pytest.approx(1.5e-6, rel=1e-15)


def test_float_backend_refuses_a_rational_row_off_one(tmp_path):
    """A rational row summing to 1 - 1e-15 exits 2 with or without --float."""
    path = two_state_document(tmp_path, [["1/2", "499999999999999/1000000000000000"],
                                         ["1/2", "1/2"]])
    for backend in ([], ["--float"]):
        code, report = run(backend + ["iso", path, "-n", "2"])
        assert code == 2 and "row 0 sums to" in report["error"]

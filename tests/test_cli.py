"""CLI behavior: report schema, exit codes, file handling."""

import json
import logging
import tracemalloc

import pytest

from drgq import catalogue, graphs, memory, qpoly
from drgq.cli import main
from drgq.connectivity import odd_component_census
from drgq.families import build_family, cycle_graph, petersen_graph
from drgq.graph6 import read_graph6, save_graph6_file, write_graph6
from drgq.graphs import distance_data
from drgq.intersection import check_distance_regular, classify
from drgq.report import SECTIONS
from drgq.spectral import compute_spectral_data
from drgq.tolerances import DEFAULT_TOLERANCES


@pytest.fixture
def path_graph_file(tmp_path):
    path = tmp_path / "path3.g6"
    # 3-vertex path 0-1-2
    path.write_text("Bg\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "analyze", "petersen")
        assert code == 0
        report = json.loads(out)
        assert report["tool"]["name"] == "drgq"
        assert report["graph"]["n"] == 10
        assert report["intersection"]["is_drg"]
        assert report["intersection"]["b"] == [3, 2]
        assert report["spectral"]["theta"] == [3.0, 1.0, -2.0]
        assert report["spectral"]["mult"] == [1, 5, 4]
        assert report["qpoly"]["verdicts"] == [True, True]
        assert report["qpoly"]["mode"] == "full"
        assert report["connectivity"]["ck"]["s"] == 2
        assert report["connectivity"]["ck"]["tail_all_connected"] is True
        assert "timings" in report

    def test_odd3_census_block(self, capsys):
        code, out, _ = run(capsys, "analyze", "odd:3")
        assert code == 0
        report = json.loads(out)
        census = report["connectivity"]["census"]
        assert census == {"d": 3, "count": 3, "component_size": 6, "iso_certified": True}
        assert report["connectivity"]["thm1"]["all_connected"] is True
        assert report["intersection"]["d"] == 3 and report["intersection"]["k"] == 4

    def test_byte_stable_modulo_timings(self, capsys):
        _, first, _ = run(capsys, "analyze", "johnson:6,3")
        _, second, _ = run(capsys, "analyze", "johnson:6,3")
        a, b = json.loads(first), json.loads(second)
        a.pop("timings"), b.pop("timings")
        assert json.dumps(a) == json.dumps(b)

    def test_long_cycle_orderings(self, capsys):
        # d = 40: the span chain runs to degree 40 and agrees with the Krein walk
        code, out, _ = run(capsys, "analyze", "cycle:80")
        assert code == 0
        qp = json.loads(out)["qpoly"]
        assert len(qp["orderings"]) == 16 and qp["consistent"]

    def test_pretty_output(self, capsys):
        code, out, _ = run(capsys, "analyze", "petersen", "--pretty")
        assert code == 0
        assert "distance-regular: d=2, k=3, array {3,2;1,1}, primitive" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "analyze", "cycle:6", "--out", str(target))
        assert code == 0 and out == ""
        report = json.loads(target.read_text())
        assert report["intersection"]["b"] == [2, 1, 1]

    def test_only_section(self, capsys):
        code, out, _ = run(capsys, "analyze", "petersen", "--only", "qpoly")
        assert code == 0
        report = json.loads(out)
        assert "qpoly" in report and "spectral" not in report and "connectivity" not in report

    def test_only_skips_later_sections(self, capsys, monkeypatch):
        # the spectral section is built before the deciders, so they must not run
        _, full, _ = run(capsys, "analyze", "petersen")

        def refuse(*args, **kwargs):
            raise AssertionError("qpoly_report called")
        monkeypatch.setattr(catalogue, "qpoly_report", refuse)
        code, out, _ = run(capsys, "analyze", "petersen", "--only", "spectral")
        assert code == 0
        report = json.loads(out)
        assert report["spectral"] == json.loads(full)["spectral"]
        assert "qpoly" not in report and "connectivity" not in report

    def test_missing_file_named_in_error(self, capsys):
        code, _, err = run(capsys, "analyze", "missing.g6")
        assert code == 2
        assert "missing.g6" in err

    @pytest.mark.parametrize("argv", [
        ("analyze", "petersen", "--out", "{tmp}/no_such_dir/x.json"),
        ("analyze", "{tmp}"),
    ], ids=["out_in_missing_dir", "directory_as_source"])
    def test_file_system_error_exits_usage(self, capsys, tmp_path, argv):
        code, _, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 2
        assert err.startswith("error: ") and str(tmp_path) in err

    @pytest.mark.parametrize("spec, cause", [
        ("odd:1", "odd graph parameter must be at least 2, got 1"),
        ("hamming:30,2", "above the 100000 ceiling"),
        ("johnson:3,5", "johnson parameters need n > k >= 1"),
    ])
    def test_family_error_shown(self, capsys, spec, cause):
        code, out, err = run(capsys, "analyze", spec)
        assert code == 2 and out == ""
        assert cause in err and "cannot interpret" not in err

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "analyze", "dodecahedron:5")
        assert code == 2

    def test_graph6_input(self, capsys, tmp_path):
        path = tmp_path / "petersen.g6"
        save_graph6_file(str(path), [petersen_graph()])
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["spectral"]["theta"] == [3.0, 1.0, -2.0]

    @pytest.mark.parametrize("line", ["~!!!", "~~!!!!!!"], ids=["4_byte", "8_byte"])
    def test_bad_size_prefix_exits_usage(self, capsys, tmp_path, line):
        path = tmp_path / "bad.g6"
        path.write_text(line + "\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}:1: invalid graph6 byte '!'")

    def test_zero_vertex_line_exits_usage(self, capsys, tmp_path):
        path = tmp_path / "empty_graph.g6"
        path.write_text("?\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}:1: vertex count must be positive, got 0\n"

    def test_multi_graph_file_refused(self, capsys, tmp_path):
        path = tmp_path / "two.g6"
        save_graph6_file(str(path), [petersen_graph(), cycle_graph(7)])
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2 and out == ""
        assert "2 graphs" in err

    def test_not_drg_reported(self, capsys, path_graph_file):
        code, out, _ = run(capsys, "analyze", path_graph_file)
        assert code == 0
        report = json.loads(out)
        assert report["intersection"]["is_drg"] is False
        witness = report["intersection"]["witness"]
        assert witness["count_a"] != witness["count_b"]
        assert "spectral" not in report

    def test_require_drg_exit_code(self, capsys, path_graph_file):
        code, _, _ = run(capsys, "analyze", path_graph_file, "--require-drg")
        assert code == 3

    @pytest.mark.parametrize("section", SECTIONS)
    def test_require_drg_with_only_accepts_a_drg(self, capsys, section):
        code, out, _ = run(capsys, "analyze", "petersen", "--only", section, "--require-drg")
        assert code == 0 and section in json.loads(out)

    def test_require_drg_with_only_refuses_a_non_drg(self, capsys, path_graph_file):
        code, out, _ = run(capsys, "analyze", path_graph_file, "--only", "spectral",
                           "--require-drg")
        assert code == 3
        assert json.loads(out)["intersection"]["is_drg"] is False

    def test_absurd_tolerance_exits_numerical(self, capsys):
        code, _, err = run(capsys, "analyze", "petersen", "--tolerance", "1e-18")
        assert code == 4
        assert "numerical" in err.lower()

    def test_single_vertex_input(self, capsys, tmp_path):
        path = tmp_path / "one.g6"
        path.write_text("@\n")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2 and "single-vertex" in err

    def test_disconnected_input(self, capsys, tmp_path):
        path = tmp_path / "two_triangles.g6"
        from drgq.graphs import build_graph
        g = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        path.write_text(write_graph6(g) + "\n")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "unreachable" in err


class TestVerify:
    def test_thm1_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "thm1", "odd:3")
        assert code == 0 and "pass" in out

    def test_thm1_small_diameter_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "thm1", "cycle:3")
        assert code == 2
        assert "d >= 3" in err

    def test_ck_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "ck", "petersen")
        assert code == 0 and "s=2" in out

    def test_census_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "census", "odd:3")
        assert code == 0 and "3 components of size 6" in out

    def test_census_wrong_family(self, capsys):
        code, _, err = run(capsys, "verify", "census", "petersen")
        assert code == 2 and "odd" in err

    def test_consistency_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "qpoly-consistency", "folded_cube:5")
        assert code == 0 and "agree" in out

    def test_not_drg_target(self, capsys, path_graph_file):
        code, out, err = run(capsys, "verify", "thm1", path_graph_file)
        assert code == 3 and out == ""
        assert err.startswith(f"{path_graph_file}: ")


class TestCatalogue:
    def test_single_check_json(self, capsys):
        code, out, _ = run(capsys, "catalogue", "--only", "dual_oracle", "--json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 12
        assert all(r["passed"] for r in rows)
        assert {r["graph"] for r in rows} == {
            "petersen", "cycle:6", "hamming:3,2", "hamming:3,3", "hamming:4,2",
            "johnson:6,3", "johnson:7,3", "folded_cube:5", "folded_cube:7",
            "odd:3", "odd:4", "odd:5"}

    def test_unknown_check_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "catalogue", "--only", "bogus")
        assert exc.value.code == 2

    def test_only_skips_unread_deciders(self, capsys, monkeypatch):
        # the dual oracle never reads the Q-polynomial deciders, so they must not run
        def refuse(*args, **kwargs):
            raise AssertionError("qpoly_report called")
        monkeypatch.setattr(catalogue, "qpoly_report", refuse)
        code, out, _ = run(capsys, "catalogue", "--only", "dual_oracle", "--json")
        assert code == 0 and len(json.loads(out)) == 12


class TestLogLevel:
    SNAP = "INFO drgq.connectivity: snapping dual values [2] to zero before the sign test"

    @pytest.fixture(autouse=True)
    def reset_logger(self):
        yield
        logger = logging.getLogger("drgq")
        for handler in list(logger.handlers):
            logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)

    def test_info_shows_dual_snap(self, capsys):
        # index 2 of hamming:4,2's dual sequence snaps to zero
        code, out, err = run(capsys, "analyze", "hamming:4,2", "--log-level", "info")
        assert code == 0 and json.loads(out)["graph"]["n"] == 16
        assert err.splitlines() == [self.SNAP]

    def test_default_prints_nothing(self, capsys):
        code, _, err = run(capsys, "analyze", "hamming:4,2")
        assert code == 0 and err == ""

    @pytest.mark.parametrize("argv", (("verify", "ck", "hamming:4,2"),
                                      ("catalogue", "--only", "tail")))
    def test_every_subcommand(self, capsys, argv):
        code, _, err = run(capsys, *argv, "--log-level", "info")
        assert code == 0 and self.SNAP in err.splitlines()

    def test_debug_shows_sweep_expansion(self, capsys):
        code, _, err = run(capsys, "analyze", "petersen", "--log-level", "debug")
        assert code == 0
        assert "DEBUG drgq.qpoly: E_1: factor delta" in err

    def test_unknown_level_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "petersen", "--log-level", "loud"])
        assert exc.value.code == 2


class TestMemoryPreflight:
    # the budget is patched down; no oversize array is ever allocated
    @pytest.mark.parametrize("spec, budget, stage, estimate", [
        ("hamming:4,2", 1000, "all-pairs distances on 16 vertices",
         memory.distance_bytes(16, 80)),
        ("hamming:4,2", memory.distance_bytes(16, 80),
         "the analysis of 16 vertices at diameter 4", memory.analysis_bytes(16, 4)),
    ])
    def test_refused_with_estimate(self, capsys, monkeypatch, spec, budget, stage, estimate):
        assert budget < estimate
        monkeypatch.setattr(memory, "physical_memory", lambda: budget)
        code, out, err = run(capsys, "analyze", spec)
        assert code == 2 and out == ""
        assert f"{stage}: an estimated {estimate:,} bytes" in err
        assert f"the {budget:,} bytes" in err

    def test_graph6_refused_with_estimate(self, capsys, monkeypatch, tmp_path):
        # refused before decoding, naming the line; a written graph's set bits are its edges
        g = build_family("hamming:4,2")
        path = tmp_path / "x.g6"
        save_graph6_file(str(path), [g])
        estimate = memory.graph6_bytes(20, g.num_edges)  # 120 pair bits, 6 a byte
        monkeypatch.setattr(memory, "physical_memory", lambda: estimate - 1)
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2 and out == ""
        assert f"{path}:1: graph6 decoding of 16 vertices: an estimated {estimate:,} bytes" in err

    @pytest.mark.parametrize("spec", ("odd:6", "johnson:12,6", "hamming:12,2"))
    def test_graph6_model_covers_decode_peak(self, spec):
        g = build_family(spec)
        line = write_graph6(g)
        tracemalloc.start()
        try:
            read_graph6(line)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= memory.graph6_bytes((g.n * (g.n - 1) // 2 + 5) // 6, g.num_edges)

    @pytest.mark.parametrize("spec", ("odd:6", "johnson:12,6", "hamming:12,2"))
    def test_graph6_model_is_tight(self, spec):
        # the model counts the decoder's own arrays, not a pass it does not make
        g = build_family(spec)
        line = write_graph6(g)
        tracemalloc.start()
        try:
            read_graph6(line)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert memory.graph6_bytes((g.n * (g.n - 1) // 2 + 5) // 6, g.num_edges) <= 1.5 * peak

    def test_bfs_model_follows_unpack_block(self, monkeypatch):
        # the BFS reads the constant the model counts, and n^2 exceeds both row blocks
        assert graphs.UNPACK_ENTRIES is memory.UNPACK_ENTRIES
        block, before = memory.UNPACK_ENTRIES, memory.distance_bytes(1000, 3000)
        monkeypatch.setattr(memory, "UNPACK_ENTRIES", 4 * block)
        assert memory.distance_bytes(1000, 3000) - before == 3 * block

    @pytest.mark.parametrize("spec", ("petersen", "odd:3", "hamming:8,2", "odd:5", "johnson:12,6"))
    def test_bfs_model_covers_measured_peak(self, spec):
        g = build_family(spec)
        tracemalloc.start()
        try:
            distance_data(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= memory.distance_bytes(g.n, 2 * g.num_edges + g.n)

    @pytest.mark.parametrize("spec", ("hamming:8,2", "odd:5", "johnson:12,6"))
    def test_analysis_model_covers_measured_peak(self, spec):
        # everything after the BFS: the regularity check, the spectra, the
        # Q-polynomial deciders and every claim; the distances predate tracing
        g = build_family(spec)
        dd = distance_data(g)
        tracemalloc.start()
        try:
            ia = check_distance_regular(g, dd)
            sd = compute_spectral_data(dd, ia)
            bundle = catalogue.Bundle(spec, None, g, dd, ia, classify(ia), sd,
                                      DEFAULT_TOLERANCES, "auto", 0)
            for claim in catalogue.CLAIMS.values():
                claim(bundle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dd.dist.nbytes + peak <= memory.analysis_bytes(g.n, dd.diameter)

    @pytest.mark.parametrize("spec", ("odd:4", "odd:5", "odd:6"))
    def test_census_fits_its_share_of_the_analysis_model(self, spec):
        # the census's column blocks and certificate arrays are sized by
        # BLOCK_ENTRIES; analysis_bytes gives them the batch buffers' and the
        # factor's share, which the balanced-set sweep has freed
        g = build_family(spec)
        dd = distance_data(g)
        tracemalloc.start()
        try:
            odd_component_census(g, dd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= memory.BATCH_BUFFER_BYTES + 8 * g.n ** 2

    @pytest.mark.parametrize("spec", ("cycle:200", "cycle:400", "cycle:510"))
    def test_analysis_model_covers_tensor_peak(self, spec):
        # at large diameter the (d+1)^3 tensors dominate: the p-tensor beside
        # the idempotent products or the Krein tensor.  Every claim but the
        # two that run the Q-polynomial deciders (whose balanced sweeps form
        # no such tensor and take seconds here) runs with them alive
        g = build_family(spec)
        dd = distance_data(g)
        tracemalloc.start()
        try:
            ia = check_distance_regular(g, dd)
            sd = compute_spectral_data(dd, ia)
            qpoly.krein_parameters(sd)
            bundle = catalogue.Bundle(spec, None, g, dd, ia, classify(ia), sd,
                                      DEFAULT_TOLERANCES, "auto", 0)
            for name, claim in catalogue.CLAIMS.items():
                if name not in catalogue.QPOLY_CLAIMS:
                    claim(bundle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dd.dist.nbytes + peak <= memory.analysis_bytes(g.n, dd.diameter)

    def test_cgroup_limit(self, tmp_path, monkeypatch):
        unlimited, limited = tmp_path / "memory.max", tmp_path / "limit_in_bytes"
        unlimited.write_text("max\n")
        limited.write_text("4096\n")
        missing = str(tmp_path / "absent")
        monkeypatch.setattr(memory, "CGROUP_LIMIT_FILES", (missing, str(unlimited)))
        assert memory.cgroup_limit() is None
        assert memory.available_memory() == memory.physical_memory()
        monkeypatch.setattr(memory, "CGROUP_LIMIT_FILES", (missing, str(limited)))
        assert memory.cgroup_limit() == 4096
        assert memory.available_memory() == 4096


@pytest.mark.parametrize("value", ("nan", "inf", "0", "-1"))
@pytest.mark.parametrize("argv", (("analyze", "odd:3"),
                                  ("verify", "qpoly-consistency", "hamming:3,3"),
                                  ("catalogue",)))
def test_unusable_tolerance_refused(capsys, argv, value):
    code, out, err = run(capsys, *argv, "--tolerance", value)
    assert code == 2 and out == ""
    assert "--tolerance must be a finite positive number" in err


@pytest.mark.parametrize("argv", (("analyze", "petersen"),
                                  ("analyze", "cycle:5", "--mode", "sampled"),
                                  ("verify", "qpoly-consistency", "johnson:12,6"),
                                  ("catalogue", "--only", "dual_oracle")))
def test_negative_seed_refused(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", "-3")
    assert code == 2 and out == ""
    assert "--seed must be a non-negative integer, got -3" in err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0

"""The ftspanner command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.graph import generators
from repro.graph import io as graph_io


@pytest.fixture
def graph_file(tmp_path):
    g = generators.ensure_connected(
        generators.gnp_random_graph(20, 0.3, seed=5), seed=5
    )
    path = tmp_path / "g.txt"
    graph_io.save(g, path)
    return path


# The subcommands that took ``--backend`` before CSR became the only
# execution path.
_BACKEND_FLAG_COMMANDS = ["build", "verify", "oracle", "serve", "churn"]


class TestOracle:
    def test_oracle_random(self, capsys):
        rc = main([
            "oracle", "--random", "30", "--p", "0.25", "-k", "2", "-f", "2",
            "--pairs", "40", "--scenarios", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "oracle over" in out
        assert "answered 80 queries across 2 scenarios" in out

    def test_oracle_from_file_edge_faults(self, graph_file, capsys):
        rc = main([
            "oracle", "--input", str(graph_file), "-f", "1",
            "--fault-model", "edge", "--pairs", "20", "--scenarios", "2",
        ])
        assert rc == 0
        assert "reachable under faults" in capsys.readouterr().out

    def test_oracle_needs_source(self):
        with pytest.raises(SystemExit):
            main(["oracle"])

    def test_oracle_answers_match_reference(self, capsys, monkeypatch):
        # The same sampled queries, answered by the dict reference oracle
        # over the same spanner, give an identical reachability line.
        from repro.session import SpannerSession
        from tests import reference as ref

        args = [
            "oracle", "--random", "24", "--p", "0.3", "-f", "2",
            "--pairs", "30", "--scenarios", "3", "--seed", "7",
        ]
        assert main(args) == 0
        out_csr = capsys.readouterr().out.splitlines()[-1]

        def reference_oracle(session, cache_size=128):
            return ref.FaultTolerantDistanceOracle(
                session.g, session.k, session.f,
                fault_model=session.fault_model, cache_size=cache_size,
                prebuilt=session.result,
            )

        monkeypatch.setattr(SpannerSession, "oracle", reference_oracle)
        assert main(args) == 0
        out_dict = capsys.readouterr().out.splitlines()[-1]
        assert out_csr.startswith("reachable under faults")
        assert out_dict == out_csr


class TestBuild:
    def test_build_random(self, capsys):
        rc = main(["build", "--random", "25", "--p", "0.3", "-k", "2", "-f", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3-spanner" in out
        assert "kept" in out

    def test_build_from_file_with_output(self, graph_file, tmp_path, capsys):
        out_path = tmp_path / "spanner.txt"
        rc = main([
            "build", "--input", str(graph_file),
            "-k", "2", "-f", "1", "--output", str(out_path),
        ])
        assert rc == 0
        spanner = graph_io.load(out_path)
        original = graph_io.load(graph_file)
        assert spanner.num_edges <= original.num_edges

    def test_build_verify_flag(self, graph_file, capsys):
        rc = main([
            "build", "--input", str(graph_file),
            "-k", "2", "-f", "1", "--verify",
        ])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "algorithm",
        ["greedy", "classic", "baswana-sen", "thorup-zwick", "dk", "clpr"],
    )
    def test_algorithms_run(self, algorithm, capsys):
        rc = main([
            "build", "--random", "20", "--p", "0.3",
            "--algorithm", algorithm, "-k", "2", "-f", "1",
        ])
        assert rc == 0

    def test_backends_build_identical_spanners(self, graph_file, tmp_path,
                                               capsys):
        # The CLI's spanner equals the dict reference construction.
        from tests import reference as ref

        out_path = tmp_path / "spanner.txt"
        rc = main([
            "build", "--input", str(graph_file), "-k", "2", "-f", "1",
            "--output", str(out_path),
        ])
        assert rc == 0
        expected = ref.fault_tolerant_spanner(graph_io.load(graph_file), 2, 1)
        assert set(graph_io.load(out_path).edges()) == \
            set(expected.spanner.edges())

    def test_backend_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["build", "--random", "10", "--backend", "numpy"])

    @pytest.mark.parametrize("command", _BACKEND_FLAG_COMMANDS)
    def test_retired_backend_flag_rejected(self, command, graph_file,
                                           capsys):
        argv = {
            "build": ["build", "--random", "10"],
            "verify": ["verify", str(graph_file), str(graph_file), "-t", "3"],
            "oracle": ["oracle", "--random", "10"],
            "serve": ["serve", "--random", "10"],
            "churn": ["churn", "--random", "10"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--backend", "csr"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_backend_env_var_is_ignored(self, monkeypatch):
        # The execution path is not configurable: a leftover
        # REPRO_BACKEND value changes nothing.
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        assert main(["build", "--random", "12", "--p", "0.3"]) == 0

    def test_local_and_congest_algorithms(self, capsys):
        for algorithm in ("local", "congest"):
            rc = main([
                "build", "--random", "18", "--p", "0.3",
                "--algorithm", algorithm, "-k", "2", "-f", "1",
            ])
            assert rc == 0
            assert "rounds" in capsys.readouterr().out

    def test_build_needs_source(self):
        with pytest.raises(SystemExit):
            main(["build", "-k", "2"])

    def test_build_rejects_both_sources(self, graph_file):
        with pytest.raises(SystemExit):
            main(["build", "--input", str(graph_file), "--random", "10"])


class TestVerify:
    def test_verify_valid_spanner(self, graph_file, tmp_path, capsys):
        out_path = tmp_path / "spanner.txt"
        main(["build", "--input", str(graph_file), "-k", "2", "-f", "1",
              "--output", str(out_path)])
        rc = main([
            "verify", str(graph_file), str(out_path), "-t", "3", "-f", "1",
        ])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_catches_bad_spanner(self, graph_file, tmp_path, capsys):
        g = graph_io.load(graph_file)
        bad = g.spanning_skeleton()
        bad_path = tmp_path / "bad.txt"
        graph_io.save(bad, bad_path)
        rc = main([
            "verify", str(graph_file), str(bad_path), "-t", "3", "-f", "0",
        ])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().out

    def test_verify_witness_mode(self, graph_file, tmp_path, capsys):
        out_path = tmp_path / "spanner.txt"
        main(["build", "--input", str(graph_file), "-k", "2", "-f", "1",
              "--output", str(out_path)])
        capsys.readouterr()
        rc = main([
            "verify", str(graph_file), str(out_path), "-t", "3", "-f", "1",
            "--mode", "witness",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "witnessed" in out and "OK" in out

    def test_verify_witness_catches_bad_spanner(
        self, graph_file, tmp_path, capsys
    ):
        g = graph_io.load(graph_file)
        bad = g.spanning_skeleton()
        bad_path = tmp_path / "bad.txt"
        graph_io.save(bad, bad_path)
        rc = main([
            "verify", str(graph_file), str(bad_path), "-t", "3", "-f", "1",
            "--mode", "witness",
        ])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().out


class TestAlgorithmsSubcommand:
    def test_lists_verification_modes(self, capsys):
        rc = main(["algorithms"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verification modes" in out
        assert "witness" in out and "sweep" in out

    def test_lists_every_registered_algorithm(self, capsys):
        from repro.registry import algorithm_names

        rc = main(["algorithms"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in algorithm_names():
            assert name in out
        assert "stretch 2k-1" in out
        assert "faults: vertex" in out          # capability column
        assert "backends" not in out

    def test_verbose_adds_summaries(self, capsys):
        rc = main(["algorithms", "--verbose"])
        assert rc == 0
        assert "modified greedy" in capsys.readouterr().out


class TestCapabilityErrors:
    """The registry surfaces what the lambda table silently dropped."""

    def test_f_below_algorithm_minimum_is_an_error(self):
        with pytest.raises(SystemExit, match="requires f >= 1"):
            main(["build", "--random", "16", "--p", "0.3",
                  "--algorithm", "dk", "-f", "0"])

    def test_edge_model_rejected_for_vertex_only_algorithm(self):
        with pytest.raises(SystemExit, match="edge fault model"):
            main(["build", "--random", "16", "--p", "0.3",
                  "--algorithm", "dk", "--fault-model", "edge"])

    def test_non_ft_algorithm_notes_ignored_f(self, capsys):
        rc = main(["build", "--random", "16", "--p", "0.3",
                   "--algorithm", "classic", "-f", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "not fault-tolerant" in out
        assert "f=0" in out

    def test_non_ft_algorithm_notes_ignored_fault_model(self, capsys):
        rc = main(["build", "--random", "16", "--p", "0.3",
                   "--algorithm", "classic", "-f", "0",
                   "--fault-model", "edge"])
        assert rc == 0
        assert "ignoring --fault-model edge" in capsys.readouterr().out

    def test_default_fault_model_gets_no_note(self, capsys):
        rc = main(["build", "--random", "16", "--p", "0.3",
                   "--algorithm", "classic", "-f", "0"])
        assert rc == 0
        assert "--fault-model" not in capsys.readouterr().out

    def test_seed_note_for_deterministic_algorithm_with_file(
        self, graph_file, capsys
    ):
        rc = main(["build", "--input", str(graph_file), "-k", "2",
                   "-f", "1", "--seed", "7"])
        assert rc == 0
        assert "deterministic" in capsys.readouterr().out

    def test_no_seed_note_with_verify(self, graph_file, capsys):
        # With --verify the seed drives the sampled sweep, so it is not
        # inert and must not be flagged.
        rc = main(["build", "--input", str(graph_file), "-k", "2",
                   "-f", "1", "--seed", "7", "--verify"])
        assert rc == 0
        assert "deterministic" not in capsys.readouterr().out

    def test_no_seed_note_when_seed_feeds_generation(self, capsys):
        rc = main(["build", "--random", "16", "--p", "0.3", "--seed", "7"])
        assert rc == 0
        assert "deterministic" not in capsys.readouterr().out


class TestInfoAndDemo:
    def test_info(self, graph_file, capsys):
        rc = main(["info", str(graph_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nodes:" in out
        assert "edges:" in out
        assert "hop diameter" in out

    def test_demo(self, capsys):
        rc = main(["demo"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verification" in out
        assert "OK" in out


class TestEnginePolicyOnCli:
    @pytest.fixture(params=["int", "float"])
    def weighted_file(self, request, tmp_path):
        g = generators.ensure_connected(
            generators.with_random_weights(
                generators.gnp_random_graph(20, 0.3, seed=5),
                low=1.0, high=8.0, seed=5,
                integral=request.param == "int",
            ),
            seed=5,
        )
        path = tmp_path / "wg.txt"
        graph_io.save(g, path)
        return path

    @pytest.mark.parametrize("mode", ["sweep", "witness"])
    def test_build_verify_and_verify_on_weighted_files(
        self, weighted_file, mode, tmp_path, capsys
    ):
        out_path = tmp_path / "spanner.txt"
        rc = main(["build", "--input", str(weighted_file), "-k", "2",
                   "-f", "1", "--verify", "--output", str(out_path)])
        assert rc == 0
        assert "OK" in capsys.readouterr().out
        rc = main(["verify", str(weighted_file), str(out_path),
                   "-t", "3", "-f", "1", "--mode", mode])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_oracle_on_weighted_file(self, weighted_file, capsys):
        rc = main(["oracle", "--input", str(weighted_file), "-f", "1",
                   "--pairs", "10", "--scenarios", "2"])
        assert rc == 0
        assert "reachable under faults" in capsys.readouterr().out

    def test_serve_on_weighted_file(self, weighted_file, capsys):
        # The workers adopt the weighted snapshot and must answer like
        # the in-process sweep (the command's own parity audit).
        rc = main(["serve", "--input", str(weighted_file), "-f", "1",
                   "--workers", "2", "--requests", "8", "--rate", "200",
                   "--pairs", "8"])
        assert rc == 0
        assert "parity vs in-process sweep: OK" in capsys.readouterr().out

    @pytest.mark.parametrize("weights", ["unit", "int", "float"])
    def test_churn_across_profiles(self, weights, capsys):
        # Weighted churn on a unit base moves the held oracle's
        # snapshot to another policy row mid-stream.
        rc = main(["churn", "--random", "40", "--p", "0.15",
                   "--steps", "30", "--window", "8", "--batch", "10",
                   "--probes", "3", "--weights", weights])
        assert rc == 0
        assert "identical (OK)" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["build", "--random", "10"],
        ["verify", "g.txt", "h.txt", "-t", "3"],
        ["oracle", "--random", "10"],
        ["serve", "--random", "10"],
        ["churn", "--random", "10"],
    ])
    def test_search_flag_is_gone(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--search", "auto"])
        assert exc.value.code == 2
        assert "--search" in capsys.readouterr().err

    def test_algorithms_prints_the_policy_table(self, capsys):
        from repro.graph.traversal import HAVE_NUMPY

        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "engine policy" in out
        rows = {
            line.split()[0]: line.split()[1:] for line in out.splitlines()
            if line.split()[:1] in (["unit"], ["int"], ["float"])
        }
        assert rows == {
            "unit": ["bfs", "bfs", "bucket", "bfs"],
            "int": ["bucket", "bidir", "bucket", "loop"],
            "float": ["heap", "heap", "heap", "loop"],
        }
        assert ("numpy: importable" if HAVE_NUMPY
                else "numpy: NOT importable") in out


class TestWeightedCapabilityOnCli:
    def test_weighted_file_to_unit_only_algorithm_is_clean_error(
        self, tmp_path
    ):
        g = generators.ensure_connected(
            generators.weighted_gnp(16, 0.35, seed=3), seed=3
        )
        path = tmp_path / "wg.txt"
        graph_io.save(g, path)
        with pytest.raises(SystemExit, match="unit-weight"):
            main(["build", "--input", str(path), "-k", "2", "-f", "1",
                  "--algorithm", "incremental"])

    def test_incremental_builds_on_unit_input(self, graph_file, capsys):
        rc = main(["build", "--input", str(graph_file), "-k", "2",
                   "-f", "1", "--algorithm", "incremental"])
        assert rc == 0
        assert "incremental-greedy" in capsys.readouterr().out

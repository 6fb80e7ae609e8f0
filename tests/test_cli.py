"""Tests for the command-line interface."""

import pytest

from repro.cli import EXIT_USER_ERROR, build_parser, main
from repro.data.database import TransactionDatabase
from repro.data.io import read_fimi
from repro.datasets import DATASETS, load


@pytest.fixture
def fimi_file(tmp_path):
    path = tmp_path / "data.fimi"
    path.write_text("1 2 3\n1 2\n1 2 4\n2 3\n")
    return str(path)


class TestMineCommand:
    def test_mine_to_stdout(self, fimi_file, capsys):
        assert main(["mine", fimi_file, "-s", "2"]) == 0
        out = capsys.readouterr().out
        assert "1 2 (3)" in out

    def test_mine_to_file(self, fimi_file, tmp_path):
        out_path = tmp_path / "out.txt"
        main(["mine", fimi_file, "-s", "2", "-o", str(out_path)])
        assert "1 2 (3)" in out_path.read_text()

    def test_all_algorithms_give_same_line_count(self, fimi_file, tmp_path, capsys):
        counts = set()
        for algorithm in ("ista", "carpenter-table", "lcm", "fpgrowth"):
            main(["mine", fimi_file, "-s", "2", "-a", algorithm])
            counts.add(len(capsys.readouterr().out.strip().splitlines()))
        assert len(counts) == 1

    def test_stats_flag(self, fimi_file, capsys):
        main(["mine", fimi_file, "-s", "2", "--stats"])
        err = capsys.readouterr().err
        assert "item sets in" in err
        assert "counters" in err

    def test_maximal_target(self, fimi_file, capsys):
        main(["mine", fimi_file, "-s", "2", "-t", "maximal"])
        out = capsys.readouterr().out
        assert out.strip()

    def test_bad_algorithm_exits(self, fimi_file):
        with pytest.raises(SystemExit):
            main(["mine", fimi_file, "-s", "2", "-a", "bogus"])

    def test_backend_flag(self, fimi_file, capsys):
        baseline = None
        for backend in ("bitint", "numpy"):
            main(["mine", fimi_file, "-s", "2", "--backend", backend])
            out = capsys.readouterr().out
            if baseline is None:
                baseline = out
            assert out == baseline

    def test_bad_backend_exits(self, fimi_file):
        with pytest.raises(SystemExit):
            main(["mine", fimi_file, "-s", "2", "--backend", "cuda"])

    def test_workers_flag_matches_serial(self, fimi_file, capsys):
        main(["mine", fimi_file, "-s", "2"])
        serial = capsys.readouterr().out
        main(["mine", fimi_file, "-s", "2", "--workers", "2", "--shard", "items"])
        assert capsys.readouterr().out == serial

    def test_workers_incompatible_with_target_all(self, fimi_file, capsys):
        code = main(["mine", fimi_file, "-s", "2", "--workers", "2", "-t", "all"])
        assert code == 2
        assert "closed" in capsys.readouterr().err

    def test_workers_incompatible_with_fallback(self, fimi_file, capsys):
        code = main(["mine", fimi_file, "-s", "2", "--workers", "2", "--fallback"])
        assert code == 2
        assert "--fallback" in capsys.readouterr().err


class TestGenCommand:
    def test_generate_writes_fimi(self, tmp_path, capsys):
        out_path = tmp_path / "gen.fimi"
        code = main([
            "gen", "baskets", "-o", str(out_path),
            "--option", "n_transactions=20", "--option", "n_items=15",
        ])
        assert code == 0
        db = read_fimi(out_path)
        assert db.n_transactions == 20

    def test_float_and_string_options_parsed(self, tmp_path):
        out_path = tmp_path / "gen.fimi"
        main([
            "gen", "baskets", "-o", str(out_path),
            "--option", "n_transactions=10",
            "--option", "corruption=0.1",
        ])
        assert read_fimi(out_path).n_transactions == 10

    def test_tuple_labels_round_trip_through_fimi(self, tmp_path):
        out_path = tmp_path / "yeast.fimi"
        options = {"n_genes": 300, "n_conditions": 40}
        argv = ["gen", "yeast", "-o", str(out_path)]
        for key, value in options.items():
            argv += ["--option", f"{key}={value}"]
        assert main(argv) == 0
        generated = load("yeast", **options)
        rows = [{gene + sign for gene, sign in row} for row in generated.as_sets()]
        db = read_fimi(out_path)
        assert db.n_items == len(set().union(*rows))
        assert [set(row) for row in db.as_sets()] == rows

    def test_colliding_label_renderings_refused(self, tmp_path, monkeypatch, capsys):
        labels = [("g1", "1+"), ("g11", "+")]
        monkeypatch.setitem(
            DATASETS,
            "colliding",
            lambda: TransactionDatabase.from_iterable([labels], item_order=labels),
        )
        out_path = tmp_path / "x.fimi"
        assert main(["gen", "colliding", "-o", str(out_path)]) == EXIT_USER_ERROR
        assert "'g11+'" in capsys.readouterr().err
        assert not out_path.exists()

    def test_bad_option_syntax_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="KEY=VALUE"):
            main(["gen", "baskets", "-o", str(tmp_path / "x"), "--option", "oops"])


class TestStatsCommand:
    def test_stats_without_mining(self, fimi_file, capsys):
        assert main(["stats", fimi_file]) == 0
        out = capsys.readouterr().out
        assert "4 transactions over 4 items" in out

    def test_stats_with_family_profile(self, fimi_file, capsys):
        main(["stats", fimi_file, "-s", "2"])
        out = capsys.readouterr().out
        assert "closed family at smin=2" in out


class TestRulesCommand:
    def test_rules(self, fimi_file, capsys):
        assert main(["rules", fimi_file, "-s", "2", "-c", "0.6"]) == 0
        captured = capsys.readouterr()
        assert "->" in captured.out
        assert "rules from" in captured.err

    def test_non_redundant_rules(self, fimi_file, capsys):
        assert main(["rules", fimi_file, "-s", "2", "--non-redundant"]) == 0
        assert "rules from" in capsys.readouterr().err


class TestArffInterop:
    def test_gen_arff_and_mine_it(self, tmp_path, capsys):
        out_path = tmp_path / "toy.arff"
        main([
            "gen", "baskets", "-o", str(out_path),
            "--option", "n_transactions=15", "--option", "n_items=10",
        ])
        capsys.readouterr()
        assert out_path.read_text().startswith("@relation baskets")
        assert main(["mine", str(out_path), "-s", "3"]) == 0


class TestBenchCommand:
    def test_bench_runs_scaled_down(self, capsys):
        code = main([
            "bench", "fig6-ncbi60", "--scale", "0.15", "--time-limit", "15",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "smin" in out

    def test_parser_structure(self):
        parser = build_parser()
        args = parser.parse_args(["mine", "x.fimi", "-s", "3"])
        assert args.command == "mine"
        assert args.smin == 3


class TestBackendsCommand:
    def test_text_report_exits_zero(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "registered backends:" in out
        assert "bitint" in out
        assert "selection:" in out

    def test_json_report(self, capsys):
        import json

        from repro.kernels import HAVE_NATIVE

        assert main(["backends", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "bitint" in payload["registered"]
        assert "native" in payload["selectable"]
        assert payload["native_built"] == HAVE_NATIVE
        assert payload["selection"]["resolved"] in payload["registered"]

    def test_environment_selection_reported(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "environment (REPRO_KERNEL_BACKEND)" in out
        assert "-> numpy" in out

    def test_unknown_env_backend_still_exits_zero(self, capsys, monkeypatch):
        # Diagnostic, not health check: a broken environment variable
        # is exactly what the verb exists to explain.
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "fortran")
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "-> None" in out

    def test_native_flag_accepted_everywhere(self, fimi_file, capsys):
        # 'native' stays a valid --backend value even when the
        # extension is not built (it resolves down the fallback chain).
        assert main(["mine", fimi_file, "-s", "2", "--backend", "native"]) == 0
        out = capsys.readouterr().out
        assert "1 2 (3)" in out

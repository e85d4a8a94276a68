"""CLI tests: each subcommand exercised through main()."""

import json

import pytest

from repro.cli import main
from repro.storage import ResultStore


class TestGenerate:
    def test_generate_writes_files_and_gold(self, tmp_path, capsys):
        code = main([
            "generate", "--count", "8", "--seed", "1",
            "--output", str(tmp_path),
        ])
        assert code == 0
        assert len(list(tmp_path.glob("patient_*.txt"))) == 8
        gold = json.loads((tmp_path / "gold.json").read_text())
        assert len(gold) == 8
        assert "numeric" in gold[0]

    def test_generate_paper_spec_at_fifty(self, tmp_path):
        main([
            "generate", "--count", "50", "--seed", "1",
            "--output", str(tmp_path),
        ])
        gold = json.loads((tmp_path / "gold.json").read_text())
        smoking = [g["categorical"]["smoking"] for g in gold]
        assert smoking.count(None) == 5

    def test_varied_style(self, tmp_path):
        code = main([
            "generate", "--count", "6", "--style", "varied",
            "--level", "1.0", "--output", str(tmp_path),
        ])
        assert code == 0


class TestExtract:
    @pytest.fixture
    def notes(self, tmp_path):
        out = tmp_path / "notes"
        main(["generate", "--count", "8", "--seed", "2",
              "--output", str(out)])
        return out

    def test_extract_with_gold(self, notes, tmp_path):
        db = tmp_path / "study.db"
        code = main([
            "extract", "--input", str(notes),
            "--gold", str(notes / "gold.json"), "--db", str(db),
        ])
        assert code == 0
        store = ResultStore(db)
        assert len(store.patients()) == 8
        assert store.categorical_value(store.patients()[0], "smoking") \
            is not None or True  # smoking may be missing for a record

    def test_extract_trace_and_replay(self, notes, tmp_path, capsys):
        db = tmp_path / "study.db"
        trace = tmp_path / "trace.jsonl"
        code = main([
            "extract", "--input", str(notes),
            "--gold", str(notes / "gold.json"), "--db", str(db),
            "--trace", str(trace),
        ])
        assert code == 0
        lines = [
            json.loads(line)
            for line in trace.read_text().splitlines()
        ]
        assert lines[0]["type"] == "manifest"
        assert sum(1 for l in lines if l["type"] == "span") == 8
        assert ResultStore(db).missing_provenance() == []
        capsys.readouterr()

        assert main(["trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "manifest:" in out
        assert "8 record span trees" in out

        record = lines[1]["name"]
        assert main(["trace", str(trace), "--record", record]) == 0
        out = capsys.readouterr().out
        assert f"record '{record}'" in out

    def test_trace_unknown_record_is_nonzero(self, notes, tmp_path):
        db = tmp_path / "study.db"
        trace = tmp_path / "trace.jsonl"
        main([
            "extract", "--input", str(notes), "--db", str(db),
            "--trace", str(trace),
        ])
        assert main(
            ["trace", str(trace), "--record", "no-such-id"]
        ) != 0

    def test_model_save_and_reuse(self, notes, tmp_path):
        models = tmp_path / "models"
        db1 = tmp_path / "a.db"
        db2 = tmp_path / "b.db"
        code = main([
            "extract", "--input", str(notes),
            "--gold", str(notes / "gold.json"),
            "--db", str(db1), "--models", str(models),
        ])
        assert code == 0
        assert len(list(models.glob("*.json"))) == 12
        # Second run: no gold, models loaded from disk.
        code = main([
            "extract", "--input", str(notes),
            "--models", str(models), "--db", str(db2),
        ])
        assert code == 0
        a = ResultStore(db1)
        b = ResultStore(db2)
        for pid in a.patients():
            assert a.categorical_value(pid, "smoking") == \
                b.categorical_value(pid, "smoking")

    def test_csv_export_flag(self, notes, tmp_path):
        csv_path = tmp_path / "out.csv"
        code = main([
            "extract", "--input", str(notes),
            "--gold", str(notes / "gold.json"),
            "--db", str(tmp_path / "c.db"), "--csv", str(csv_path),
        ])
        assert code == 0
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert "patient_id" in header and "smoking" in header

    def test_extract_parallel_with_stats(self, notes, tmp_path, capsys):
        db = tmp_path / "parallel.db"
        code = main([
            "extract", "--input", str(notes), "--db", str(db),
            "--workers", "2", "--stats",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert len(ResultStore(db).patients()) == 8
        assert "records/s" in out
        assert "parse cache" in out
        assert "prune ratio" in out

    def test_parallel_matches_serial_extract(self, notes, tmp_path):
        serial_db = tmp_path / "serial.db"
        parallel_db = tmp_path / "parallel.db"
        main(["extract", "--input", str(notes), "--db", str(serial_db)])
        main(["extract", "--input", str(notes), "--db", str(parallel_db),
              "--workers", "2", "--chunk-size", "2"])
        a, b = ResultStore(serial_db), ResultStore(parallel_db)
        assert a.patients() == b.patients()
        for pid in a.patients():
            assert a.numeric_value(pid, "pulse") == \
                b.numeric_value(pid, "pulse")

    def test_extract_without_gold_skips_categorical(
        self, notes, tmp_path
    ):
        db = tmp_path / "study.db"
        code = main([
            "extract", "--input", str(notes), "--db", str(db),
        ])
        assert code == 0
        store = ResultStore(db)
        pid = store.patients()[0]
        assert store.categorical_value(pid, "smoking") is None
        assert store.numeric_value(pid, "pulse") is not None


    def test_duplicate_patient_ids_rejected_before_extraction(
        self, notes, tmp_path, capsys, monkeypatch
    ):
        import shutil

        from repro.runtime.resilience import ResilientCorpusRunner

        first = sorted(notes.glob("*.txt"))[0]
        shutil.copy(first, notes / "zz_copy.txt")

        def no_extraction(self, records):
            raise AssertionError("extraction ran on a bad corpus")

        monkeypatch.setattr(ResilientCorpusRunner, "run", no_extraction)
        db = tmp_path / "dup.db"
        code = main(["extract", "--input", str(notes), "--db", str(db)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert not db.exists()
        record_id = first.stem.split("_", 1)[1]
        assert err == [
            f"error: duplicate patient id {record_id!r} in "
            f"{first.name} and zz_copy.txt"
        ]


class TestEvaluateFloors:
    """``evaluate --style-matrix --floors`` gates at every seed; only
    the consistent-baseline comparison is specific to seed 42."""

    @pytest.fixture
    def canned(self, monkeypatch):
        from pathlib import Path

        import repro.eval

        results = json.loads(
            (Path(__file__).parents[1] / "EVAL_styles.json").read_text()
        )
        monkeypatch.setattr(
            repro.eval, "run_style_matrix", lambda seed: results
        )

    def _evaluate(self, tmp_path, seed, floor):
        floors = tmp_path / "floors.json"
        floors.write_text(json.dumps(
            {"packs": {"consistent": {"smoking_accuracy": floor}}}
        ))
        return main([
            "evaluate", "--style-matrix", "--seed", str(seed),
            "--output", str(tmp_path / "styles.json"),
            "--floors", str(floors),
        ])

    def test_unreachable_floor_fails_off_seed_42(
        self, canned, tmp_path, capsys
    ):
        assert self._evaluate(tmp_path, seed=7, floor=1.01) == 1
        err = capsys.readouterr().err
        assert "baseline gate applies to --seed 42 only" in err
        assert "floor violation: consistent" in err

    def test_met_floor_passes_off_seed_42(self, canned, tmp_path, capsys):
        assert self._evaluate(tmp_path, seed=7, floor=0.5) == 0
        assert "floors: all pass" in capsys.readouterr().out


class TestParse:
    def test_parse_prints_diagram(self, capsys):
        code = main(["parse", "She has never smoked."])
        captured = capsys.readouterr().out
        assert code == 0
        assert "LEFT-WALL" in captured
        assert "PP" in captured

    def test_parse_failure_is_nonzero(self, capsys):
        code = main(["parse", "Blood pressure: 144/90"])
        assert code == 1
        assert "no linkage" in capsys.readouterr().out

    def test_parse_all_linkages(self, capsys):
        code = main(["parse", "--all", "She quit smoking."])
        assert code == 0
        assert "linkage 1/" in capsys.readouterr().out


class TestAnalyze:
    def test_analyze_prints_tokens_and_numbers(self, capsys):
        code = main(["analyze", "Pulse of 84."])
        out = capsys.readouterr().out
        assert code == 0
        assert "Pulse" in out and "84" in out
        assert "number:" in out


class TestResilienceCLI:
    @pytest.fixture
    def notes(self, tmp_path):
        out = tmp_path / "notes"
        main(["generate", "--count", "8", "--seed", "3",
              "--output", str(out)])
        return out

    def test_injected_poison_quarantined(self, notes, tmp_path,
                                         capsys):
        db = tmp_path / "faulted.db"
        code = main([
            "extract", "--input", str(notes), "--db", str(db),
            "--inject-faults", "raise@2", "--run-id", "r1",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "quarantined record" in err
        store = ResultStore(db)
        assert len(store.patients()) == 7
        rows = store.quarantined(run_id="r1")
        assert [r["error_type"] for r in rows] == ["InjectedFailure"]

    def test_interrupt_then_resume_bit_identical(self, notes,
                                                 tmp_path, capsys):
        plain = tmp_path / "plain.db"
        assert main([
            "extract", "--input", str(notes), "--db", str(plain),
        ]) == 0

        db = tmp_path / "resumed.db"
        code = main([
            "extract", "--input", str(notes), "--db", str(db),
            "--inject-faults", "interrupt@5", "--run-id", "r2",
        ])
        assert code == 130
        assert "--resume r2" in capsys.readouterr().err
        assert not db.exists()  # only the journal survived

        assert main([
            "extract", "--input", str(notes), "--db", str(db),
            "--resume", "r2",
        ]) == 0
        assert db.read_bytes() == plain.read_bytes()

    def test_worker_kill_survived(self, notes, tmp_path):
        db = tmp_path / "killed.db"
        code = main([
            "extract", "--input", str(notes), "--db", str(db),
            "--inject-faults", "kill@3", "--workers", "2",
        ])
        assert code == 0
        store = ResultStore(db)
        assert len(store.patients()) == 8
        assert store.quarantined() == []

    def test_bad_fault_spec_is_exit_2(self, notes, tmp_path, capsys):
        code = main([
            "extract", "--input", str(notes),
            "--db", str(tmp_path / "x.db"),
            "--inject-faults", "explode@nowhere",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_hostile_corpus_through_cli(self, hostile_corpus,
                                        tmp_path):
        from repro.records import save_records

        notes = tmp_path / "hostile"
        save_records(hostile_corpus, notes)
        db = tmp_path / "hostile.db"
        code = main([
            "extract", "--input", str(notes), "--db", str(db),
        ])
        assert code == 0
        assert len(ResultStore(db).patients()) == len(hostile_corpus)

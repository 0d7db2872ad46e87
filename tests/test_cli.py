"""Tests for the command-line interface (in-process, short runs)."""

import pytest

from repro.cli import main
from repro.harness import runs_from_csv


COMMON = ["--duration", "0.8", "--replicates", "1", "--seed", "3"]


def test_fig9_runs_and_prints(capsys, tmp_path):
    out_file = tmp_path / "fig9.txt"
    csv_file = tmp_path / "fig9.csv"
    code = main(
        ["fig9", "--consumers", "2", *COMMON, "--out", str(out_file), "--csv", str(csv_file)]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "Figure 9" in captured
    assert "PBPL" in captured
    assert out_file.exists()
    assert "implementation" in csv_file.read_text().splitlines()[0]


def test_accounting_runs(capsys):
    assert main(["accounting", *COMMON]) == 0
    assert "wakeup accounting" in capsys.readouterr().out


def test_accounting_csv_holds_every_run(capsys, tmp_path):
    csv_file = tmp_path / "accounting.csv"
    assert main(["accounting", *COMMON, "--csv", str(csv_file)]) == 0
    runs = runs_from_csv(csv_file)
    assert [(r.implementation, r.buffer_size) for r in runs] == [
        ("PBPL", 25),
        ("BP", 25),
    ]


def test_sanity_passes(capsys):
    assert main(["sanity", *COMMON]) == 0
    assert "PASS" in capsys.readouterr().out


def test_trace_generate_and_inspect(capsys, tmp_path):
    path = tmp_path / "t.npz"
    assert (
        main(
            [
                "trace",
                "generate",
                "--kind",
                "poisson",
                "--rate",
                "500",
                "--duration",
                "2.0",
                "-o",
                str(path),
            ]
        )
        == 0
    )
    assert path.exists()
    capsys.readouterr()
    assert main(["trace", "inspect", str(path)]) == 0
    out = capsys.readouterr().out
    assert "mean rate" in out
    assert "500" in out


def test_trace_inspect_clf(capsys, tmp_path):
    log = tmp_path / "access.log"
    log.write_text(
        'h - - [30/Apr/1998:21:30:17 +0000] "GET /a HTTP/1.0" 200 1\n'
        'h - - [30/Apr/1998:21:30:19 +0000] "GET /b HTTP/1.0" 200 1\n'
    )
    assert main(["trace", "inspect", str(log)]) == 0
    assert "items     : 2" in capsys.readouterr().out


def test_tune_reports_knee(capsys):
    code = main(
        [
            "tune",
            "--consumers",
            "2",
            "--candidates_ms",
            "5,10",
            *COMMON,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "suggested Δ" in out
    assert "◀ best" in out


def test_tune_csv_holds_every_probe_run(capsys, tmp_path):
    csv_file = tmp_path / "tune.csv"
    argv = ["tune", "--consumers", "2", "--candidates_ms", "5,10", *COMMON]
    assert main([*argv, "--csv", str(csv_file)]) == 0
    runs = runs_from_csv(csv_file)
    assert [(r.implementation, r.n_consumers) for r in runs] == [("PBPL", 2)] * 2
    assert runs[0].core_wakeups_per_s != runs[1].core_wakeups_per_s


def test_waveform_renders(capsys):
    assert (
        main(
            [
                "waveform",
                "--impl",
                "BP",
                "--consumers",
                "2",
                "--window_s",
                "0.1",
                *COMMON,
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "power waveform" in out
    assert "wakeup impulses" in out
    assert "█" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["nope"])


def test_bad_counts_rejected():
    with pytest.raises(SystemExit):
        main(["fig10", "--counts", "a,b"])


@pytest.mark.slow
def test_fig10_tiny_grid(capsys):
    assert main(["fig10", "--counts", "2,3", *COMMON]) == 0
    out = capsys.readouterr().out
    assert "2 consumers" in out and "3 consumers" in out


def test_chaos_smoke_runs_and_passes(capsys, tmp_path):
    out_file = tmp_path / "resilience.md"
    code = main(
        [
            "chaos",
            "--smoke",
            "--consumers",
            "2",
            *COMMON,
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "# Resilience report" in captured
    assert "| combined |" in captured
    assert out_file.exists()


def test_chaos_json_mode(capsys):
    import json

    code = main(["chaos", "--smoke", "--consumers", "2", "--json", *COMMON])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert {s["scenario"] for s in payload["scenarios"]} == {
        "clean",
        "lost-signals",
        "combined",
    }


def test_chaos_reports_are_seed_deterministic(capsys):
    args = ["chaos", "--smoke", "--consumers", "2", "--json", *COMMON]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_sanity_json_mode(capsys):
    import json

    assert main(["sanity", "--json", *COMMON]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 4


def test_chaos_baselines_table(capsys):
    code = main(
        ["chaos", "--smoke", "--baselines", "--consumers", "2",
         "--duration", "0.5", "--replicates", "1", "--seed", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "## Baseline degradation" in out
    for impl in ("Mutex", "Sem", "BP", "SPBP"):
        assert f"| {impl} |" in out
    assert "## Worst consumer per scenario" in out


def test_trace_record_writes_perfetto_json(capsys, tmp_path):
    import json

    out = tmp_path / "trace.json"
    text = tmp_path / "trace.txt"
    code = main(
        ["trace", "record", "--duration", "0.3", "--impl", "PBPL",
         "--scenario", "clean", "-o", str(out), "--text", str(text)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["traceEvents"]
    assert text.read_text().splitlines()
    printed = capsys.readouterr().out
    assert "events" in printed and "diff" in printed


def test_trace_record_rejects_unknown_scenario(tmp_path):
    with pytest.raises(ValueError, match="unknown scenario"):
        main(["trace", "record", "--scenario", "nope",
              "-o", str(tmp_path / "t.json")])


def test_trace_smoke_gate(capsys, tmp_path):
    artifact = tmp_path / "smoke.json"
    code = main(["trace", "--smoke", "-o", str(artifact)])
    assert code == 0
    out = capsys.readouterr().out
    assert "trace smoke: OK" in out
    assert artifact.exists()


def test_trace_without_subcommand_or_smoke_errors(capsys):
    assert main(["trace"]) == 2
    assert "choose a subcommand" in capsys.readouterr().err


RECORD_SHORT = ["trace", "record", "--duration", "0.2", "--consumers", "2",
                "--scenario", "clean"]


def test_trace_record_stream_writes_jsonl(capsys, tmp_path):
    from repro.trace import read_trace

    out = tmp_path / "t.jsonl"
    assert main([*RECORD_SHORT, "--stream", "-o", str(out)]) == 0
    events, reader = read_trace(out)
    assert events
    assert reader.header["schema_version"] == "1.0"
    assert reader.meta["impl"] == "PBPL"
    assert reader.footer["events"] == len(events)
    assert "streamed" in capsys.readouterr().out


def test_trace_record_stream_survives_ring_overflow(capsys, tmp_path):
    from repro.trace import read_trace

    out = tmp_path / "o.jsonl"
    assert main([*RECORD_SHORT, "--stream", "--capacity", "50",
                 "-o", str(out)]) == 0
    events, reader = read_trace(out)
    assert len(events) > 50  # more than the ring could hold
    assert reader.footer["dropped"] > 0
    assert "dropped" in capsys.readouterr().out


def test_trace_record_to_stdout_keeps_pipe_clean(capsys):
    import json

    assert main([*RECORD_SHORT, "-o", "-"]) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)  # stdout is exactly the trace JSON
    assert "events" in captured.err  # summary moved to stderr


def test_trace_record_stream_to_stdout(capsys):
    import json

    assert main([*RECORD_SHORT, "--stream", "-o", "-"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == "repro.trace"
    assert "footer" in json.loads(lines[-1])
    assert "streamed" in captured.err


def test_trace_record_rejects_unwritable_dir_before_running(capsys, tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "t.json"
    assert main([*RECORD_SHORT, "-o", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "does not exist" in err


def test_trace_diff_identical_and_changed(capsys, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    c = tmp_path / "c.jsonl"
    assert main([*RECORD_SHORT, "--stream", "-o", str(a)]) == 0
    assert main([*RECORD_SHORT, "--stream", "-o", str(b)]) == 0
    assert main(["trace", "record", "--duration", "0.2", "--consumers", "2",
                 "--scenario", "clean", "--seed", "99", "--stream",
                 "-o", str(c)]) == 0
    capsys.readouterr()
    assert main(["trace", "diff", str(a), str(b)]) == 0
    assert "no structural or energy drift" in capsys.readouterr().out
    assert main(["trace", "diff", str(a), str(c)]) == 1
    out = capsys.readouterr().out
    assert "consumer-" in out  # names the affected consumers


def test_trace_diff_json_mode(capsys, tmp_path):
    import json

    a = tmp_path / "a.jsonl"
    assert main([*RECORD_SHORT, "--stream", "-o", str(a)]) == 0
    capsys.readouterr()
    assert main(["trace", "diff", str(a), str(a), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["empty"] is True


def test_trace_diff_unreadable_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not a trace\n")
    with pytest.raises(SystemExit):
        main(["trace", "diff", str(bad), str(bad)])


def test_trace_report_renders_flamegraph(capsys, tmp_path):
    trace = tmp_path / "t.jsonl"
    report = tmp_path / "report.txt"
    assert main([*RECORD_SHORT, "--stream", "-o", str(trace)]) == 0
    capsys.readouterr()
    assert main(["trace", "report", str(trace), "--top", "5",
                 "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert "trace report — PBPL × clean" in out
    assert "self ms" in out and "joules" in out
    assert "top wakeup causes" in out
    assert "ledger total" in out
    assert "trace report — PBPL × clean" in report.read_text()


def test_trace_bless_writes_golden_spec(capsys, tmp_path):
    from repro.cli import GOLDEN_SPEC
    from repro.trace import read_trace

    out = tmp_path / "golden.jsonl"
    assert main(["trace", "bless", "--name", "pbpl_smoke", "-o", str(out)]) == 0
    events, reader = read_trace(out)
    assert reader.meta["impl"] == GOLDEN_SPEC["impl"]
    assert reader.meta["seed"] == GOLDEN_SPEC["seed"]
    assert events
    assert "blessed" in capsys.readouterr().out


def test_trace_bless_matrix_writes_every_golden(capsys, tmp_path):
    from repro.cli import GOLDEN_SPECS
    from repro.trace import read_trace

    assert main(["trace", "bless", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    for name, spec in GOLDEN_SPECS.items():
        path = tmp_path / f"{name}.trace.jsonl"
        assert path.exists()
        _events, reader = read_trace(path)
        assert reader.meta["impl"] == spec["impl"]
        assert reader.meta["scenario"] == spec["scenario"]
    assert out.count("blessed") == len(GOLDEN_SPECS)


def test_trace_bless_output_needs_a_single_name(capsys, tmp_path):
    assert main(["trace", "bless", "-o", str(tmp_path / "g.jsonl")]) == 2
    assert "--name" in capsys.readouterr().err


def test_trace_report_window(capsys, tmp_path):
    trace = tmp_path / "t.jsonl"
    assert main([*RECORD_SHORT, "--stream", "-o", str(trace)]) == 0
    capsys.readouterr()
    assert main(
        ["trace", "report", str(trace), "--from", "0.1", "--to", "0.2"]
    ) == 0
    out = capsys.readouterr().out
    assert "[0.1, 0.2)s" in out
    # Windowed totals cannot reconcile against the full-run ledger.
    assert "ledger total" not in out


def test_trace_report_rejects_empty_window(capsys, tmp_path):
    trace = tmp_path / "t.jsonl"
    assert main([*RECORD_SHORT, "--stream", "-o", str(trace)]) == 0
    capsys.readouterr()
    assert main(
        ["trace", "report", str(trace), "--from", "0.2", "--to", "0.1"]
    ) == 2
    assert "--to must be after --from" in capsys.readouterr().err


def test_chaos_scenario_filter(capsys):
    assert (
        main(
            ["chaos", "--scenarios", "clean,burst", "--duration", "0.4",
             "--consumers", "2"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "| clean |" in out and "| burst |" in out
    assert "| stall |" not in out


def test_chaos_rejects_unknown_scenario_name(capsys):
    assert main(["chaos", "--scenarios", "no-such-fault"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_lint_subcommand_matches_module_entry_point(capsys, tmp_path):
    """``repro lint`` and ``python -m repro.analysis`` share one option
    table and produce the same report."""
    import argparse

    from repro.analysis import engine
    from repro.cli import build_parser

    def options(parser):
        return [
            (a.option_strings, a.dest, a.default, a.help)
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        ]

    module_parser = argparse.ArgumentParser()
    engine.add_arguments(module_parser)
    subcommands = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    assert options(subcommands.choices["lint"]) == options(module_parser)

    src = tmp_path / "repro" / "core" / "bad.py"
    src.parent.mkdir(parents=True)
    src.write_text(
        "import time\n"
        "t = time.time()\n"
        "for x in {1, 2}:  # repro: allow[DET004]\n"
        "    pass\n"
        "y = 1  # repro: allow[DET001]\n",
        encoding="utf-8",
    )
    argv = [str(tmp_path), "--no-cache", "--format", "json"]
    assert main(["lint", *argv]) == 1
    via_cli = capsys.readouterr().out
    assert engine.main(argv) == 1
    via_module = capsys.readouterr().out
    assert via_cli == via_module
    assert '"code": "DET001"' in via_cli and '"unused_suppressions": [' in via_cli

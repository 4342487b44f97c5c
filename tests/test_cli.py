"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(args, stdin_text=""):
    out = io.StringIO()
    code = main(args, stdin=io.StringIO(stdin_text), stdout=out)
    return code, out.getvalue()


class TestArgumentParsing:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.dataset == "nyc311"
        assert args.planner == "best"
        assert args.processing == "default"

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--dataset", "nope"])

    def test_unknown_processing_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--processing", "magic"])


class TestOneShotMode:
    def test_answers_question(self):
        code, output = run_cli([
            "--rows", "2000", "--planner", "greedy",
            "--query", "average resolution hours for borough Brooklyn"])
        assert code == 0
        assert "interpreted as: SELECT AVG(resolution_hours)" in output
        assert "row 0" in output

    def test_other_dataset(self):
        code, output = run_cli([
            "--dataset", "ads", "--rows", "2000", "--planner", "greedy",
            "--query", "total clicks for channel Email"])
        assert code == 0
        assert "SUM(clicks)" in output

    def test_voice_mode(self):
        code, output = run_cli([
            "--rows", "2000", "--voice", "--wer", "0.3", "--seed", "5",
            "--planner", "greedy",
            "--query", "count of requests for borough Queens"])
        assert code == 0
        assert "interpreted as:" in output

    def test_svg_output(self, tmp_path):
        svg_path = tmp_path / "out.svg"
        code, output = run_cli([
            "--rows", "2000", "--planner", "greedy",
            "--svg", str(svg_path),
            "--query", "average resolution hours for borough Brooklyn"])
        assert code == 0
        assert svg_path.exists()
        assert svg_path.read_text().startswith("<svg")

    def test_untranslatable_question(self):
        code, output = run_cli(["--rows", "2000", "--planner", "greedy",
                                "--query", "   "])
        assert code == 1
        assert "error:" in output


class TestReplMode:
    def test_quit_immediately(self):
        code, output = run_cli(["--rows", "2000"], stdin_text="\\quit\n")
        assert code == 0
        assert "MUVE on nyc311" in output

    def test_question_then_candidates(self):
        stdin_text = ("average resolution hours for borough Brooklyn\n"
                      "\\candidates\n"
                      "\\quit\n")
        code, output = run_cli(["--rows", "2000", "--planner", "greedy"],
                               stdin_text=stdin_text)
        assert code == 0
        assert output.count("SELECT AVG") > 1  # answer + candidate list

    def test_raw_sql_command(self):
        stdin_text = "\\sql SELECT COUNT(*) FROM nyc311\n\\quit\n"
        code, output = run_cli(["--rows", "2000"], stdin_text=stdin_text)
        assert code == 0
        assert "2000.0" in output
        assert "1 row(s)" in output

    def test_explain_command(self):
        stdin_text = ("\\explain SELECT COUNT(*) FROM nyc311 "
                      "WHERE borough = 'Bronx'\n\\quit\n")
        code, output = run_cli(["--rows", "2000"], stdin_text=stdin_text)
        assert code == 0
        # The selective equality predicate takes the secondary-index
        # access path; the scan seam below restores the sequential scan.
        assert "Index Scan on nyc311" in output
        assert "Index Cond: borough = 'Bronx'" in output

    def test_explain_command_no_indexes(self):
        from repro.sqldb.index import set_indexes_enabled
        stdin_text = ("\\explain SELECT COUNT(*) FROM nyc311 "
                      "WHERE borough = 'Bronx'\n\\quit\n")
        set_indexes_enabled(False)
        try:
            code, output = run_cli(["--rows", "2000"],
                                   stdin_text=stdin_text)
        finally:
            # The seam is process-global; don't leak into later tests.
            set_indexes_enabled(True)
        assert code == 0
        assert "Seq Scan on nyc311" in output

    def test_sql_error_does_not_crash_repl(self):
        stdin_text = "\\sql SELEC oops\nstill alive\n\\quit\n"
        code, output = run_cli(["--rows", "2000", "--planner", "greedy"],
                               stdin_text=stdin_text)
        assert code == 0
        assert "error:" in output

    def test_candidates_before_any_question(self):
        code, output = run_cli(["--rows", "2000"],
                               stdin_text="\\candidates\n\\quit\n")
        assert code == 0
        assert "no question asked yet" in output

    def test_unknown_command(self):
        code, output = run_cli(["--rows", "2000"],
                               stdin_text="\\frobnicate\n\\quit\n")
        assert code == 0
        assert "unknown command" in output


class TestTrendMode:
    def test_one_shot_trend(self):
        code, output = run_cli([
            "--dataset", "flights", "--rows", "4000",
            "--trend",
            "--query", "average arr delay for carrier Delta by month"])
        assert code == 0
        assert "BY month" in output

    def test_trend_repl_command(self):
        stdin_text = ("\\trend count of flights by carrier\n"
                      "\\quit\n")
        code, output = run_cli(
            ["--dataset", "flights", "--rows", "4000"],
            stdin_text=stdin_text)
        assert code == 0
        assert "BY carrier" in output

    def test_trend_without_by_phrase_errors(self):
        code, output = run_cli([
            "--dataset", "flights", "--rows", "4000", "--trend",
            "--query", "average arr delay for carrier Delta"])
        assert code == 1
        assert "error:" in output


class TestLoadTestMode:
    def test_fixed_question_load_test(self):
        code, output = run_cli([
            "--rows", "1500", "--planner", "greedy",
            "--load-test", "12", "--workers", "4",
            "--query", "average resolution hours for borough Brooklyn"])
        assert code == 0
        assert "12 ok, 0 failed" in output
        assert "latency ms:" in output
        assert "cache query_results:" in output
        assert "cache plans:" in output

    def test_workload_mix_load_test(self):
        code, output = run_cli([
            "--rows", "1500", "--planner", "greedy",
            "--load-test", "6", "--workers", "2"])
        assert code == 0
        assert "6 ok, 0 failed" in output

    def test_single_worker_load_test(self):
        code, output = run_cli([
            "--rows", "1500", "--planner", "greedy",
            "--load-test", "3",
            "--query", "count of requests for borough Queens"])
        assert code == 0
        assert "1 worker(s)" in output

    def test_nonpositive_count_rejected(self):
        code, output = run_cli([
            "--rows", "1500", "--load-test", "0"])
        assert code == 2
        assert "error:" in output

    def test_repeated_question_mostly_hits(self):
        code, output = run_cli([
            "--rows", "1500", "--planner", "greedy",
            "--load-test", "10", "--workers", "4",
            "--query", "maximum num calls for agency NYPD"])
        assert code == 0
        # 10 identical questions: after the cold one, everything hits.
        assert "hit rate 9" in output or "hit rate 100%" in output


class TestProfileFlag:
    def test_load_test_profile_breakdown(self):
        code, output = run_cli([
            "--rows", "1500", "--planner", "greedy",
            "--load-test", "4", "--profile",
            "--query", "average resolution hours for borough Brooklyn"])
        assert code == 0
        assert "per-stage profile" in output
        # The breakdown names the pipeline stages with call counts.
        assert "muve.ask" in output
        assert "planner.plan" in output
        assert "executor.run" in output
        assert "share" in output

    def test_profile_shares_do_not_overlap(self):
        code, output = run_cli([
            "--rows", "1500", "--planner", "greedy",
            "--load-test", "4", "--profile",
            "--query", "average resolution hours for borough Brooklyn"])
        assert code == 0
        table = output.split("per-stage profile", 1)[1].splitlines()
        start = next(i for i, line in enumerate(table)
                     if line.startswith("---")) + 1
        shares = []
        for line in table[start:]:
            if not line.rstrip().endswith("%"):
                break
            shares.append(float(line.split()[-1].rstrip("%")))
        assert shares
        # Shares print to 0.1%; allow each its rounding half-step.
        assert sum(shares) <= 100.0 + 0.05 * len(shares), shares

    def test_single_query_profile(self):
        code, output = run_cli([
            "--rows", "1500", "--planner", "greedy", "--profile",
            "--query", "count of requests for borough Queens"])
        assert code == 0
        assert "per-stage profile" in output

    def test_profile_reports_disabled_tracing(self):
        from repro.observability import (
            set_tracing_enabled,
            tracing_enabled,
        )
        from repro.observability.metrics import get_registry

        previous = tracing_enabled()
        set_tracing_enabled(False)
        get_registry().reset()
        try:
            code, output = run_cli([
                "--rows", "1500", "--planner", "greedy", "--profile",
                "--query", "count of requests for borough Queens"])
        finally:
            set_tracing_enabled(previous)
        assert code == 0
        assert "tracing is disabled" in output

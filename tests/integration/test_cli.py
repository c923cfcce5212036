"""End-to-end CLI: generate → build a snapshot → query, plus compare."""

import numpy as np
import pytest

from repro.cli import main
from repro.exceptions import SerializationError
from repro.io import open_snapshot


def _build(tmp_path, *, algorithm="DL+", n=200, d=3, distribution="IND"):
    """Generate a relation and build it into a snapshot directory."""
    data = tmp_path / "rel.npz"
    index = tmp_path / "index.snapshot"
    assert main([
        "generate", "--distribution", distribution, "--n", str(n),
        "--d", str(d), "--seed", "1", "--out", str(data),
    ]) == 0
    assert main([
        "build", "--data", str(data), "--algorithm", algorithm,
        "--out", str(index),
    ]) == 0
    return index


def test_generate_build_query_pipeline(tmp_path, capsys):
    data = tmp_path / "rel.npz"
    index = tmp_path / "index.snapshot"

    assert main([
        "generate", "--distribution", "ANT", "--n", "300", "--d", "3",
        "--seed", "1", "--out", str(data),
    ]) == 0
    out = capsys.readouterr().out
    assert "300 x 3" in out

    assert main([
        "build", "--data", str(data), "--algorithm", "DL+", "--out", str(index),
    ]) == 0
    out = capsys.readouterr().out
    assert "DL+" in out
    assert (index / "MANIFEST.json").exists()

    assert main([
        "query", "--index", str(index), "--weights", "0.4,0.3,0.3", "--k", "5",
    ]) == 0
    out = capsys.readouterr().out
    assert out.count("tuple") >= 5
    assert "cost:" in out


def test_query_with_random_weights(tmp_path, capsys):
    index = _build(tmp_path, algorithm="DG", n=100, d=2)
    capsys.readouterr()
    assert main(["query", "--index", str(index), "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "random weights" in out


def test_compare_command(capsys):
    assert main([
        "compare", "--distribution", "IND", "--n", "200", "--d", "2",
        "--k", "5", "--queries", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "DL+" in out and "SCAN" in out


def test_analyze_command(tmp_path, capsys):
    index = _build(tmp_path, algorithm="DL")
    capsys.readouterr()
    assert main(["analyze", "--index", str(index), "--k", "5"]) == 0
    out = capsys.readouterr().out
    assert "coarse layers" in out
    assert "cost bounds" in out


@pytest.fixture()
def analytics_snapshot(tmp_path, capsys):
    """A built 2-D snapshot and the top-1 tuple id under w = (0.5, 0.5)."""
    index = _build(tmp_path, n=150, d=2)
    top = int(open_snapshot(index).query(np.array([0.5, 0.5]), 1).ids[0])
    capsys.readouterr()
    return index, top


def _analytics(index, mode, *extra):
    return main(["analytics", mode, "--index", str(index), "--k", "3", *extra])


def test_build_then_analytics_why_not(analytics_snapshot, capsys):
    index, _ = analytics_snapshot
    assert _analytics(index, "why-not", "--weights", "0.5,0.5", "--target", "26") == 0
    assert "tuple 26 ranks" in capsys.readouterr().out


def test_build_then_analytics_reverse(analytics_snapshot, capsys):
    index, top = analytics_snapshot
    assert _analytics(index, "reverse", "--target", str(top)) == 0
    out = capsys.readouterr().out
    assert f"tuple {top} is in the top-3 for w1 in [" in out


def test_build_then_analytics_what_if(analytics_snapshot, capsys):
    index, top = analytics_snapshot
    assert _analytics(
        index, "what-if", "--weights", "0.5,0.5", "--edit", "delete",
        "--target", str(top),
    ) == 0
    assert f"exits {{{top}}}" in capsys.readouterr().out


def test_build_rejects_an_algorithm_without_a_snapshot_form(tmp_path, capsys):
    data = tmp_path / "rel.npz"
    main(["generate", "--n", "50", "--d", "2", "--out", str(data)])
    with pytest.raises(SystemExit) as exit_info:
        main([
            "build", "--data", str(data), "--algorithm", "HL",
            "--out", str(tmp_path / "index.snapshot"),
        ])
    assert exit_info.value.code == 2
    assert "invalid choice: 'HL'" in capsys.readouterr().err


def test_query_rejects_a_directory_that_is_not_a_snapshot(tmp_path):
    not_a_snapshot = tmp_path / "plain"
    not_a_snapshot.mkdir()
    with pytest.raises(SerializationError):
        main(["query", "--index", str(not_a_snapshot), "--k", "3"])


def test_sql_command(tmp_path, capsys):
    data = tmp_path / "rel.npz"
    main(["generate", "--n", "300", "--d", "2", "--out", str(data)])
    capsys.readouterr()
    assert main([
        "sql", "--data", str(data),
        "EXPLAIN SELECT a0 FROM r WHERE a0 <= 0.8 "
        "ORDER BY a0 + a1 STOP AFTER 3",
    ]) == 0
    out = capsys.readouterr().out
    assert "TopK(k=3" in out
    assert "tuples evaluated" in out
    assert out.count("\n1  ") or "1  " in out


def test_build_with_max_layers(tmp_path, capsys):
    data = tmp_path / "rel.npz"
    index = tmp_path / "index.snapshot"
    main(["generate", "--n", "200", "--d", "2", "--out", str(data)])
    assert main([
        "build", "--data", str(data), "--algorithm", "DL",
        "--max-layers", "5", "--out", str(index),
    ]) == 0


def test_bench_command_tiny_scale(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_N", "400")
    monkeypatch.setenv("REPRO_BENCH_QUERIES", "2")
    assert main(["bench", "--experiment", "fig10"]) == 0
    out = capsys.readouterr().out
    assert "Fig 10" in out
    assert "DG/DL" in out
    assert "[ANT]" in out

import pytest

from hyperlap.cli import main


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_fig1_vertex(capsys):
    code, out, _ = run(capsys, "count", "--fixture", "fig1", "--kind", "vertex",
                       "--from", "1", "--to", "3", "--length", "4")
    assert code == 0
    assert out.strip() == "5886"


def test_count_fig1_edge(capsys):
    code, out, _ = run(capsys, "count", "--fixture", "fig1", "--kind", "edge",
                       "--from", "7", "--to", "9", "--length", "3")
    assert code == 0
    assert out.strip() == "384"


def test_count_machine_mode(capsys):
    code, out, _ = run(capsys, "count", "--fixture", "fig1", "--machine",
                       "--kind", "vertex", "--from", "1", "--to", "3", "--length", "4")
    assert code == 0
    assert out.strip() == "count=5886"


def test_signed_count(capsys):
    code, out, _ = run(capsys, "signed-count", "--fixture", "fig2", "--dim", "1",
                       "--kind", "upper", "--from", "1", "--to", "3", "--length", "1")
    assert code == 0
    assert out.strip() == "1"


def test_check_fig2(capsys):
    code, out, _ = run(capsys, "check", "--fixture", "fig2", "--max-length", "3")
    assert code == 0
    assert "0 mismatches" in out


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", "--fixture", "fig2")
    assert code == 0
    assert "ok" in out


def test_validate_bad_file(tmp_path, capsys):
    p = tmp_path / "bad.hg"
    p.write_text("vertices 4\nedge a 1 5\n")
    code, _, err = run(capsys, "validate", "--input", str(p))
    assert code == 1
    assert "line 2" in err


def test_laplacian_grid(capsys):
    code, out, _ = run(capsys, "laplacian", "--fixture", "fig1", "--which", "even")
    assert code == 0
    assert out.splitlines()[0].split() == ["5", "2", "2", "3"]


def test_laplacian_cw_needs_dim(capsys):
    code, _, err = run(capsys, "laplacian", "--fixture", "fig2", "--which", "odd")
    assert code == 1
    assert "--dim" in err


def test_enumerate_prints_walks(capsys):
    code, out, _ = run(capsys, "enumerate", "--fixture", "fig1", "--kind", "vertex",
                       "--from", "1", "--to", "3", "--length", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "v1,e2,v3"
    assert lines[1] == "v1,e7,v3"


def test_enumerate_signed_appends_sign(capsys):
    code, out, _ = run(capsys, "enumerate", "--fixture", "fig2", "--kind", "upper",
                       "--dim", "1", "--from", "1", "--to", "3", "--length", "1")
    assert code == 0
    assert out.splitlines()[0] == "e1^2,e6^1,e3^2 [+1]"


def test_enumerate_budget_exceeded(capsys, monkeypatch):
    monkeypatch.setenv("HYPERLAP_BUDGET", "10")
    code, _, err = run(capsys, "enumerate", "--fixture", "fig1", "--kind", "vertex",
                       "--from", "1", "--to", "3", "--length", "4")
    assert code == 2
    assert "budget" in err
    assert "HYPERLAP_BUDGET" in err


def test_enumerate_long_walk(tmp_path, capsys):
    p = tmp_path / "one.hg"
    p.write_text("vertices 1\nedge e1 1\n")
    code, out, _ = run(capsys, "enumerate", "--input", str(p), "--kind", "vertex",
                       "--from", "1", "--to", "1", "--length", "1200", "--machine")
    assert code == 0
    assert out.splitlines()[-1] == "total=1"


def test_evolve_trace(capsys):
    code, out, _ = run(capsys, "evolve", "--fixture", "fig1", "--theta", "0", "--trace")
    assert code == 0
    assert out.strip() == "13+0i"


def test_evolve_without_edges(tmp_path, capsys):
    p = tmp_path / "bare.hg"
    p.write_text("vertices 3\n")
    code, out, _ = run(capsys, "evolve", "--input", str(p), "--theta", "0.5", "--trace")
    assert (code, out.strip()) == (0, "3+0i")
    code, out, _ = run(capsys, "evolve", "--input", str(p), "--theta", "0.5")
    assert (code, out.splitlines()) == (0, ["1+0i 0+0i 0+0i", "0+0i 1+0i 0+0i", "0+0i 0+0i 1+0i"])


def test_fixture_emit_round_trips(capsys):
    from hyperlap import builtin_fixture, parse_cw

    code, out, _ = run(capsys, "fixture", "--name", "fig2", "--emit")
    assert code == 0
    assert parse_cw(out) == builtin_fixture("fig2")


def test_machine_mode_deterministic(capsys):
    args = ("check", "--fixture", "fig1", "--machine", "--max-length", "2")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert out1.splitlines()[0] == "mismatches=0"


def test_conflicting_sources(tmp_path, capsys):
    p = tmp_path / "x.hg"
    p.write_text("vertices 1\n")
    code, _, err = run(capsys, "validate", "--fixture", "fig1", "--input", str(p))
    assert code == 1
    assert "exactly one" in err


def test_unknown_flag(capsys):
    assert main(["count", "--fixture", "fig1", "--bogus"]) == 1


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "--input", "/nonexistent/x.hg")
    assert code == 1


def _one_error_line(code, err):
    lines = err.splitlines()
    return code == 1 and len(lines) == 1 and lines[0].startswith("error:")


FIG1_VERTEX = ("--fixture", "fig1", "--kind", "vertex", "--from", "1", "--to", "3")


def test_negative_length_is_one_error_line(capsys):
    code, _, err = run(capsys, "count", *FIG1_VERTEX, "--length", "-1")
    assert _one_error_line(code, err)


def test_check_max_length_zero_is_one_error_line(capsys):
    code, _, err = run(capsys, "check", "--fixture", "fig1", "--max-length", "0")
    assert _one_error_line(code, err)


def test_malformed_budget_is_one_error_line(capsys, monkeypatch):
    monkeypatch.setenv("HYPERLAP_BUDGET", "abc")
    code, _, err = run(capsys, "enumerate", *FIG1_VERTEX, "--length", "1")
    assert _one_error_line(code, err)
    assert "HYPERLAP_BUDGET" in err


def test_non_utf8_input_is_one_error_line(tmp_path, capsys):
    p = tmp_path / "bad.hg"
    p.write_bytes(b"vertices 2\nedge e\xff 1 2\n")
    code, _, err = run(capsys, "validate", "--input", str(p))
    assert _one_error_line(code, err)
    assert "UTF-8" in err


def test_non_finite_theta_is_one_error_line(capsys):
    code, out, err = run(capsys, "evolve", "--fixture", "fig1", "--theta", "nan", "--trace")
    assert _one_error_line(code, err)
    assert out == ""


def test_overflowing_theta_is_one_error_line(capsys):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "evolve", "--fixture", "fig1", "--theta", "1e300", "--trace")
    assert _one_error_line(code, err)
    assert out == ""

"""Replays the CLI transcript in tests/golden/ (see `golden.py`): every
recorded invocation must give the same exit code, stdout and stderr."""

import json

from golden import CASES, GOLDEN_DIR, invoke, regenerate


def _entries(line: str) -> tuple[str, list[complex | str]]:
    """An `evolve` line as its `key=` prefix and its entries; an exact zero
    stays the string `0+0i`, so it must print as one."""
    prefix, _, body = line.rpartition("=")
    return prefix, [z if z == "0+0i" else complex(z.replace("i", "j")) for z in body.split(" ")]


def _evolve_matches(got: list[str], want: list[str]) -> bool:
    """Entry by entry within 1e-10: the last digits of U(theta) may move with
    the platform's LAPACK, but its exact zeros may not."""
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        (gp, gz), (wp, wz) = _entries(g), _entries(w)
        if gp != wp or len(gz) != len(wz):
            return False
        for a, b in zip(gz, wz):
            if isinstance(b, str) or isinstance(a, str):
                if a != b:
                    return False
            elif abs(a - b) > 1e-10:
                return False
    return True


def test_every_recorded_invocation_replays():
    paths = sorted(GOLDEN_DIR.glob("*.json"))
    assert {p.stem for p in paths} == set(CASES)
    failed = []
    for path in paths:
        want = json.loads(path.read_text(encoding="utf-8"))
        got = invoke(want["argv"], want["env"])
        if want["argv"][:1] == ["evolve"] and want["exit"] == 0:
            same = (got["exit"], got["stderr"]) == (0, want["stderr"]) and _evolve_matches(got["stdout"], want["stdout"])
        else:
            same = got == want
        if not same:
            failed.append(f"{path.stem}: want {want}, got {got}")
    assert not failed, "\n".join(failed)


def test_regeneration_refuses_to_overwrite_a_changed_file(tmp_path):
    recorded = tmp_path / "count-fig1-vertex.json"
    recorded.write_text("{}\n", encoding="utf-8")
    assert "count-fig1-vertex" in regenerate(tmp_path, force=False)
    assert recorded.read_text(encoding="utf-8") == "{}\n"
    assert (tmp_path / "count-fig1-edge.json").exists()
    assert "count-fig1-vertex" in regenerate(tmp_path, force=True)
    assert json.loads(recorded.read_text(encoding="utf-8"))["stdout"] == ["5886"]
    assert regenerate(tmp_path, force=False) == []

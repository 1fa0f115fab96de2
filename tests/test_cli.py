"""Command-line surface: outputs, exit codes, and verdict wording."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from binox.cli import main
from binox.errors import KernelFault
from binox.graphs import load_graph, load_vertex_map

CATALOG = Path(__file__).resolve().parent.parent / "catalog"
SRC = CATALOG.parent / "src"


def g(name: str) -> str:
    return str(CATALOG / f"{name}.g")


def m(name: str) -> str:
    return str(CATALOG / f"{name}.map")


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def porcelain(out: str) -> dict:
    return dict(line.split("=", 1) for line in out.strip().splitlines())


# -- explore ------------------------------------------------------------------------


def test_explore_porcelain_halting(capsys):
    code, out, _ = run(capsys, "explore", g("p2"), "--porcelain")
    assert code == 0
    assert porcelain(out) == {
        "status": "halted",
        "moves": "24",
        "phases_completed": "3",
        "halt_phase": "3",
        "candidate_vertices": "2",
        "visited": "2",
        "terrain_vertices": "2",
    }


def test_explore_human_halting(capsys):
    code, out, _ = run(capsys, "explore", g("p2"))
    assert code == 0
    assert out.strip() == ("halted at phase 3 after 24 moves; candidate has "
                           "2 vertices; visited 2/2 vertices")


def test_explore_budget_wording_is_distinct(capsys):
    code, out, _ = run(capsys, "explore", g("c4"), "--max-moves", "5000",
                       "--porcelain")
    assert code == 0
    kv = porcelain(out)
    assert kv["status"] == "budget_exhausted"
    assert kv["moves"] == "5000"
    assert kv["halt_phase"] == "-"
    assert kv["candidate_vertices"] == "-"
    code, out, _ = run(capsys, "explore", g("c4"), "--max-moves", "5000")
    assert code == 0
    assert "no halt" in out
    assert "halted at phase" not in out


def test_explore_move_budget_bounds_an_exhaustive_run(capsys):
    # phase ends cost no moves, so only a candidate search bounded by the
    # view keeps the run's time bounded by its moves
    code, out, _ = run(capsys, "explore", g("tree7"), "--walk",
                       "nonbacktracking", "--max-moves", "3000", "--porcelain")
    assert code == 0
    got = porcelain(out)
    assert (got["status"], got["moves"], got["halt_phase"]) \
        == ("halted", "94", "8")
    assert got["candidate_vertices"] == "7"


def test_explore_counts_stay_exact_past_64_bits(capsys):
    budget = "1" + "0" * 30  # 10^30 moves, taken as computed phases
    code, out, _ = run(capsys, "explore", g("c4"), "--max-moves", budget,
                       "--porcelain")
    assert code == 0
    kv = porcelain(out)
    assert (kv["status"], kv["moves"]) == ("budget_exhausted", budget)
    assert len(kv["moves"]) == 31


def test_explore_nonbacktracking_flag(capsys):
    code, out, _ = run(capsys, "explore", g("k3"), "--walk",
                       "nonbacktracking", "--porcelain")
    assert code == 0
    kv = porcelain(out)
    assert (kv["status"], kv["halt_phase"], kv["moves"]) == ("halted", "4", "80")


# -- classify / ucover --------------------------------------------------------------


def test_classify_simply_connected(capsys, k3):
    code, out, _ = run(capsys, "classify", g("k3"))
    assert code == 0
    assert out.strip() == "simply connected (its own universal cover, 3 vertices)"
    code, out, _ = run(capsys, "classify", g("k3"), "--porcelain")
    assert porcelain(out) == {"kind": "simply_connected", "sheets": "1",
                              "cover_size": "3"}


def test_classify_budget_verdict_is_distinct(capsys):
    code, out, _ = run(capsys, "classify", g("c4"), "--budget", "100",
                       "--porcelain")
    assert code == 0
    assert porcelain(out) == {"kind": "exceeds_budget", "sheets": "-",
                              "cover_size": "-"}


def test_classify_budget_counts_the_root(capsys):
    code, out, _ = run(capsys, "classify", g("k1"), "--budget", "0",
                       "--porcelain")
    assert code == 0
    assert porcelain(out)["kind"] == "exceeds_budget"
    code, out, _ = run(capsys, "classify", g("k1"), "--budget", "1")
    assert code == 0
    assert out.strip() == "simply connected (its own universal cover, 1 vertices)"


def test_classify_finite_cover(capsys):
    code, out, _ = run(capsys, "classify", g("rp2"), "--porcelain")
    assert code == 0
    assert porcelain(out) == {"kind": "finite_cover", "sheets": "2",
                              "cover_size": "22"}


def test_ucover_writes_cover_and_map(capsys, tmp_path):
    cov = tmp_path / "cover.g"
    proj = tmp_path / "cover.map"
    code, out, _ = run(capsys, "ucover", g("rp2"), "--out", str(cov),
                       "--map-out", str(proj), "--porcelain")
    assert code == 0
    assert porcelain(out) == {"status": "finite", "cover_vertices": "22",
                              "sheets": "2"}
    back = load_graph(str(cov))
    assert back.n == 22
    f = load_vertex_map(str(proj), back, load_graph(g("rp2")))
    assert len(f) == 22


def test_ucover_prints_graph_without_out(capsys):
    code, out, _ = run(capsys, "ucover", g("p2"))
    assert code == 0
    assert out == "finite: 2 vertices, 1 sheets (audited)\nv 2\ne 0 1 0 0\n"


def test_ucover_budget_verdict(capsys):
    code, out, _ = run(capsys, "ucover", g("c4"), "--budget", "50",
                       "--porcelain")
    assert code == 0
    assert porcelain(out) == {"status": "budget_exceeded", "explored": "50"}


# -- cover-check --------------------------------------------------------------------


def test_cover_check_positive(capsys):
    code, out, _ = run(capsys, "cover-check", g("c8"), g("c4"),
                       m("c8-to-c4"))
    assert code == 0
    assert out.strip() == ("graph covering: True; simplicial covering: True; "
                           "definitions agree")


def test_cover_check_negative_still_exits_zero(capsys):
    code, out, _ = run(capsys, "cover-check", g("c6"), g("k3"),
                       m("c6-to-k3"), "--porcelain")
    assert code == 0
    assert porcelain(out) == {"graph_covering": "false",
                              "simplicial_covering": "false", "agree": "true"}


def test_cover_check_rejects_partial_map(capsys):
    code, _, err = run(capsys, "cover-check", g("c8"), g("c4"),
                       m("k4-identity"))
    assert code == 2
    assert err.startswith("error:")
    assert "not total" in err


# -- contract -----------------------------------------------------------------------


def test_contract_positive_with_sequence(capsys):
    code, out, _ = run(capsys, "contract", g("k3"), "--loop", "0,1,2,0",
                       "--k", "3", "--show-sequence")
    assert code == 0
    assert "contractible within 3 moves (minimum 1)" in out
    assert "delete_triangle@0(1,2) -> (0,)" in out


def test_contract_negative(capsys):
    code, out, _ = run(capsys, "contract", g("c4"), "--loop", "0,1,2,3,0",
                       "--k", "20", "--porcelain")
    assert code == 0
    assert porcelain(out) == {"verdict": "not_contractible", "moves": "-"}


def test_contract_sequence_keeps_the_verdict(capsys):
    # without triangles a search needs no backtrack insertions, so asking
    # for the sequence gives the same quick exact negative
    code, out, _ = run(capsys, "contract", g("c4"), "--loop", "0,1,2,3,0",
                       "--k", "20", "--show-sequence")
    assert code == 0
    assert out == "not contractible within 20 moves\n"


@pytest.mark.parametrize("loop", ["", "0,9,0", "0,2,0", "0,1,1"],
                         ids=["empty", "out_of_range", "not_an_edge", "open"])
def test_contract_rejects_invalid_loops(capsys, loop):
    code, out, err = run(capsys, "contract", g("c4"), "--loop", loop,
                         "--k", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_contract_budget_verdict_is_distinct(capsys):
    code, out, _ = run(capsys, "contract", g("octahedron"), "--loop",
                       "0,1,3,4,0", "--k", "20", "--search-budget", "5",
                       "--porcelain")
    assert code == 0
    # the start and its 68 children within the bound, counted at the
    # first expansion
    assert porcelain(out) == {"verdict": "search_budget_exceeded", "moves": "-",
                              "what": "search states", "cap": "5",
                              "reached": "69"}
    code, out, _ = run(capsys, "contract", g("octahedron"), "--loop",
                       "0,1,3,4,0", "--k", "20", "--search-budget", "5")
    assert code == 0
    assert out == ("search budget exceeded before a verdict within 20 moves "
                   "(search states: 69 of cap 5)\n")
    # same query with room to search gives the positive verdict
    code, out, _ = run(capsys, "contract", g("octahedron"), "--loop",
                       "0,1,3,4,0", "--k", "20", "--porcelain")
    assert porcelain(out)["verdict"] == "contractible"


@pytest.mark.parametrize("argv", [
    ("contract", g("k4"), "--loop", "0,1,2,0", "--k", "3"),
    ("cover-check", g("k4"), g("k4"), m("k4-identity")),
], ids=["contract", "cover-check"])
def test_budget_exceeded_names_its_cap(capsys, monkeypatch, argv):
    # k4's clique complex has 15 simplices
    monkeypatch.setattr("binox.complexes.SIMPLEX_BUDGET", 10)
    code, out, _ = run(capsys, *argv, "--porcelain")
    assert code == 0
    assert porcelain(out) == {"status": "budget_exceeded", "what": "simplices",
                              "cap": "10", "reached": "11"}
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == ("budget_exceeded: more than 10 simplices "
                   "(simplices: 11 of cap 10)\n")


# -- lift-check ---------------------------------------------------------------------


def test_lift_check_porcelain(capsys):
    for walk in ("full", "nonbacktracking"):
        code, out, _ = run(capsys, "lift-check", g("c8"), g("c4"),
                           m("c8-to-c4"), "--steps", "2000", "--walk", walk,
                           "--porcelain")
        assert code == 0
        assert porcelain(out) == {
            "ok": "true",
            "steps_compared": "2001",
            "first_divergence": "-",
            "base_halted": "false",
            "cover_halted": "false",
        }


def test_lift_check_requires_covering(capsys):
    code, _, err = run(capsys, "lift-check", g("c6"), g("k3"),
                       m("c6-to-k3"))
    assert code == 2
    assert err.startswith("error:")


# -- view / enumerate / catalog -----------------------------------------------------


def test_view_golden(capsys):
    code, out, _ = run(capsys, "view", g("p2"), "--depth", "2")
    assert code == 0
    assert out == ("view depth=2\n"
                   "[] (1, (0,), ())\n"
                   "  [0|0] (1, (0,), ())\n"
                   "    [0|0] (1, (0,), ())\n")


def test_view_deeper_than_the_recursion_limit(capsys):
    code, out, _ = run(capsys, "view", g("p2"), "--depth", "1200")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1202
    assert lines[-1] == "  " * 1200 + "[0|0] (1, (0,), ())"


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--n-max", "3", "--count-only")
    assert code == 0
    assert out.splitlines() == ["n=1 count=1", "n=2 count=1", "n=3 count=3",
                                "total=5"]


def test_enumerate_listing_is_deterministic(capsys):
    code, a, _ = run(capsys, "enumerate", "--n-max", "3")
    assert code == 0
    assert "# n=3 index=2" in a
    _, b, _ = run(capsys, "enumerate", "--n-max", "3")
    assert a == b


def test_catalog_run_verifies(capsys):
    code, out, _ = run(capsys, "catalog", "run")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "catalog verified"
    assert any(line.startswith("rp2: ") and "sheets=2" in line
               for line in lines)


def test_catalog_write_round_trips(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "write", "--dir", str(tmp_path))
    assert code == 0
    lines = out.splitlines()  # verified before anything is written
    assert lines[lines.index("catalog verified") + 1].endswith("k1.g")
    assert load_graph(str(tmp_path / "k4.g")).n == 4


# -- error surface ------------------------------------------------------------------


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "classify", "no/such/file.g")
    assert code == 2
    assert err.startswith("error:")


def test_malformed_graph_reports_line(capsys, tmp_path):
    bad = tmp_path / "bad.g"
    bad.write_text("v 2\ne 0 1 0\n", encoding="utf-8")
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("argv", [
    ("contract", g("k3"), "--loop", "a,b", "--k", "3"),
    ("contract", g("k3"), "--loop", "0,1,2,0", "--k", "-1"),
    ("view", g("k3"), "--vertex", "9", "--depth", "1"),
    ("view", g("k3"), "--depth", "-1"),
    ("ucover", g("k3"), "--base", "7"),
    ("classify", g("k3"), "--budget", "-1"),
    ("ucover", g("k3"), "--budget", "-1"),
    ("contract", g("k3"), "--loop", "0,1,2,0", "--k", "3",
     "--search-budget", "-1"),
    ("explore", g("p2"), "--max-moves", "-1"),
    ("explore", g("p2"), "--start", "5"),
    ("lift-check", g("c8"), g("c4"), m("c8-to-c4"), "--cover-start", "9"),
    ("lift-check", g("c8"), g("c4"), m("c8-to-c4"), "--steps", "-1"),
    ("enumerate", "--n-max", "-1"),
    # rejected by the parser itself
    ("explore", g("p2"), "--bogus"),
    ("contract", g("k3"), "--loop", "0,1,2,0"),
    (),
    ("bogus",),
    ("explore", g("p2"), "--walk", "sideways"),
    ("contract", g("k3"), "--loop", "0,1,2,0", "--k", "x"),
    ("explore", g("p2"), "--max-moves", "1e3"),
])
def test_bad_arguments_exit_two_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def _env() -> dict:
    """The environment of a subprocess that imports binox from src/."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_bad_arguments_exit_two_from_the_command_line():
    proc = subprocess.run(
        [sys.executable, "-m", "binox.cli", "explore", g("k1"), "--bogus"],
        capture_output=True, text=True, env=_env(), timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: unrecognized arguments: --bogus\n"


def test_help_exits_zero_with_usage_on_stdout(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["explore", "--help"])
    assert exc.value.code == 0
    cap = capsys.readouterr()
    assert cap.out.startswith("usage: binox explore")
    assert "--max-moves" in cap.out
    assert cap.err == ""


@pytest.mark.parametrize("n_max", ["1", "4"])
def test_closed_stdout_exits_one_without_an_error_line(n_max):
    # a reader that went away is not unusable input; with buffered stdout
    # n=1's few lines fail at the final flush, n<=4's thousands mid-print
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "binox.cli", "enumerate", "--n-max", n_max],
            stdout=write_end, stderr=subprocess.PIPE, env=_env(), timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


@pytest.mark.parametrize("argv", [
    ("explore", g("k1")),
    ("lift-check", g("c8"), g("c4"), m("c8-to-c4")),
], ids=["explore", "lift-check"])
def test_hints_option_is_gone(capsys, tmp_path, argv):
    hints = tmp_path / "hints.txt"
    hints.write_text("catalog:p2\n", encoding="utf-8")
    code, out, err = run(capsys, *argv, "--hints", str(hints))
    assert code == 2
    assert out == ""
    assert err == f"error: unrecognized arguments: --hints {hints}\n"


def _bad_files(tmp: Path) -> dict:
    files = {
        "not_utf8.g": b"v 2\ne 0 1 0 0 # \xe9t\xe9\n",
        "not_utf8.map": b"m 0 0\n\x80\n",
        "huge.g": "v 1000000000\n",
    }
    for name, body in files.items():
        path = tmp / name
        if isinstance(body, bytes):
            path.write_bytes(body)
        else:
            path.write_text(body, encoding="utf-8")
    return {name: str(tmp / name) for name in files}


@pytest.mark.parametrize("argv, names", [
    (("explore", "not_utf8.g"), "not_utf8.g"),
    (("classify", "not_utf8.g"), "not_utf8.g"),
    (("cover-check", "not_utf8.g", g("p2"), m("c8-to-c4")), "not_utf8.g"),
    (("cover-check", g("k4"), g("k4"), "not_utf8.map"), "not_utf8.map"),
    (("classify", "huge.g"), "disconnected"),
], ids=[  # fixed, so that each case keeps its name when rows come and go
    "argv2-not_utf8.g", "argv3-not_utf8.g", "argv4-not_utf8.g",
    "argv5-not_utf8.map", "argv6-disconnected",
])
def test_bad_files_exit_two_with_one_error_line(capsys, tmp_path, argv, names):
    files = _bad_files(tmp_path)
    code, out, err = run(capsys, *(files.get(a, a) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert names in err


_token = st.one_of(st.integers(-3, 5).map(str), st.sampled_from(["", "a", " "]))


@st.composite
def _argv(draw):
    """A contract, view or ucover call on k3 with fuzzed options.

    Values are bounded so that every accepted call stays small: views of
    depth <= 5 and searches capped at 2000 states.
    """
    cmd = draw(st.sampled_from(["contract", "view", "ucover"]))
    if cmd == "contract":
        loop = ",".join(draw(st.lists(_token, max_size=6)))
        return [cmd, g("k3"), f"--loop={loop}", f"--k={draw(_token)}",
                "--search-budget=2000"]
    if cmd == "view":
        return [cmd, g("k3"), f"--vertex={draw(_token)}",
                f"--depth={draw(_token)}"]
    return [cmd, g("k3"), f"--base={draw(st.integers(-3, 5))}", "--porcelain"]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_fuzzed_arguments_exit_zero_or_two(capsys, argv):
    """The CLI contract: exit 0 (a verdict) or 2 (unusable input); the
    only exception allowed to escape is KernelFault."""
    try:
        code, _, err = run(capsys, *argv)
    except KernelFault:
        return
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1


# -- fuzzed file contents -----------------------------------------------------------

_field = st.one_of(
    st.integers(-2, 4).map(str),
    st.sampled_from(["-1000000000", "1000000000", str(10**40), "", "x",
                     "1.5", "#"]),
)


def _record(tag: str, fields: int) -> st.SearchStrategy[str]:
    return st.lists(_field, min_size=fields - 1, max_size=fields + 1).map(
        lambda fs: " ".join([tag, *fs]))


_line = st.one_of(_record("v", 1), _record("e", 4), _record("m", 2),
                  st.text(max_size=6), st.just("# comment"))


@st.composite
def _file_bytes(draw, lines):
    """Text of the given lines, sometimes with raw (maybe non-UTF-8) bytes
    spliced in."""
    data = "\n".join(draw(st.lists(lines, max_size=6))).encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    return data


_graph_lines = st.one_of(
    _line, st.sampled_from((CATALOG / "p3.g").read_text().splitlines()))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graph=_file_bytes(_graph_lines), vmap=_file_bytes(_line),
       cmd=st.sampled_from(["explore", "classify", "cover-check",
                            "cover-check-map"]))
def test_fuzzed_files_exit_zero_or_two(capsys, tmp_path, graph, vmap, cmd):
    """Graph and map files with bad records, huge and negative integers
    and raw bytes: exit 0 or 2 with one error line; only a KernelFault
    may escape."""
    gpath, mpath = tmp_path / "fuzz.g", tmp_path / "fuzz.map"
    gpath.write_bytes(graph)
    mpath.write_bytes(vmap)
    argv = {
        "explore": ["explore", str(gpath), "--max-moves", "300"],
        "classify": ["classify", str(gpath)],
        "cover-check": ["cover-check", str(gpath), g("p3"), m("k4-identity")],
        "cover-check-map": ["cover-check", g("k3"), g("k3"), str(mpath)],
    }[cmd]
    try:
        code, _, err = run(capsys, *argv)
    except KernelFault:
        return
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1


# -- scripts/explore_report.py ------------------------------------------------------


@pytest.mark.parametrize("argv", [("bogus",), ("p2", "--budget", "-1")],
                         ids=["unknown-name", "negative-budget"])
def test_explore_report_rejects_bad_arguments(argv):
    script = CATALOG.parent / "scripts" / "explore_report.py"
    proc = subprocess.run([sys.executable, str(script), *argv],
                          capture_output=True, text=True, env=_env(),
                          timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: explore_report.py")
    assert proc.stderr.splitlines()[-1].startswith("explore_report.py: error:")

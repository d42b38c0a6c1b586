import gc
import json
import math
import os
import warnings

import pytest

from conftest import FIXTURES
from manyworlds import cli
from manyworlds.cli import main
from manyworlds.kmedoids import example_line_dataset

PROG = os.path.join(FIXTURES, "kmedoids.prog")


@pytest.fixture
def line_json(tmp_path):
    path = tmp_path / "line.json"
    example_line_dataset().save(path)
    return str(path)


def _read(path, mode="r"):
    with open(path, mode) as fh:
        return fh.read()


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_naive_emits_world_reports(capsys, line_json, tmp_path):
    out_path = str(tmp_path / "naive.json")
    code, out, _ = _run(capsys, "run", "--program", PROG, "--data", line_json,
                        "--mode", "naive", "--out", out_path)
    assert code == 0
    world_lines = [l for l in out.splitlines() if l.startswith("{")]
    assert len(world_lines) == 16
    json.loads(world_lines[0])
    report = json.loads(_read(out_path))
    assert report["stats"]["evaluations"] == 16


def test_exact_matches_naive(capsys, line_json, tmp_path):
    a_path, b_path = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert _run(capsys, "run", "--program", PROG, "--data", line_json,
                "--mode", "naive", "--out", a_path)[0] == 0
    assert _run(capsys, "run", "--program", PROG, "--data", line_json,
                "--mode", "exact", "--out", b_path)[0] == 0
    naive = {t["eid"]: t["lower"] for t in json.loads(_read(a_path))["targets"]}
    exact = json.loads(_read(b_path))["targets"]
    for t in exact:
        assert abs(t["lower"] - naive[t["eid"]]) < 1e-9
        assert abs(t["upper"] - naive[t["eid"]]) < 1e-9


def test_hybrid_bounds_contain_naive(capsys, line_json, tmp_path):
    a_path, b_path = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    _run(capsys, "run", "--program", PROG, "--data", line_json,
         "--mode", "naive", "--out", a_path)
    code, _, _ = _run(capsys, "run", "--program", PROG, "--data", line_json,
                      "--mode", "hybrid", "--epsilon", "0.1", "--out", b_path)
    assert code == 0
    naive = {t["eid"]: t["lower"] for t in json.loads(_read(a_path))["targets"]}
    for t in json.loads(_read(b_path))["targets"]:
        assert t["lower"] - 1e-12 <= naive[t["eid"]] <= t["upper"] + 1e-12
        assert t["upper"] - t["lower"] <= 0.2 + 1e-12


def test_report_byte_stable(capsys, line_json, tmp_path):
    p1, p2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    _run(capsys, "run", "--program", PROG, "--data", line_json,
         "--mode", "exact", "--out", p1)
    _run(capsys, "run", "--program", PROG, "--data", line_json,
         "--mode", "exact", "--out", p2)
    assert _read(p1, "rb") == _read(p2, "rb")


def test_emit_stage_round_trips(capsys, line_json, tmp_path):
    from manyworlds.datagen import Dataset
    from manyworlds.eventprog import ground_folded, parse_event_program
    from manyworlds.translate import translate_to_event_program
    from manyworlds.userlang import parse_user_program

    ast_path = str(tmp_path / "stage.ast")
    code, _, _ = _run(capsys, "run", "--program", PROG, "--data", line_json,
                      "--emit-stage", "ast", "--out", ast_path)
    assert code == 0
    reparsed = parse_user_program(_read(ast_path))
    assert reparsed == parse_user_program(_read(PROG))

    for folded in ((), ("--folded",)):
        ep_path = str(tmp_path / "stage.events")
        _run(capsys, "run", "--program", PROG, "--data", line_json, *folded,
             "--emit-stage", "event-program", "--out", ep_path)
        parse_event_program(_read(ep_path))  # parses back

        gr_path = str(tmp_path / "stage.grounded")
        assert _run(capsys, "run", "--program", PROG, "--data", line_json,
                    *folded, "--emit-stage", "grounded", "--out", gr_path)[0] == 0
        program = parse_event_program(_read(gr_path))

        net_path = str(tmp_path / "stage.network")
        _run(capsys, "run", "--program", PROG, "--data", line_json, *folded,
             "--emit-stage", "network", "--out", net_path)
        lines = _read(net_path).strip().splitlines()
        assert all(len(l.split()) >= 2 for l in lines)
        if not folded:  # naive mode emits the same stage, and nothing else
            naive_path = str(tmp_path / "naive.network")
            assert _run(capsys, "run", "--program", PROG, "--data", line_json,
                        "--mode", "naive", "--emit-stage", "network",
                        "--out", naive_path)[:2] == (0, "")
            assert _read(naive_path) == _read(net_path)

    # the folded grounding's text grounds back to the same folded program
    ds = Dataset.load(line_json)
    tr = translate_to_event_program(parse_user_program(_read(PROG)), ds)
    pattern, vs = (tr.loop_final_pattern("Centre"),), set(ds.vartable.index)
    want = ground_folded(tr.program, pattern, vs)
    got = ground_folded(program, pattern, vs)
    assert (got.counter, got.count, got.base, got.body, got.targets) == \
        (want.counter, want.count, want.base, want.body, want.targets)


def test_event_program_input_route(capsys, line_json, tmp_path):
    ep_path = str(tmp_path / "prog.events")
    _run(capsys, "run", "--program", PROG, "--data", line_json,
         "--emit-stage", "event-program", "--out", ep_path)
    out_path = str(tmp_path / "run.json")
    code, _, _ = _run(capsys, "run", "--event-program", ep_path, "--data",
                      line_json, "--mode", "exact", "--targets",
                      "Centre[0,*,*]", "--out", out_path)
    assert code == 0
    assert json.loads(_read(out_path))["targets"]


def test_clamped_float_dust_is_reported_on_stderr(capsys, tmp_path):
    # T is certain.  With these probabilities its lower bound sums to
    # 1 + 2^-52 over the branches, and the clamp back to 1 is noted on
    # stderr, not in --out; with halves every sum is exact
    ep_path = tmp_path / "dust.events"
    ep_path.write_text(
        "T := (x0 & x1) | (x0 & !x1) | (!x0 & x2) | (!x0 & !x2)\n")
    for ps, note in (((0.2, 0.1, 0.2), True), ((0.5, 0.5, 0.5), False)):
        data_path = tmp_path / "dust.json"
        data_path.write_text(json.dumps({
            "vars": [{"id": "x%d" % i, "p": p} for i, p in enumerate(ps)],
            "points": [], "params": {"k": 0, "medoids": []}}))
        for mode in ("exact", "exact-d"):
            out_path = tmp_path / ("%s.json" % mode)
            code, _, err = _run(capsys, "run", "--event-program", str(ep_path),
                                "--data", str(data_path), "--mode", mode,
                                "--targets", "T", "--out", str(out_path))
            assert code == 0
            assert ("clamped" in err and repr(2.0 ** -52) in err) == note, err
            report = json.loads(_read(out_path))
            assert report["targets"] == [
                {"eid": "T", "lower": 1.0, "upper": 1.0}]
            assert "clamp" not in json.dumps(report)


def test_distributed_modes(capsys, line_json, tmp_path):
    a_path = str(tmp_path / "seq.json")
    b_path = str(tmp_path / "dist.json")
    _run(capsys, "run", "--program", PROG, "--data", line_json,
         "--mode", "exact", "--out", a_path)
    code, _, _ = _run(capsys, "run", "--program", PROG, "--data", line_json,
                      "--mode", "exact-d", "--workers", "4", "--job-depth", "2",
                      "--out", b_path)
    assert code == 0
    seq = {t["eid"]: t for t in json.loads(_read(a_path))["targets"]}
    rep = json.loads(_read(b_path))
    for t in rep["targets"]:
        assert abs(t["lower"] - seq[t["eid"]]["lower"]) < 1e-9
    assert rep["stats"]["jobs"] <= rep["stats"]["job_bound"]


def test_distributed_exact_files_do_not_depend_on_workers(capsys, line_json,
                                                          tmp_path):
    # every job commits its own account and the log is handed back in job
    # order, so the report and the job log repeat byte for byte
    files = set()
    for workers in ("1", "2", "4"):
        for run in range(2):
            out_path = str(tmp_path / ("d%s-%d.json" % (workers, run)))
            log_path = str(tmp_path / ("d%s-%d.log" % (workers, run)))
            assert _run(capsys, "run", "--program", PROG, "--data", line_json,
                        "--mode", "exact-d", "--workers", workers,
                        "--job-depth", "1", "--out", out_path,
                        "--job-log", log_path)[0] == 0
            files.add((_read(out_path, "rb"), _read(log_path, "rb")))
    assert len(files) == 1


def test_folded_flag(capsys, line_json, tmp_path):
    a_path = str(tmp_path / "u.json")
    b_path = str(tmp_path / "f.json")
    _run(capsys, "run", "--program", PROG, "--data", line_json,
         "--mode", "exact", "--targets", "Centre[-1,3,*,*]", "--out", a_path)
    code, _, _ = _run(capsys, "run", "--program", PROG, "--data", line_json,
                      "--mode", "exact", "--folded", "--out", b_path)
    assert code == 0
    ua = {t["eid"]: t for t in json.loads(_read(a_path))["targets"]}
    for t in json.loads(_read(b_path))["targets"]:
        assert abs(t["lower"] - ua[t["eid"]]["lower"]) < 1e-9


TWO_LOOPS = """(O, n) = loadData()
for it in range(0, 2):
 A = [None] * n
 for l in range(0, n):
  A[l] = dist(O[l], O[0]) <= 1.5
for j in range(0, 2):
 G = [None] * 1
 G[0] = A[0]
"""


def test_folded_defaults_are_the_folded_loops_finals(capsys, line_json,
                                                     tmp_path):
    # the it loop declares the most, so it is folded; the Boolean family of
    # the later j loop is not a default target
    prog = tmp_path / "two_loops.prog"
    prog.write_text(TWO_LOOPS)
    out_path = str(tmp_path / "f.json")
    code, _, _ = _run(capsys, "run", "--program", str(prog), "--data",
                      line_json, "--mode", "exact", "--folded", "--out", out_path)
    assert code == 0
    assert [t["eid"] for t in json.loads(_read(out_path))["targets"]] == [
        "A[-1,1,%d]" % l for l in range(4)]


def test_config_errors(capsys, line_json):
    code, _, err = _run(capsys, "run", "--program", PROG, "--data", line_json,
                        "--mode", "hybrid")
    assert code != 0 and "epsilon" in err
    code, _, err = _run(capsys, "run", "--program", PROG, "--data", line_json,
                        "--mode", "exact", "--workers", "4")
    assert code != 0 and "workers" in err


def test_parse_error_exit_code(capsys, line_json, tmp_path):
    bad = tmp_path / "bad.prog"
    bad.write_text("M = = 3\n")
    code, _, err = _run(capsys, "run", "--program", str(bad), "--data", line_json)
    assert code != 0
    assert "parse" in err


def test_event_program_parse_error_names_the_file(capsys, line_json,
                                                  tmp_path):
    bad = tmp_path / "bad.events"
    bad.write_text("A := true\nB := x1 $ x2\n")
    code, _, err = _run(capsys, "run", "--event-program", str(bad), "--data",
                        line_json)
    assert (code, err) == (
        2, "error: parse: %s:2:9: unexpected character '$'\n" % bad)


_APPROX = ("eager", "lazy", "hybrid", "hybrid-d")


@pytest.mark.parametrize("sum_body,flags,target,message", [
    ("2.0", [], "C[1]", "network: target 'C[1]' is not an event"),
    ("2.0", ["--folded"], "C[1]", "network: target 'C[1]' is not an event"),
    ("2.0", ["--mode", "naive"], "C[1]",
     "network: target 'C[1]' is not an event"),
    ("[1.0, 2.0]", [], "B[1]", "network: sum over mixed kinds"),
    ("[1.0, 2.0]", ["--folded"], "B[1]", "network: sum over mixed kinds"),
    ("[1.0, 2.0]", ["--mode", "naive"], "B[1]",
     "network: sum over mixed kinds"),
] + [
    # a guard's value is a c-value: every mode refuses a guard over an event
    ("(B[it])", flags, "C[1]", "network: guarded value is an event")
    for flags in [["--folded"]] + [
        ["--mode", m] + (["--epsilon", "0.1"] if m in _APPROX else [])
        for m in cli.MODES]
], ids=["not-event", "not-event-folded", "not-event-naive", "ill-typed",
        "ill-typed-folded", "ill-typed-naive", "guarded-event-folded"] + [
        "guarded-event-" + m for m in cli.MODES])
def test_network_stage_errors_exit_2(capsys, line_json, tmp_path, sum_body,
                                     flags, target, message):
    # every mode builds the network, the program's one type check, before
    # it computes: naive mode walks no world of a refused program
    ep_path = tmp_path / "prog.events"
    ep_path.write_text("forall it in 0..2:\n  B[it] := x1\n"
                       "  C[it] := (x1 ? 1.0) + (x2 ? %s)\n" % sum_body)
    argv = ["run", "--event-program", str(ep_path), "--data", line_json,
            "--targets", target] + flags
    code, out, err = _run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_filtered_sum_round_trips_through_event_program_text(
        capsys, line_json, tmp_path):
    # the filter guards each summand with an atom: ([ a <= b ] ? (v))
    prog = tmp_path / "filtered.prog"
    prog.write_text(
        "(O, n) = loadData()\n"
        "s = reduce_sum([dist(O[0], O[i]) for i in range(0, n)"
        " if dist(O[0], O[i]) <= 3.0])\n"
        "b = s <= 1.0\n")
    ep_path = str(tmp_path / "filtered.events")
    assert _run(capsys, "run", "--program", str(prog), "--data", line_json,
                "--emit-stage", "event-program", "--out", ep_path)[0] == 0
    reports = []
    for source in (("--program", str(prog)), ("--event-program", ep_path)):
        out_path = str(tmp_path / "report.json")
        code, _, err = _run(capsys, "run", *source, "--data", line_json,
                            "--targets", "b*", "--out", out_path)
        assert (code, err) == (0, "")
        reports.append(json.loads(_read(out_path))["targets"])
    assert reports[0] == reports[1]
    assert [t["eid"] for t in reports[0]] == ["b[0]"]
    assert abs(reports[0][0]["lower"] - 0.56) < 1e-9


@pytest.mark.parametrize("mode", ["exact", "naive"])
def test_program_without_boolean_array_needs_targets(capsys, line_json,
                                                     tmp_path, mode):
    # the default targets are the last Boolean array; with none, asking for
    # every declaration would select c-values, so --targets is required
    prog = tmp_path / "sum.prog"
    prog.write_text("(O, n) = loadData()\n"
                    "s = reduce_sum([dist(O[0], O[i]) for i in range(0, n)])\n")
    code, out, err = _run(capsys, "run", "--program", str(prog), "--data",
                          line_json, "--mode", mode)
    assert (code, out, err) == (
        2, "", "error: config: the program declares no Boolean array to "
        "target by default; pass --targets\n")


def test_folded_carry_kind_mismatch_exit_2(capsys, line_json, tmp_path):
    ep_path = tmp_path / "prog.events"
    ep_path.write_text("C[-1] := (x1 ? 1.0)\n"
                       "forall it in 0..2:\n"
                       "  C[it] := (x2 ? [1.0, 2.0])\n"
                       "  D[it] := [ C[it-1] <= (x1 ? 0.5) ]\n")
    code, _, err = _run(capsys, "run", "--event-program", str(ep_path),
                        "--data", line_json, "--targets", "D[1]", "--folded")
    assert (code, err) == (
        2, "error: network: carried family 'C' changes kind in the loop\n")


def test_run_closes_its_files(capsys, line_json, tmp_path):
    ep_path = str(tmp_path / "prog.events")
    _run(capsys, "run", "--program", PROG, "--data", line_json,
         "--emit-stage", "event-program", "--out", ep_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for source in (("--program", PROG), ("--event-program", ep_path)):
            assert _run(capsys, "run", *source, "--data", line_json,
                        "--targets", "Centre[0,*,*]")[0] == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_gen_then_run_pipeline(capsys, tmp_path):
    ds_path = str(tmp_path / "gen.json")
    code, out, _ = _run(capsys, "gen", "--scheme", "mutex", "--n", "8",
                        "--group", "2", "--m", "2", "--iter", "1",
                        "--seed", "5", "--out", ds_path)
    assert code == 0
    out_path = str(tmp_path / "res.json")
    code, _, _ = _run(capsys, "run", "--program", PROG, "--data", ds_path,
                      "--mode", "exact", "--out", out_path)
    assert code == 0


def test_check_subcommand(capsys, monkeypatch):
    code, out, _ = _run(capsys, "check", "--count", "5", "--max-vars", "6")
    assert code == 0
    assert "5/5 instances matched" in out
    # exact-d runs at 1 and 2 workers; bounds one ulp apart fail the check
    def nudged(net, vt, epsilon, scheme, workers, job_depth):
        result = run_distributed(net, vt, epsilon, scheme, workers=workers,
                                 job_depth=job_depth)
        calls.append((scheme, workers, job_depth))
        if workers == 2:
            tb = result.targets[0]
            tb.upper = math.nextafter(tb.upper, 0.0)
        return result

    run_distributed, calls = cli.run_distributed, []
    monkeypatch.setattr(cli, "run_distributed", nudged)
    code, out, _ = _run(capsys, "check", "--count", "2", "--max-vars", "6")
    assert code == 1
    assert calls == [("exact", 1, 2), ("exact", 2, 2)] * 2
    assert out.count("FAIL: exact-d bounds differ at 1 and 2 workers") == 2
    assert "0/2 instances matched" in out


def test_check_sweeps_the_event_program_text_route(capsys, monkeypatch):
    # each instance's program is also emitted and parsed back
    from manyworlds.eventprog import ProgramSyntaxError

    def unreadable(text, filename="<input>"):
        raise ProgramSyntaxError("unreadable", 1, 1, filename)

    monkeypatch.setattr(cli, "parse_event_program", unreadable)
    code, out, _ = _run(capsys, "check", "--count", "2", "--max-vars", "6")
    assert code == 1
    assert out.count("FAIL: text route: <input>:1:1: unreadable") == 2
    assert "0/2 instances matched" in out

from __future__ import annotations

import json
from importlib import resources

import pytest

from mhgfilter import AnnotationTuple, format_trace
from mhgfilter.cli import main
from oracles import builtin_document, renamed_mini_document, unchecked_lifted_apply
from test_domain import empty_start_document, leave_document
from test_oracle import unchecked_document


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def mini_trace(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    code, _, _ = run(capsys, "gentrace", "--domain", "mini", "--seed", "1",
                     "--length", "6", "--output", str(path))
    assert code == 0
    return path


def test_gentrace_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for path in (a, b):
        code, _, _ = run(capsys, "gentrace", "--domain", "mini", "--seed", "7",
                         "--length", "10", "--output", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().splitlines()
    assert len(lines) == 10
    assert all(json.loads(line)["action"] for line in lines)


def test_filter_reports_run_totals(tmp_path, mini_trace, capsys):
    reports = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        code, stdout, _ = run(capsys, "filter", "--domain", "mini",
                              "--trace", str(mini_trace), "--output", str(out))
        assert code == 0
        assert stdout == ""
        reports.append(json.loads(out.read_text()))
    for report in reports:
        report.pop("elapsed_seconds")
    assert reports[0] == reports[1]
    report = reports[0]
    assert report["format"] == "mhg-run-report/1"
    assert report["consistent"] is True
    assert report["mode"] == "lifted"
    assert report["totals"]["steps"] == 6
    assert report["totals"]["compression_ratio"] >= 1.0
    assert len(report["steps"]) == 7
    assert report["steps"][0] == {"step": 0, "action": None, "lifted_count": 1,
                                  "ground_count": 1, "log_z": 0.0,
                                  "mode": "lifted", "dropped_mass": 0.0}


def test_a_builtin_name_and_its_document_give_one_report(mini_trace, capsys):
    """``--domain mini`` and ``--domain`` the shipped ``domains/mini.json``
    report the same run, apart from the time taken and the names given."""
    reports = []
    for spec in ("mini", str(resources.files("mhgfilter") / "domains" / "mini.json")):
        code, out, _ = run(capsys, "filter", "--domain", spec,
                           "--trace", str(mini_trace))
        assert code == 0
        report = json.loads(out)
        for key in ("elapsed_seconds", "domain", "trace"):
            del report[key]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["totals"]["steps"] == 6


def test_filter_ground_mode_agrees(mini_trace, capsys):
    code, lifted_out, _ = run(capsys, "filter", "--domain", "mini",
                              "--trace", str(mini_trace))
    assert code == 0
    code, ground_out, _ = run(capsys, "filter", "--domain", "mini",
                              "--trace", str(mini_trace), "--mode", "ground")
    assert code == 0
    lifted = json.loads(lifted_out)
    ground = json.loads(ground_out)
    assert ground["mode"] == "ground"
    assert ground["totals"]["log_likelihood"] == pytest.approx(
        lifted["totals"]["log_likelihood"], abs=1e-9)


def test_compare_clean_trace_exits_zero(mini_trace, capsys):
    code, out, _ = run(capsys, "compare", "--domain", "mini",
                       "--trace", str(mini_trace))
    assert code == 0
    report = json.loads(out)
    assert report["format"] == "mhg-compare-report/1"
    assert report["divergent"] is False
    assert report["max_tv"] <= 1e-9
    assert len(report["per_step_tv"]) == 7


def test_compare_divergent_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("mhgfilter.filtering.lifted_apply", unchecked_lifted_apply)
    domain_path = tmp_path / "unchecked.json"
    domain_path.write_text(json.dumps(unchecked_document()))
    trace_path = tmp_path / "trace.jsonl"
    trace_path.write_text(format_trace(
        [AnnotationTuple("install", "table", "table",
                         {"eccentric": 1}, {"eccentric": 0})]))
    code, out, _ = run(capsys, "compare", "--domain", str(domain_path),
                       "--trace", str(trace_path))
    assert code == 1
    report = json.loads(out)
    assert report["divergent"] is True
    assert report["max_tv"] == pytest.approx(2 / 3)


def test_corrupted_trace_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    code, _, _ = run(capsys, "gentrace", "--domain", "mini", "--seed", "3",
                     "--length", "8", "--corrupt-at", "5", "--output", str(path))
    assert code == 0
    code, out, _ = run(capsys, "filter", "--domain", "mini", "--trace", str(path))
    assert code == 2
    report = json.loads(out)
    assert report["consistent"] is False
    assert report["inconsistent_at"] == 5
    assert report["inconsistent_action"] == json.loads(
        path.read_text().splitlines()[5])["action"]


def test_compare_on_a_corrupted_trace_exits_two(tmp_path, capsys):
    """``compare`` reports the inconsistent step on one error line and
    writes no report."""
    path = tmp_path / "bad.jsonl"
    code, _, _ = run(capsys, "gentrace", "--domain", "mini", "--seed", "3",
                     "--length", "8", "--corrupt-at", "5", "--output", str(path))
    assert code == 0
    code, out, err = run(capsys, "compare", "--domain", "mini", "--trace", str(path))
    assert (code, out) == (2, "")
    assert err == "error: inconsistent trace at step 5\n"


def test_gentrace_cut_short_by_a_dead_end_warns_and_exits_zero(tmp_path, capsys):
    """With ``take`` as its only rule and the agent at the table, the agent
    takes the five items there and then meets a dead end: the five steps
    are written, with one warning line."""
    doc = builtin_document("mini")
    doc["rules"] = [r for r in doc["rules"] if r["name"] == "take"]
    doc["edges"][0]["incidence"] = ["agent", "table"]
    domain = tmp_path / "taker.json"
    domain.write_text(json.dumps(doc))
    trace = tmp_path / "trace.jsonl"
    code, out, err = run(capsys, "gentrace", "--domain", str(domain), "--seed", "0",
                         "--length", "8", "--output", str(trace))
    assert (code, out) == (0, "")
    assert err == "warning: trace truncated at 5 steps (dead end)\n"
    assert len(trace.read_text().splitlines()) == 5


def test_gentrace_that_loses_the_agent_exits_six(tmp_path, capsys):
    """A rule that leaves the agent without a location makes a step no
    annotation can record: one error line naming it, and no trace."""
    domain = tmp_path / "leave.json"
    domain.write_text(json.dumps(leave_document()))
    trace = tmp_path / "trace.jsonl"
    code, out, err = run(capsys, "gentrace", "--domain", str(domain), "--seed", "0",
                         "--length", "6", "--output", str(trace))
    assert (code, out) == (6, "") and not trace.exists()
    assert err.startswith("error: step 1 (rule 'leave'): ") and err.count("\n") == 1


def test_corrupt_at_outside_the_trace_exits_seven(tmp_path, capsys):
    """An out-of-range ``--corrupt-at`` prints one error line and writes no
    trace."""
    path = tmp_path / "bad.jsonl"
    for step in ("9", "-1"):
        code, out, err = run(capsys, "gentrace", "--domain", "mini", "--length",
                             "5", "--corrupt-at", step, "--output", str(path))
        assert code == 7
        assert out == "" and not path.exists()
        assert err.startswith("error: corrupt_at ") and err.count("\n") == 1


def test_corrupt_at_without_a_holdable_label_exits_seven(tmp_path, capsys):
    doc = builtin_document("mini")
    doc["labels"]["holdable"] = []
    domain = tmp_path / "nothing_holdable.json"
    domain.write_text(json.dumps(doc))
    path = tmp_path / "bad.jsonl"
    code, out, err = run(capsys, "gentrace", "--domain", str(domain), "--length",
                         "3", "--corrupt-at", "1", "--output", str(path))
    assert (code, out) == (7, "") and not path.exists()
    assert err.startswith("error: corrupt_at ") and err.count("\n") == 1


def test_an_unknown_annotation_key_exits_three(tmp_path, capsys):
    path = tmp_path / "typo.jsonl"
    path.write_text('{"action": "walk", "loc_t": "floor", "loc_next": "table", '
                    '"held_nxt": {"eccentric": 1}}\n')
    for command in ("filter", "compare"):
        code, out, err = run(capsys, command, "--domain", "mini", "--trace", str(path))
        assert (code, out) == (3, "")
        assert "typo.jsonl:1" in err and "'held_nxt'" in err


def test_parse_problems_exit_three(tmp_path, capsys):
    bad_trace = tmp_path / "bad.jsonl"
    bad_trace.write_text("{not json\n")
    code, _, err = run(capsys, "filter", "--domain", "mini",
                       "--trace", str(bad_trace))
    assert code == 3
    assert "bad.jsonl:1" in err
    bad_domain = tmp_path / "domain.json"
    bad_domain.write_text(json.dumps({"format": "mhg-domain/0"}))
    code, _, err = run(capsys, "gentrace", "--domain", str(bad_domain))
    assert code == 3
    assert "mhg-domain/0" in err


def test_a_domain_file_that_is_not_json_exits_three(tmp_path, capsys):
    path = tmp_path / "domain.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "gentrace", "--domain", str(path))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {path}:1: bad JSON: ")



def test_a_domain_file_that_is_not_utf8_exits_three(tmp_path, mini_trace, capsys):
    """A domain document in Latin-1 is a parse error naming the file, not a
    ``UnicodeDecodeError`` traceback."""
    path = tmp_path / "domain.json"
    document = json.dumps(builtin_document("mini"), ensure_ascii=False)
    path.write_bytes(document.replace('"mini"', '"mini é"').encode("latin-1"))
    for argv in (("gentrace",), ("filter", "--trace", str(mini_trace)),
                 ("compare", "--trace", str(mini_trace))):
        code, out, err = run(capsys, argv[0], "--domain", str(path), *argv[1:])
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {path}: not UTF-8: byte 0xe9 at offset ")
        assert err.count("\n") == 1


def test_a_trace_file_that_is_not_utf8_exits_three(tmp_path, mini_trace, capsys):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(mini_trace.read_bytes() + b'# caf\xe9\n')
    for command in ("filter", "compare"):
        code, out, err = run(capsys, command, "--domain", "mini", "--trace", str(path))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {path}: not UTF-8: byte 0xe9 at offset ")
        assert err.count("\n") == 1


def test_bad_domain_values_exit_three(tmp_path, mini_trace, capsys):
    """An initial state that breaks conservation, and a label list written as
    a string, are parse errors rather than a crash or an inconsistent trace."""
    for key, change in (("leaky", lambda d: d["vertices"][3].update(multiplicity=5)),
                        ("stringly", lambda d: d["labels"].update(holdable="eccentric"))):
        doc = builtin_document("mini")
        assert doc["vertices"][3]["id"] == "eccentric"
        change(doc)
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "filter", "--domain", str(path),
                             "--trace", str(mini_trace))
        assert code == 3
        assert out == ""
        assert f"{key}.json" in err

def test_values_of_the_wrong_type_exit_three(tmp_path, mini_trace, capsys):
    """A vertex label written as a number, or an incidence written as a
    string, is a parse error naming the value, not a traceback that exits 1
    as if ``compare`` had diverged."""
    changes = {"7": lambda d: d["vertices"][3].update(label=7),
               "'pq'": lambda d: d["edges"][0].update(incidence="pq")}
    for i, (shown, change) in enumerate(changes.items()):
        doc = builtin_document("mini")
        change(doc)
        path = tmp_path / f"typed{i}.json"
        path.write_text(json.dumps(doc))
        for argv in (("gentrace", "--domain", str(path), "--length", "3"),
                     ("compare", "--domain", str(path), "--trace", str(mini_trace))):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, ""), argv
            assert f"typed{i}.json" in err and shown in err, argv


def test_an_agent_that_is_no_vertex_exits_three(tmp_path, mini_trace, capsys):
    """An ``agent`` that names no vertex is a parse error, not a run that
    reports every trace inconsistent or writes ``"loc_t": null``."""
    doc = builtin_document("mini")
    doc["agent"] = "robot"
    path = tmp_path / "robot.json"
    path.write_text(json.dumps(doc))
    for argv in (("filter", "--domain", str(path), "--trace", str(mini_trace)),
                 ("gentrace", "--domain", str(path), "--length", "3")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "robot.json" in err and "'robot'" in err


def test_an_initial_state_without_groundings_exits_three(tmp_path, mini_trace,
                                                        capsys):
    """Constraints that no grounding meets are a parse error of the domain
    for every command, not an empty belief or a crash mid-run."""
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(empty_start_document()))
    trace = ("--trace", str(mini_trace))
    for argv in (("gentrace", "--length", "3"), ("filter", *trace),
                 ("filter", "--mode", "ground", *trace), ("compare", *trace)):
        code, out, err = run(capsys, *argv, "--domain", str(path))
        assert (code, out) == (3, ""), argv
        assert "empty.json" in err and "admit no grounding" in err, argv


def test_install_heavy_on_variables_named_otherwise_exits_zero(tmp_path, capsys):
    """``gentrace --policy install_heavy`` on a domain whose ``walk`` and
    ``take`` name their variables otherwise writes a trace that filters."""
    domain = tmp_path / "renamed.json"
    domain.write_text(json.dumps(renamed_mini_document()))
    trace = tmp_path / "trace.jsonl"
    code, _, err = run(capsys, "gentrace", "--domain", str(domain), "--policy",
                       "install_heavy", "--seed", "0", "--length", "12",
                       "--output", str(trace))
    assert (code, err) == (0, "")
    code, out, _ = run(capsys, "filter", "--domain", str(domain), "--trace", str(trace))
    assert code == 0 and json.loads(out)["totals"]["steps"] == 12


def test_bad_action_models_exit_three(tmp_path, mini_trace, capsys):
    """Action weights that are not finite non-negative numbers, name no rule
    of the domain or no agent location are parse errors, not a crash mid-run
    that exits 1 as if ``compare`` had diverged."""
    models = [{"weights": {"walk": "5"}}, {"weights": {"walk": None}},
              {"weights": {"walk": -1}}, {"weights": {"walk": True}},
              {"weights": {"fly": 1}}, {"weights": [["walk", 1]]},
              {"by_location": {"table": {"walk": -1}}},
              {"by_location": {"eccentric": {"walk": 1}}}]
    for i, model in enumerate(models):
        doc = builtin_document("mini")
        doc["action_model"] = model
        path = tmp_path / f"model{i}.json"
        path.write_text(json.dumps(doc))
        for mode in ("lifted", "ground"):
            code, out, err = run(capsys, "filter", "--domain", str(path),
                                 "--trace", str(mini_trace), "--mode", mode)
            assert (code, out) == (3, ""), model
            assert f"model{i}.json: bad domain document: action_model" in err


def test_dynamics_that_break_an_invariant_exit_six(tmp_path, mini_trace, capsys):
    """A ``walk`` that also puts the screwdriver where the agent goes breaks
    the screwdriver's conservation; every command that filters reports it
    and exits 6."""
    doc = builtin_document("mini")
    walk = next(r for r in doc["rules"] if r["name"] == "walk")
    walk["effect"]["assert"].append({"label": "at", "vars": ["screwdriver", "Y"]})
    path = tmp_path / "leaky_walk.json"
    path.write_text(json.dumps(doc))
    for argv in (("filter",), ("filter", "--mode", "ground"), ("compare",)):
        code, out, err = run(capsys, *argv, "--domain", str(path),
                             "--trace", str(mini_trace))
        assert (code, out) == (6, ""), argv
        assert err.startswith("error: ") and "screwdriver" in err, argv


def test_enumeration_cap_exits_four(tmp_path, capsys):
    """Seven free [0,9] marks give 10^7 groundings: lifted filtering never
    enumerates them, the ground reference has to and stops at the cap."""
    marks = [f"m{i}" for i in range(7)]
    domain = tmp_path / "marks.json"
    domain.write_text(json.dumps({
        "format": "mhg-domain/1", "agent": "agent",
        "labels": {"locations": ["floor"], "agent_locations": ["floor"],
                   "holdable": []},
        "vertices": [{"id": "agent", "label": "agent"},
                     {"id": "floor", "label": "floor"}]
                    + [{"id": m, "label": "mark"} for m in marks],
        "edges": [{"label": "at", "incidence": ["agent", "floor"]}],
        "bounded_edges": [{"label": "mark", "incidence": [m], "lower": 0,
                           "upper": 9} for m in marks],
        "rules": [{"name": "wait",
                   "pattern": {"vertices": [{"var": "A", "label": "agent"}]}}],
    }))
    trace = tmp_path / "wait.jsonl"
    trace.write_text(json.dumps({"action": "wait", "loc_t": "floor",
                                 "loc_next": "floor"}) + "\n")
    code, out, _ = run(capsys, "filter", "--domain", str(domain),
                       "--trace", str(trace))
    assert code == 0
    assert json.loads(out)["totals"]["max_ground_equivalent"] == 10 ** 7
    code, _, err = run(capsys, "filter", "--domain", str(domain),
                       "--trace", str(trace), "--mode", "ground")
    assert code == 4
    assert "exceeds cap" in err


def test_missing_files_exit_five(tmp_path, capsys):
    code, _, err = run(capsys, "filter", "--domain", "mini",
                       "--trace", str(tmp_path / "nope.jsonl"))
    assert code == 5
    assert "error" in err
    code, _, _ = run(capsys, "filter", "--domain", str(tmp_path / "nodomain.json"),
                     "--trace", str(tmp_path / "nope.jsonl"))
    assert code == 5
    # a mistyped built-in name is neither a built-in nor a file
    code, out, err = run(capsys, "gentrace", "--domain", "warehouse")
    assert code == 5 and not out
    assert "'warehouse' is neither a built-in domain (bookshelf, mini)" in err


def test_compare_tolerance_flag(mini_trace, capsys):
    code, out, _ = run(capsys, "compare", "--domain", "mini",
                       "--trace", str(mini_trace), "--tolerance", "1e-12")
    assert json.loads(out)["tolerance"] == 1e-12
    code, out, _ = run(capsys, "compare", "--domain", "mini",
                       "--trace", str(mini_trace), "--tolerance", "0")
    assert code == 0 and json.loads(out)["tolerance"] == 0.0


@pytest.mark.parametrize("bad", ["abc", "nan", "inf", "-inf", "-1e-9", "-0.5"])
def test_compare_rejects_a_tolerance_that_is_not_finite_and_non_negative(
        bad, mini_trace, capsys):
    """A NaN tolerance would let every comparison pass and an infinite one
    would print a report that is not JSON: both are usage errors, like a
    tolerance that is not a number."""
    code, out, err = run(capsys, "compare", "--domain", "mini",
                         "--trace", str(mini_trace), f"--tolerance={bad}")
    assert code == 8
    assert out == ""
    assert "argument --tolerance" in err
    if bad != "abc":
        assert f"{bad!r} is not finite and >= 0" in err


def test_usage_errors_exit_eight_and_help_exits_zero(tmp_path, capsys):
    """A negative ``--length`` is a usage error, like an unknown option or
    a missing subcommand, and none of them writes a trace; ``--help``
    prints the usage and exits 0."""
    path = tmp_path / "trace.jsonl"
    for argv in (["gentrace", "--domain", "mini", "--length", "-3"],
                 ["gentrace", "--domain", "mini", "--length", "x"],
                 ["gentrace", "--domain", "mini", "--no-such-flag"],
                 []):
        code, out, err = run(capsys, *argv, "--output", str(path))
        assert code == 8 and out == "" and err.startswith("usage: mhgfilter")
        assert not path.exists()
    assert "argument --length: '-3' is negative" in run(
        capsys, "gentrace", "--domain", "mini", "--length", "-3")[2]
    code, out, _ = run(capsys, "gentrace", "--help")
    assert code == 0 and out.startswith("usage: mhgfilter gentrace")
    code, out, _ = run(capsys, "gentrace", "--domain", "mini", "--length", "0")
    assert code == 0 and out == ""

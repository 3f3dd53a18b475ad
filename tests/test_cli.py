import io
import json

import pytest

from hamclass.cli import main
from hamclass.graphs import (
    complete_graph,
    cycle_graph,
    path_graph,
    petersen,
    write_graph6,
)

PETERSEN = write_graph6(petersen())
K5 = write_graph6(complete_graph(5))


@pytest.fixture(autouse=True)
def single_worker(monkeypatch):
    monkeypatch.setenv("HAMCLASS_WORKERS", "1")


def feed(monkeypatch, *lines):
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(line + "\n" for line in lines)))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_member_exits_one(monkeypatch, capsys):
    feed(monkeypatch, PETERSEN)
    code, out, _ = run(capsys, ["check", "--k", "1"])
    assert code == 1
    (line,) = out.splitlines()
    cert = json.loads(line)
    assert cert["verdict"] == "member"
    assert len(cert["witness_walks"]) == 10


def test_check_refuted_exits_zero(monkeypatch, capsys):
    feed(monkeypatch, K5)
    code, out, _ = run(capsys, ["check", "--k", "1"])
    assert code == 0
    cert = json.loads(out)
    assert cert["verdict"] == "refuted"
    assert cert["reason"] == "wrong_length"
    assert cert["found_length"] == 5


def test_check_garbage_exits_two(monkeypatch, capsys):
    feed(monkeypatch, "!!nonsense")
    code, out, err = run(capsys, ["check", "--k", "1"])
    assert code == 2
    assert out == ""
    assert "error" in err


def test_check_bad_record_keeps_member_status(monkeypatch, capsys, caplog):
    feed(monkeypatch, PETERSEN, "zzz")
    code, out, err = run(capsys, ["check", "--k", "1"])
    assert code == 1
    (line,) = out.splitlines()
    assert json.loads(line)["verdict"] == "member"
    assert "record 2 skipped" in caplog.text
    assert "error" not in err


def test_check_witness_suppression(monkeypatch, capsys):
    feed(monkeypatch, PETERSEN)
    code, out, err = run(capsys, ["check", "--k", "1", "--no-emit-witness"])
    assert code == 1
    cert = json.loads(out)
    assert cert["verdict"] == "member"
    assert cert["witness_walks"] is None
    assert "10 deletion witnesses withheld" in err


def test_check_reads_file_with_header(tmp_path, capsys):
    target = tmp_path / "batch.g6"
    target.write_text(f">>graph6<<{PETERSEN}\n{K5}\n")
    code, out, _ = run(capsys, ["check", str(target), "--k", "1"])
    assert code == 1
    verdicts = [json.loads(line)["verdict"] for line in out.splitlines()]
    assert verdicts == ["member", "refuted"]


def test_scan_threshold_report(capsys):
    code, out, _ = run(capsys, ["scan", "--n", "10", "--k", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["total_examined"] == 1733
    assert report["pruned_per_rule"]["order_threshold"] == 1733
    assert report["fully_decided"] == 0
    assert report["members_found"] == []


def test_scan_gen_cap_exits_two(capsys):
    code, out, err = run(capsys, ["scan", "--n", "11", "--k", "1"])
    assert code == 2
    assert out == ""
    assert "order 11" in err


def test_scan_stream_finds_member(monkeypatch, capsys):
    feed(monkeypatch, PETERSEN, write_graph6(cycle_graph(10)))
    code, out, _ = run(capsys, ["scan", "--n", "10", "--k", "1", "--source", "-"])
    assert code == 1
    report = json.loads(out)
    assert report["members_found"] == [PETERSEN]
    assert report["total_examined"] == 2


def test_scan_rules_off(capsys):
    code, out, _ = run(capsys, ["scan", "--n", "6", "--k", "1", "--rules"])
    assert code == 0
    report = json.loads(out)
    assert report["prune_rules"] == []
    assert report["total_examined"] == report["fully_decided"] == 112


def test_scan_rejects_bad_workers(monkeypatch, capsys):
    monkeypatch.setenv("HAMCLASS_WORKERS", "0")
    code, _, err = run(capsys, ["scan", "--n", "5", "--k", "1"])
    assert code == 2 and "HAMCLASS_WORKERS" in err


def test_bounds_threshold_only(capsys):
    code, out, _ = run(capsys, ["bounds", "--k", "2"])
    assert code == 0
    assert json.loads(out) == {"class": "gamma", "k": 2, "threshold": 11}


def test_bounds_with_order(capsys):
    code, out, _ = run(capsys, ["bounds", "--k", "2", "--n", "10"])
    assert code == 0
    payload = json.loads(out)
    assert payload["max_degree_bound"] == "7/2"
    assert payload["min_degree_floor"] == 4
    assert payload["contradiction"] is True

    code, out, _ = run(capsys, ["bounds", "--k", "1", "--n", "10"])
    payload = json.loads(out)
    assert payload["max_degree_bound"] == "5"
    assert payload["min_degree_floor"] == 3
    assert payload["contradiction"] is False


def test_audit_requires_k_two(monkeypatch, capsys):
    feed(monkeypatch, K5)
    code, _, err = run(capsys, ["audit", "--k", "1"])
    assert code == 2 and "at least 2" in err


def test_audit_empty_input(monkeypatch, capsys):
    feed(monkeypatch)
    code, out, _ = run(capsys, ["audit", "--k", "2"])
    assert code == 0 and out == ""


def test_audit_reports_and_skips(monkeypatch, capsys):
    feed(monkeypatch, K5, write_graph6(path_graph(4)))
    code, out, err = run(capsys, ["audit", "--k", "2"])
    assert code == 0
    (line,) = out.splitlines()
    payload = json.loads(line)
    assert payload["graph6"] == K5
    assert len(payload["gaps"]) == 3
    assert all(not gap["satisfied"] for gap in payload["gaps"])
    assert payload["improvement"] is not None
    assert "record 2 skipped" in err


def test_oracle_circumference(monkeypatch, capsys):
    feed(monkeypatch, PETERSEN, write_graph6(path_graph(5)))
    code, out, _ = run(capsys, ["oracle", "--op", "circumference"])
    assert code == 0
    first, second = (json.loads(line) for line in out.splitlines())
    assert first["value"] == 9 and len(first["witness"]) == 9
    assert second["value"] == 0 and second["witness"] is None


def test_oracle_skips_record_it_cannot_answer(monkeypatch, capsys, caplog):
    feed(monkeypatch, "@", PETERSEN)
    code, out, err = run(capsys, ["oracle", "--op", "connectivity"])
    assert code == 2
    (line,) = out.splitlines()
    assert json.loads(line) == {"graph6": PETERSEN, "op": "connectivity", "value": 3, "witness": None}
    assert "record 1 skipped" in caplog.text
    assert "error: 1 record(s) skipped" in err


def test_scan_stream_skipped_records_exit_two(monkeypatch, capsys):
    feed(monkeypatch, write_graph6(cycle_graph(10)), "!!nonsense", write_graph6(cycle_graph(5)))
    code, out, err = run(capsys, ["scan", "--n", "10", "--k", "1", "--source", "-"])
    assert code == 2
    report = json.loads(out)
    assert report["total_examined"] == 1 and report["skipped_records"] == 2
    assert "error: 2 record(s) skipped" in err


def test_oracle_other_ops(monkeypatch, capsys):
    feed(monkeypatch, PETERSEN)
    code, out, _ = run(capsys, ["oracle", "--op", "connectivity"])
    assert json.loads(out)["value"] == 3

    feed(monkeypatch, K5)
    _, out, _ = run(capsys, ["oracle", "--op", "hamcycle"])
    assert json.loads(out)["value"] is True

    feed(monkeypatch, write_graph6(cycle_graph(6)))
    _, out, _ = run(capsys, ["oracle", "--op", "detour"])
    payload = json.loads(out)
    assert payload["value"] == 6 and len(payload["witness"]) == 6

    feed(monkeypatch, write_graph6(path_graph(5)))
    _, out, _ = run(capsys, ["oracle", "--op", "hampath"])
    assert json.loads(out)["value"] is True


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["scan", "--n", "5"])
    assert excinfo.value.code == 2

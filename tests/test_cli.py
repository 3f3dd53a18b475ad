import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hamclass
from hamclass.cli import _workers, main
from hamclass.graphs import petersen, write_graph6
from util import complete_graph, cycle_graph, path_graph

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


def test_check_file_with_non_ascii_record_keeps_member(tmp_path, capsys, caplog):
    target = tmp_path / "bad.g6"
    target.write_bytes(b"I?LRCecq?\n\xff\xfe\n")
    code, out, err = run(capsys, ["check", "--k", "1", str(target)])
    assert code == 1
    (line,) = out.splitlines()
    assert json.loads(line)["verdict"] == "member"
    assert "record 2 skipped" in caplog.text
    assert "error" not in err


@pytest.mark.parametrize(
    "argv", [["check", "--k", "1", "-"], ["scan", "--n", "10", "--k", "1", "--source", "-"]]
)
def test_stdin_with_non_ascii_record_keeps_member(argv):
    # a strict stdin decoder must not turn one bad record into a failed run
    src = str(Path(hamclass.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONIOENCODING="utf-8:strict")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hamclass.cli", *argv],
        input=b"I?LRCecq?\n\xff\xfe\n",
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 1
    assert "record 2 skipped" in proc.stderr.decode()
    (line,) = proc.stdout.decode().splitlines()
    if argv[0] == "check":
        assert json.loads(line)["verdict"] == "member"
    else:
        assert json.loads(line)["members_found"] == ["I?LRCecq?"]


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


def test_scan_parity_empty_window_starts_no_generation(monkeypatch, capsys):
    # Pi(11;2) has the window [3, 3] at odd order: no cubic graph of order
    # 11 exists (handshake lemma), so the scan passes the order cap of the
    # generator and must not walk the tree
    def no_roots(*args, **kwargs):
        raise AssertionError("a parity-empty window started generation")

    monkeypatch.setattr(hamclass.search, "subtree_roots", no_roots)
    code, out, _ = run(capsys, ["scan", "--n", "11", "--k", "2", "--class", "pi"])
    assert code == 0
    report = json.loads(out)
    assert report["total_examined"] == 0
    assert report["pruned_per_rule"] == {
        "order_threshold": 0,
        "min_degree": 0,
        "max_degree": 0,
        "connectivity": 0,
    }
    assert report["fully_decided"] == 0
    assert report["members_found"] == []


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


@pytest.mark.parametrize("raw", ["0", "abc"])
def test_scan_rejects_bad_workers(monkeypatch, capsys, raw):
    monkeypatch.setenv("HAMCLASS_WORKERS", raw)
    code, _, err = run(capsys, ["scan", "--n", "5", "--k", "1"])
    assert code == 2
    assert f"HAMCLASS_WORKERS must be a positive integer, got {raw!r}" in err
    # unset, it means one worker per CPU
    monkeypatch.delenv("HAMCLASS_WORKERS")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _workers() == 3


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


# sha256 of audit's stdout over every connected graph of order 1..8 (the
# sorted graph6 of the corpus fixture), with the number of report lines
AUDIT_CORPUS_PINS = [
    pytest.param("gamma", 2, "72757eaa3e23969cb92db8a33b841e23ba69558c6b0ff58fb26c35bb1c757218", 1501, id="gamma"),
    pytest.param("pi", 2, "25d15290d39db848f9da3a840803fd0c7ce8a967927ccae2ecdf1c31fa1532bc", 308, id="pi"),
    pytest.param("gamma", 3, "57ab26eff640b293d1e36c628cf6071bf892cf2598e6cb602caa9bc80c1902b2", 520, id="gamma-k3"),
    pytest.param("pi", 3, "4e1f5d8e7083afc1634d651b3fca7e99e73a727462b432f7eb0a7022777569ad", 24, id="pi-k3"),
]


@pytest.mark.parametrize(("kind", "k", "digest", "count"), AUDIT_CORPUS_PINS)
def test_audit_corpus_output_pinned(kind, k, digest, count, corpus, tmp_path, capsys):
    target = tmp_path / "corpus.g6"
    lines = sorted(write_graph6(g) for graphs in corpus.values() for g in graphs)
    target.write_text("".join(line + "\n" for line in lines))
    code, out, _ = run(capsys, ["audit", str(target), "--k", str(k), "--class", kind])
    assert code == 0
    assert len(out.splitlines()) == count
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_oracle_circumference(monkeypatch, capsys):
    feed(monkeypatch, PETERSEN, write_graph6(path_graph(5)))
    code, out, _ = run(capsys, ["oracle", "--op", "circumference"])
    assert code == 0
    first, second = (json.loads(line) for line in out.splitlines())
    assert first["value"] == 9 and len(first["witness"]) == 9
    # the witness README prints for this record
    assert first["witness"] == [3, 7, 0, 9, 4, 2, 6, 1, 5]
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

"""Command-line interface: commands, exit codes, determinism."""

import argparse
import json
from dataclasses import fields

import pytest

from pathlib import Path

import mpcmarket
from mpcmarket import cli
from mpcmarket.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    RunConfig,
    _run_config_from_args,
    _sessions,
    build_parser,
    main,
)


class TestRun:
    def test_ld_gc_small(self, capsys):
        rc = main(["run", "--workload", "ld", "--backend", "gc", "--M", "1",
                   "--repeat", "1", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "verified against plaintext oracle: True" in out
        assert "#non-XOR" in out

    def test_ld_gc_report_jsonl(self, tmp_path, capsys):
        rec_path = tmp_path / "report.jsonl"
        rc = main(["run", "--workload", "ld", "--M", "2", "--repeat", "1",
                   "--seed", "5", "--jsonl", str(rec_path)])
        assert rc == EXIT_OK
        rec = json.loads(rec_path.read_text().splitlines()[0])
        assert rec["workload"] == "ld" and rec["M"] == 2
        assert rec["verified"] is True
        assert rec["non_xor"] > 0

    def test_lr_gc_rows(self, capsys):
        rc = main(["run", "--workload", "lr", "--rows", "1", "--repeat", "1",
                   "--seed", "1"])
        assert rc == EXIT_OK
        assert "verified against plaintext oracle: True" in capsys.readouterr().out

    def test_config_rejection_exit_code(self, capsys):
        # 20 bits exceeds the garbled circuit's window; below 2 bits no backend runs.
        for argv in (["--count-bits", "20"], ["--count-bits", "1"],
                     ["--backend", "he", "--count-bits", "1"]):
            rc = main(["run", "--workload", "ld", *argv])
            assert rc == EXIT_CONFIG
            assert "configuration rejected" in capsys.readouterr().err

    def test_he_count_bits_beyond_the_circuit_window(self, capsys):
        # 13 bits exceeds the garbled circuit's window [3, 12], not the HE plan.
        rc = main(["run", "--backend", "he", "--M", "2", "--count-bits", "13",
                   "--repeat", "1", "--seed", "4"])
        assert rc == EXIT_OK
        assert "verified against plaintext oracle: True" in capsys.readouterr().out

    def test_he_depth_rejection_exit_code(self, capsys):
        # LD needs depth 3; n=4096 cannot host it, rejected before any work
        rc = main(["run", "--workload", "ld", "--backend", "he", "--n", "4096",
                   "--repeat", "1"])
        assert rc == EXIT_CONFIG
        assert "rejected" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("workload=ld\nbackend=gc\nm_instances=2\nrepeat=1\nseed=9\n")
        rc = main(["run", "--config", str(cfg), "--M", "1"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "decisions: [" in out and out.count(",") >= 0
        # --M 1 overrides m_instances=2 from the file
        assert "decisions: [True]" in out or "decisions: [False]" in out

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wrkload=ld\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG

    def test_range_bits_rejected_before_any_session(self, monkeypatch, capsys):
        sessions = []
        monkeypatch.setattr(cli, "run_protocol1", lambda *a, **k: sessions.append(a))
        monkeypatch.setattr(cli, "run_protocol2", lambda *a, **k: sessions.append(a))
        for argv in (["run", "--backend", "gc", "--rows", "1"],
                     ["run", "--backend", "he", "--rows", "1"],
                     ["bench", "--backend", "he"]):
            rc = main([*argv, "--workload", "lr", "--range-bits", "3", "--repeat", "1"])
            assert rc == EXIT_CONFIG
            assert "range_bits 3 outside [4, 16]" in capsys.readouterr().err
        assert sessions == []

    def test_report_reproducible_modulo_timings(self, tmp_path):
        recs = []
        for name in ("r1.jsonl", "r2.jsonl"):
            path = tmp_path / name
            assert main(["run", "--workload", "ld", "--M", "2", "--repeat", "1",
                         "--seed", "21", "--jsonl", str(path)]) == EXIT_OK
            rec = json.loads(path.read_text().splitlines()[0])
            recs.append({k: v for k, v in rec.items() if not k.endswith("_ms")})
        assert recs[0] == recs[1]


    def test_lr_model_file(self, capsys):
        model = Path(mpcmarket.__file__).parent / "data" / "lr_model.txt"
        rc = main(["run", "--workload", "lr", "--backend", "he", "--model", str(model),
                   "--rows", "1", "--repeat", "1"])
        assert rc == EXIT_OK
        assert "verified against plaintext oracle: True" in capsys.readouterr().out


def test_lr_he_sends_one_ciphertext_per_maker(monkeypatch, capsys):
    from mpcmarket.protocol import EncryptedListing, channels

    listed = []
    log = channels.BaseChannel._log

    def spy(self, seq, sender, receiver, msg, n_bytes):
        if isinstance(msg, EncryptedListing):
            listed.append((msg.maker, len(msg.entries)))
        log(self, seq, sender, receiver, msg, n_bytes)

    monkeypatch.setattr(channels.BaseChannel, "_log", spy)
    rc = main(["run", "--backend", "he", "--workload", "lr", "--makers", "3", "--rows", "2"])
    assert rc == EXIT_OK
    assert "verified against plaintext oracle: True" in capsys.readouterr().out
    # Two rows, repeated ten times by default: every session lists one entry per maker.
    assert listed == [(0, 1), (1, 1), (2, 1)] * 2 * 10


# One value per run setting, none of them its default: (config line, flags).
EVERY_SETTING = [
    ("workload=lr", ["--workload", "lr"]),
    ("backend=he", ["--backend", "he"]),
    ("m_instances=3", ["--M", "3"]),
    ("count-bits=9", ["--count-bits", "9"]),
    ("threshold=5/2", ["--threshold", "5/2"]),
    ("range_bits=12", ["--range-bits", "12"]),
    ("rows=2", ["--rows", "2"]),
    ("makers=2", ["--makers", "2"]),
    ("n_degree=2048", ["--n", "2048"]),
    ("batch=no", ["--no-batch"]),
    ("transport=tcp", ["--transport", "tcp"]),
    ("seed=7", ["--seed", "7"]),
    ("repeat=3", ["--repeat", "3"]),
    ("verify=0", ["--no-verify"]),
    ("data=d.csv", ["--data", "d.csv"]),
    ("model=m.txt", ["--model", "m.txt"]),
    ("jsonl=r.jsonl", ["--jsonl", "r.jsonl"]),
]


def _config(argv: list[str]) -> RunConfig:
    return _run_config_from_args(build_parser().parse_args(["run", *argv]))


class TestConfigFile:
    def test_every_setting_reads_as_its_flag(self, tmp_path):
        path = tmp_path / "all.cfg"
        path.write_text("\n".join(line for line, _ in EVERY_SETTING) + "\n")
        from_file = _config(["--config", str(path)])
        assert from_file == _config([a for _, flags in EVERY_SETTING for a in flags])
        default = RunConfig()
        assert all(getattr(from_file, f.name) != getattr(default, f.name)
                   for f in fields(RunConfig))
        # An explicit flag still overrides the file.
        assert _config(["--config", str(path), "--seed", "8"]).seed == 8
        assert _config(["--config", str(path), "--verify"]).verify is True

    def test_config_keys_are_the_run_destinations(self, tmp_path):
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        dests = {a.dest for a in sub.choices["run"]._actions} - {"help", "config"}
        assert dests == {f.name for f in fields(RunConfig)}
        # bench and inspect read every run flag as run does; bench's --M and
        # --range-bits take lists.
        every = [a for _, flags in EVERY_SETTING for a in flags]
        run = {**vars(build_parser().parse_args(["run", *every])), "command": None}
        lists = {"inspect": {}, "bench": {"m_instances": [3], "range_bits": [12]}}
        for command in lists:
            assert {a.dest for a in sub.choices[command]._actions} - {"help", "config"} == dests
            parsed = vars(build_parser().parse_args([command, *every]))
            assert {**parsed, "command": None} == {**run, **lists[command]}
        assert {line.split("=")[0].replace("-", "_") for line, _ in EVERY_SETTING} == dests
        path = tmp_path / "one.cfg"
        for key in ("config", "help", "threshold_num", "threshold_den", "M"):
            path.write_text(f"{key}=1\n")
            with pytest.raises(cli.ConfigRejected, match="is not key=value for a run flag"):
                _config(["--config", str(path)])

    @pytest.mark.parametrize("value, on", [
        ("true", True), ("Yes", True), ("1", True), ("false", False), ("NO", False), ("0", False),
    ])
    def test_boolean_values(self, tmp_path, value, on):
        path = tmp_path / "b.cfg"
        path.write_text(f"batch={value}\nverify={value}\n")
        cfg = _config(["--config", str(path)])
        assert (cfg.batch, cfg.verify) == (on, on)


def test_lr_row_is_dealt_to_the_makers():
    _, sessions = _sessions(RunConfig(workload="lr", rows=1, makers=3))
    (makers,) = sessions
    assert len(makers) == 3
    groups = [name for maker in makers for name in maker]
    assert sorted(groups) == sorted(f"x{j}" for j in range(30))


@pytest.fixture(scope="module")
def lr_he_unverified(tmp_path_factory):
    """One LR session on HE under --no-verify: (record, printed output)."""
    import contextlib
    import io

    path = tmp_path_factory.mktemp("lr-he") / "r.jsonl"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["run", "--workload", "lr", "--backend", "he", "--rows", "1",
                   "--repeat", "1", "--no-verify", "--jsonl", str(path)])
    assert rc == EXIT_OK
    return json.loads(path.read_text().splitlines()[0]), out.getvalue()


class TestRecords:
    def test_no_verify_is_not_reported_verified(self, lr_he_unverified):
        rec, out = lr_he_unverified
        assert rec["verified"] is None
        assert "verification against plaintext oracle: skipped" in out

    def test_comm_bytes_is_transcript_total(self, lr_he_unverified, bundled_model,
                                            bundled_dataset):
        from mpcmarket.he.bfv import HeParams
        from mpcmarket.protocol import LrComputation, run_protocol1

        rows, _ = bundled_dataset
        mask = (1 << bundled_model.spec.total_bits) - 1
        row = {f"x{j}": v & mask for j, v in enumerate(rows[0])}
        out = run_protocol1(LrComputation(model=bundled_model, range_bits=10), [row],
                            HeParams.default(4096), verify=False)
        assert lr_he_unverified[0]["comm_bytes"] == out.transcript.total_bytes()

    def test_he_record_has_no_garbling_fields(self, lr_he_unverified):
        rec, out = lr_he_unverified
        assert not {"garbling_ms", "gates", "non_xor"} & rec.keys()
        assert "garbling ms" not in out


class TestGenData:
    def test_haplotypes_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen-data", "--kind", "haplotypes", "--out", str(a),
                     "--rows", "8", "--N", "200", "--seed", "4"]) == EXIT_OK
        assert main(["gen-data", "--kind", "haplotypes", "--out", str(b),
                     "--rows", "8", "--N", "200", "--seed", "4"]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_equilibrium_family_exact(self, tmp_path):
        out = tmp_path / "eq.csv"
        assert main(["gen-data", "--kind", "haplotypes", "--out", str(out),
                     "--rows", "6", "--N", "240", "--D", "0", "--seed", "2"]) == EXIT_OK
        from mpcmarket.analytics.datagen import read_haplotype_csv

        for c in read_haplotype_csv(str(out)):
            n_A, _, n_B, _ = c.margins
            assert c.total * c.n_AB == n_A * n_B

    def test_lr_samples_shape(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["gen-data", "--kind", "lr-samples", "--out", str(out),
                     "--rows", "569", "--dims", "30", "--seed", "1"]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 570  # header + rows
        assert len(lines[1].split(",")) == 30


class TestInspect:
    def test_stats_of_the_circuit_run_garbles(self, tmp_path, capsys):
        """The LD instance had 13255 gates before its products moved to
        column addition, a dedicated squarer and signed-digit constants."""
        from mpcmarket.garbling import HEADER_SIZE

        assert main(["inspect", "--M", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "gates:            10276\n" in out
        path = tmp_path / "r.jsonl"
        assert main(["run", "--M", "1", "--repeat", "1", "--jsonl", str(path)]) == EXIT_OK
        rec = json.loads(path.read_text())
        assert f"gates:            {rec['gates']}\n" in out
        assert f"non-XOR gates:    {rec['non_xor']}\n" in out
        assert f"garbled size:     {HEADER_SIZE + 32 * rec['non_xor']} bytes" in out

    def test_missing_file_is_io_error(self, capsys):
        assert main(["inspect", "--data", "/nonexistent"]) == EXIT_IO


class TestCommands:
    # Only the CSP holds a secret key, and it makes a fresh one per session:
    # no command writes keys.
    def test_the_four_commands(self):
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        assert sorted(sub.choices) == ["bench", "gen-data", "inspect", "run"]

    def test_keygen_is_not_a_command(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["keygen", "--out", str(tmp_path / "k")])
        assert exc.value.code == EXIT_CONFIG
        assert "invalid choice: 'keygen'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestBench:
    def test_gc_ld_shape(self, tmp_path, capsys):
        rec_path = tmp_path / "bench.jsonl"
        rc = main(["bench", "--workload", "ld", "--backend", "gc", "--M", "1",
                   "--count-bits", "8", "--repeat", "1", "--jsonl", str(rec_path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "garbling ms" in out and "#non-XOR" in out
        rec = json.loads(rec_path.read_text().splitlines()[0])
        assert rec["bench"] == "gc-ld" and rec["M"] == 1

    def test_gc_lr_shape(self, capsys):
        rc = main(["bench", "--workload", "lr", "--range-bits", "10", "--rows", "1",
                   "--repeat", "1"])
        assert rc == EXIT_OK
        assert "range" in capsys.readouterr().out

    def test_record_is_the_run_record(self, tmp_path):
        recs = []
        for command in ("run", "bench"):
            path = tmp_path / f"{command}.jsonl"
            assert main([command, "--M", "2", "--rows", "1", "--repeat", "1", "--seed", "21",
                         "--jsonl", str(path)]) == EXIT_OK
            rec = json.loads(path.read_text())
            recs.append({k: v for k, v in rec.items() if k != "bench" and not k.endswith("_ms")})
        assert recs[0] == recs[1]

    def test_config_value_unless_swept(self, tmp_path):
        cfg = tmp_path / "b.cfg"
        cfg.write_text("m_instances=2\nrows=1\nrepeat=1\n")
        for flags, swept in (([], [2]), (["--M", "1", "2"], [1, 2])):
            path = tmp_path / "b.jsonl"
            assert main(["bench", "--config", str(cfg), "--jsonl", str(path), *flags]) == EXIT_OK
            assert [json.loads(line)["M"] for line in path.read_text().splitlines()] == swept

    def test_lr_over_tcp_with_two_makers(self, capsys):
        rc = main(["bench", "--workload", "lr", "--transport", "tcp", "--makers", "2",
                   "--rows", "1", "--repeat", "1"])
        assert rc == EXIT_OK
        assert "comm bytes" in capsys.readouterr().out


# (argv, {placeholder: file content}); "{placeholder}" in argv becomes the
# path of a file holding that content.
MALFORMED = {
    "data-bad-header": (["run", "--data", "{data}"], {"data": "a,b,c,d\n1,2,3,4\n"}),
    "data-non-integer": (
        ["run", "--data", "{data}"], {"data": "n_AB,n_Ab,n_aB,n_ab\n1,2,x,4\n"}
    ),
    "data-zero-margin-gc": (
        ["run", "--repeat", "1", "--data", "{data}"],
        {"data": "n_AB,n_Ab,n_aB,n_ab\n50,50,0,0\n"},
    ),
    "data-zero-margin-he": (
        ["run", "--backend", "he", "--repeat", "1", "--data", "{data}"],
        {"data": "n_AB,n_Ab,n_aB,n_ab\n50,50,0,0\n"},
    ),
    "data-zero-margin-gc-no-verify": (
        ["run", "--repeat", "1", "--no-verify", "--data", "{data}"],
        {"data": "n_AB,n_Ab,n_aB,n_ab\n50,50,0,0\n"},
    ),
    "data-zero-margin-he-no-verify": (
        ["run", "--backend", "he", "--repeat", "1", "--no-verify", "--data", "{data}"],
        {"data": "n_AB,n_Ab,n_aB,n_ab\n50,50,0,0\n"},
    ),
    # Every count fits 11 bits, but the total N = 4096 does not.
    "data-ld-total-too-wide-no-verify": (
        ["run", "--repeat", "1", "--no-verify", "--data", "{data}"],
        {"data": "n_AB,n_Ab,n_aB,n_ab\n2047,1,1,2047\n"},
    ),
    "model-non-integer": (
        ["run", "--workload", "lr", "--rows", "1", "--repeat", "1", "--model", "{model}"],
        {"model": "16 8\n3\n1.5\n"},
    ),
    "config-non-integer": (["run", "--config", "{cfg}"], {"cfg": "seed=abc\n"}),
    # A boolean typo used to read as false, a non-boolean batch as no batching,
    # and the old threshold_num key as a setting.
    "config-verify-typo": (["run", "--config", "{cfg}"], {"cfg": "verify=ture\n"}),
    "config-batch-typo": (["run", "--config", "{cfg}"], {"cfg": "batch=nope\n"}),
    "config-transport-udp": (["run", "--config", "{cfg}"], {"cfg": "transport=udp\n"}),
    "config-threshold-num": (["run", "--config", "{cfg}"], {"cfg": "threshold_num=5\n"}),
    "config-binary": (["run", "--config", "{cfg}"], {"cfg": "\xff\xfe=1\n"}),
    "he-threshold-zero-den": (
        ["run", "--backend", "he", "--threshold", "1/0", "--repeat", "1"], {}
    ),
    "data-lr-empty-header": (
        ["run", "--workload", "lr", "--rows", "1", "--repeat", "1", "--data", "{data}"],
        {"data": "\r\n"},
    ),
    # A header with no rows used to run no session and report verified.
    "data-lr-no-rows": (
        ["run", "--workload", "lr", "--rows", "1", "--repeat", "1", "--data", "{data}"],
        {"data": ",".join(f"f{i}" for i in range(30)) + "\n"},
    ),
    "data-lr-infinite-feature": (
        ["run", "--workload", "lr", "--rows", "1", "--repeat", "1", "--data", "{data}"],
        {"data": ",".join(f"f{i}" for i in range(30)) + "\n" + ",".join(["inf"] + ["0"] * 29)},
    ),
    # These four used to hang, end in IndexError or write a file with no rows.
    "gen-data-N-one": (
        ["gen-data", "--kind", "haplotypes", "--out", "h.csv", "--rows", "2", "--N", "1"], {}
    ),
    "gen-data-D-above-quarter": (
        ["gen-data", "--kind", "haplotypes", "--out", "h.csv", "--D", "0.5"], {}
    ),
    "gen-data-D-at-prime-N": (
        ["gen-data", "--kind", "haplotypes", "--out", "h.csv", "--N", "7", "--D", "0"], {}
    ),
    "gen-data-no-rows": (
        ["gen-data", "--kind", "haplotypes", "--out", "h.csv", "--rows", "0"], {}
    ),
    # Before the LR planner this ended in NoiseBudgetExhausted, a DecryptionFailure.
    "he-lr-small-ring": (
        ["run", "--workload", "lr", "--backend", "he", "--n", "2048", "--rows", "1",
         "--repeat", "1"],
        {},
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_bad_input_exits_without_traceback(case, tmp_path):
    import os
    import subprocess
    import sys

    argv, files = MALFORMED[case]
    for name, content in files.items():
        (tmp_path / name).write_bytes(content.encode("latin-1"))
    argv = [a.format(**{name: str(tmp_path / name) for name in files}) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(mpcmarket.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "mpcmarket.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode in (EXIT_CONFIG, EXIT_IO), proc.stderr
    assert "Traceback" not in proc.stderr


def test_negative_seed_exits_2(tmp_path, capsys):
    # "run --workload lr --backend he --seed -5" used to end in a numpy
    # ValueError traceback (exit 1) from the CSP's generator.
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("workload=lr\nbackend=he\nrows=1\nrepeat=1\nseed=-5\n")
    out = str(tmp_path / "x")
    for argv in (
        ["run", "--workload", "lr", "--backend", "he", "--rows", "1", "--repeat", "1",
         "--seed", "-5"],
        ["bench", "--workload", "lr", "--range-bits", "10", "--repeat", "1", "--seed", "-5"],
        ["gen-data", "--kind", "haplotypes", "--out", out, "--seed", "-5"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert "seed must be >= 0" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg)])
    assert exc.value.code == EXIT_CONFIG
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not list(tmp_path.glob("x*"))


def test_decryption_failure_is_a_config_rejection(monkeypatch, capsys):
    from mpcmarket.he import bfv

    def fail(sk, ct):
        raise bfv.DecryptionFailure("noise budget exhausted")

    monkeypatch.setattr(bfv, "decrypt", fail)
    rc = main(["run", "--workload", "lr", "--backend", "he", "--rows", "1", "--repeat", "1"])
    assert rc == EXIT_CONFIG
    assert "noise budget exhausted" in capsys.readouterr().err

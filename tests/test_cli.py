"""Command-line interface: commands, exit codes, determinism."""

import json

import pytest

from pathlib import Path

import mpcmarket
from mpcmarket.circuits import build_adder, serialize_circuit
from mpcmarket.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main


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

    def test_save_circuit(self, tmp_path):
        path = tmp_path / "ld.btxt"
        rc = main(["run", "--workload", "ld", "--M", "1", "--repeat", "1",
                   "--save-circuit", str(path)])
        assert rc == EXIT_OK
        assert path.read_text().startswith("13255 ")

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
    def test_adder_stats(self, tmp_path, capsys):
        path = tmp_path / "adder8.btxt"
        path.write_text(serialize_circuit(build_adder(8)))
        assert main(["inspect", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "non-XOR gates:    7" in out
        assert "garbled size:" in out

    def test_xor_only_circuit(self, tmp_path, capsys):
        from mpcmarket.circuits import CircuitBuilder

        b = CircuitBuilder()
        x = b.add_input_group("x", 4)
        y = b.add_input_group("y", 4)
        c = b.build([b.xor(a, bb) for a, bb in zip(x, y)])
        path = tmp_path / "xor.btxt"
        path.write_text(serialize_circuit(c))
        assert main(["inspect", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "non-XOR gates:    0" in out
        from mpcmarket.garbling import HEADER_SIZE

        assert f"garbled size:     {HEADER_SIZE} bytes" in out

    def test_missing_file_is_io_error(self, capsys):
        assert main(["inspect", "/nonexistent/file.btxt"]) == EXIT_IO


class TestKeygen:
    def test_writes_key_files(self, tmp_path, capsys):
        prefix = tmp_path / "keys" / "k"
        assert main(["keygen", "--n", "4096", "--out", str(prefix), "--seed", "7"]) == EXIT_OK
        assert (tmp_path / "keys" / "k.sk").exists()
        assert (tmp_path / "keys" / "k.pk").exists()
        assert (tmp_path / "keys" / "k.rk").exists()
        meta = json.loads((tmp_path / "keys" / "k.params.json").read_text())
        assert meta["n"] == 4096
        assert "not production-audited" in meta["note"]


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
        rc = main(["bench", "--workload", "lr", "--range-bits", "10", "--repeat", "1"])
        assert rc == EXIT_OK
        assert "range" in capsys.readouterr().out


_ADDER = serialize_circuit(build_adder(2)).splitlines()


def _circuit_with(line: int, text: str) -> str:
    lines = list(_ADDER)
    lines[line] = text
    return "\n".join(lines) + "\n"


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
    "inspect-consts": (["inspect", "{c}"], {"c": _circuit_with(2, "consts 4 x")}),
    "inspect-outputs": (["inspect", "{c}"], {"c": _circuit_with(3, "outputs 2 5 y")}),
    "inspect-gate-wire": (["inspect", "{c}"], {"c": _circuit_with(4, "2 1 0 z 6 XOR")}),
    "inspect-binary": (["inspect", "{c}"], {"c": "\xff\xfe"}),
    "he-threshold-zero-den": (
        ["run", "--backend", "he", "--threshold", "1/0", "--repeat", "1"], {}
    ),
    "data-lr-empty-header": (
        ["run", "--workload", "lr", "--rows", "1", "--repeat", "1", "--data", "{data}"],
        {"data": "\r\n"},
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


def test_decryption_failure_is_a_config_rejection(monkeypatch, capsys):
    from mpcmarket.he import bfv

    def fail(sk, ct):
        raise bfv.DecryptionFailure("noise budget exhausted")

    monkeypatch.setattr(bfv, "decrypt", fail)
    rc = main(["run", "--workload", "lr", "--backend", "he", "--rows", "1", "--repeat", "1"])
    assert rc == EXIT_CONFIG
    assert "noise budget exhausted" in capsys.readouterr().err

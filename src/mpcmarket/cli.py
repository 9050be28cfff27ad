"""Operator command-line interface.

Commands: run, gen-data, keygen, inspect, bench.
Exit codes: 0 success, 1 verification failure, 2 configuration rejection,
3 I/O or transport failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analytics import datagen
from .analytics.ld import LdStatisticUndefined, PlanRejected, ld_group_names
from .analytics.lr import load_model
from .circuits.bristol import parse_circuit, serialize_circuit
from .circuits.ir import CircuitError
from .garbling import HEADER_SIZE
from .he import bfv
from .he.bfv import DecryptionFailure, HeParams, HeParamsError
from .protocol.channels import TransportError
from .protocol.computations import Computation, LdComputation, LrComputation
from .protocol.messages import ProtocolError
from .protocol.runner import (
    VerificationError,
    run_protocol1,
    run_protocol2,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_IO = 3


class ConfigRejected(ValueError):
    """A run configuration violates a stated constraint."""


@dataclass
class RunConfig:
    workload: str = "ld"
    backend: str = "gc"
    m_instances: int = 1
    count_bits: int = 11
    threshold_num: int = 3841
    threshold_den: int = 1000
    range_bits: int = 10
    rows: int = 10
    makers: int = 1
    n_degree: int | None = None  # None: 8192 for LD, 4096 for LR
    batch: bool = True
    transport: str = "inproc"
    seed: int = 0
    repeat: int = 10
    verify: bool = True
    data: str | None = None
    model: str | None = None
    save_circuit: str | None = None
    jsonl: str | None = None

    def validate(self) -> None:
        if self.workload not in ("ld", "lr"):
            raise ConfigRejected(f"workload must be ld or lr, got {self.workload!r}")
        if self.backend not in ("gc", "he"):
            raise ConfigRejected(f"backend must be gc or he, got {self.backend!r}")
        if self.transport not in ("inproc", "tcp"):
            raise ConfigRejected(f"transport must be inproc or tcp, got {self.transport!r}")
        if self.m_instances < 1:
            raise ConfigRejected("M must be >= 1")
        if self.repeat < 1:
            raise ConfigRejected("repeat must be >= 1")
        if self.count_bits < 2:  # the backends check their own upper limits
            raise ConfigRejected(f"count-bits {self.count_bits} below 2; N >= 2 must fit")
        if self.threshold_num < 0 or self.threshold_den <= 0:
            num, den = self.threshold_num, self.threshold_den
            raise ConfigRejected(f"threshold needs num >= 0 and den > 0, got {num}/{den}")
        if not (2 <= self.range_bits <= 16):
            raise ConfigRejected(f"range-bits {self.range_bits} outside [2, 16]")
        if self.makers < 1:
            raise ConfigRejected("makers must be >= 1")
        if self.rows < 1:
            raise ConfigRejected("rows must be >= 1")


def _load_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigRejected(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


_CONFIG_TYPES = {
    "m_instances": int, "count_bits": int, "threshold_num": int,
    "threshold_den": int, "range_bits": int, "rows": int, "makers": int,
    "n_degree": int, "seed": int, "repeat": int,
    "batch": lambda v: v.lower() in ("1", "true", "yes"),
    "verify": lambda v: v.lower() in ("1", "true", "yes"),
}


def _read(path: str, read, *args):
    """Read a --data or --model file; malformed content rejects the run."""
    try:
        return read(path, *args)
    except ValueError as exc:
        raise ConfigRejected(f"{path}: {exc}") from None


def _emit(records: list[dict], jsonl: str | None) -> None:
    if jsonl:
        with open(jsonl, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


# (column header, record key); a column shows only if some record has the key.
_COLUMNS = [
    ("total ms", "total_ms"),
    ("garbling ms", "garbling_ms"),
    ("evaluation ms", "evaluation_ms"),
    ("#gates", "gates"),
    ("#non-XOR", "non_xor"),
    ("comm bytes", "comm_bytes"),
    ("scalar total ms", "scalar_total_ms"),
]


def _print_table(records: list[dict]) -> None:
    key = ("M", "M") if records[0]["workload"] == "ld" else ("range", "range_bits")
    cols = [key] + [c for c in _COLUMNS if any(c[1] in r for r in records)]

    def cell(v) -> str:
        return "-" if v is None else f"{v:.1f}" if isinstance(v, float) else str(v)

    rows = [[h for h, _ in cols]] + [[cell(r.get(k)) for _, k in cols] for r in records]
    widths = [max(len(row[i]) for row in rows) for i in range(len(cols))]
    rows.insert(1, ["-" * w for w in widths])
    fmt = "  ".join(f"{{:>{w}}}" for w in widths)
    print("\n".join(fmt.format(*row) for row in rows))


def _maker_inputs_for(groups: dict[str, int], makers: int) -> list[dict[str, int]]:
    """Deal the input groups round-robin to at most ``makers`` makers."""
    names = list(groups)
    k = min(makers, len(names))
    return [{name: groups[name] for name in names[i::k]} for i in range(k)]


def _sessions(cfg: RunConfig) -> tuple[Computation, list[list[dict[str, int]]]]:
    """The computation and the maker inputs of each session in one
    repetition: LD runs all M instances in one session, or one session per
    instance under ``--no-batch``; LR runs one session per row. Either deals
    its input groups to ``cfg.makers`` makers."""
    if cfg.workload == "lr":
        model = datagen.load_bundled_model() if cfg.model is None else _read(cfg.model, load_model)
        if cfg.data:
            rows, _labels = _read(cfg.data, datagen.load_lr_csv, model)
        else:
            rows, _labels = datagen.load_bundled_dataset(model)
        mask = (1 << model.spec.total_bits) - 1
        comp = LrComputation(model=model, range_bits=cfg.range_bits)
        groups = [{f"x{j}": v & mask for j, v in enumerate(row)} for row in rows[: cfg.rows]]
        return comp, [_maker_inputs_for(g, cfg.makers) for g in groups]
    if cfg.data:
        counts = _read(cfg.data, datagen.read_haplotype_csv)
        # Checked here, not only by the oracle, so --no-verify rejects it too.
        for row, c in enumerate(counts[: cfg.m_instances], start=1):
            if min(c.margins) == 0:
                raise ConfigRejected(
                    f"{cfg.data}: row {row} {tuple(c)} has a zero margin; chi-square is undefined"
                )
    else:
        counts = datagen.gen_haplotype_counts(
            cfg.seed, cfg.m_instances, n_total=min(200, (1 << cfg.count_bits) - 1)
        )
    if len(counts) < cfg.m_instances:
        raise ConfigRejected(f"need {cfg.m_instances} haplotype rows, file has {len(counts)}")
    size = cfg.m_instances if cfg.batch else 1
    comp = LdComputation(
        count_bits=cfg.count_bits,
        m_instances=size,
        threshold_num=cfg.threshold_num,
        threshold_den=cfg.threshold_den,
    )
    sessions = []
    for start in range(0, cfg.m_instances, size):
        groups = {
            group: v
            for i, c in enumerate(counts[start : start + size])
            for name, v in c._asdict().items()
            for group in ld_group_names(i, name)
        }
        sessions.append(_maker_inputs_for(groups, cfg.makers))
    return comp, sessions


def _drive(cfg: RunConfig) -> dict:
    """Run ``cfg.repeat`` repetitions of the configured sessions and return
    one record. Times are means per repetition; ``comm_bytes`` is the
    transcript total of the first repetition."""
    cfg.validate()
    comp, sessions = _sessions(cfg)
    if cfg.save_circuit:
        Path(cfg.save_circuit).write_text(serialize_circuit(comp.circuit))
    gc = cfg.backend == "gc"
    if not gc:
        n = cfg.n_degree or (8192 if cfg.workload == "ld" else 4096)
        params = HeParams.default(n)

    def session(makers: list[dict[str, int]], seed: int):
        opts = dict(transport=cfg.transport, seed=seed, verify=cfg.verify)
        if gc:
            return run_protocol2(comp, makers, **opts)
        return run_protocol1(comp, makers, params, **opts)

    reps = [
        [session(makers, cfg.seed + 1000 * r + i) for i, makers in enumerate(sessions)]
        for r in range(cfg.repeat)
    ]

    def mean_ms(key: str) -> float:
        return 1e3 * statistics.mean(sum(o.timings[key] for o in outs) for outs in reps)

    first = reps[0]
    rec = {
        "workload": cfg.workload, "backend": cfg.backend, "transport": cfg.transport,
        "seed": cfg.seed, "repeat": cfg.repeat,
    }
    if cfg.workload == "ld":
        rec.update(M=cfg.m_instances, decisions=[d for o in first for d in o.result["decisions"]])
    else:
        rec.update(
            range_bits=cfg.range_bits, rows=len(sessions),
            probabilities=[o.result["probability"] for o in first],
        )
    if gc:
        st = comp.circuit.stats
        rec.update(gates=st.total, non_xor=st.non_xor, garbling_ms=mean_ms("garble_s"))
    rec.update(
        comm_bytes=sum(o.transcript.total_bytes() for o in first),
        evaluation_ms=mean_ms("evaluate_s"),
        total_ms=mean_ms("total_s"),
        verified=all(o.verified for outs in reps for o in outs) if cfg.verify else None,
    )
    return rec


def cmd_run(cfg: RunConfig) -> int:
    rec = _drive(cfg)
    _print_table([rec])
    if cfg.workload == "ld":
        print(f"decisions: {rec['decisions']}")
    else:
        print(f"first probabilities: {[round(p, 6) for p in rec['probabilities'][:5]]}")
    if rec["verified"] is None:
        print("verification against plaintext oracle: skipped (--no-verify)")
    else:
        print(f"verified against plaintext oracle: {rec['verified']}")
    _emit([rec], cfg.jsonl)
    return EXIT_OK


def cmd_gen_data(args) -> int:
    try:
        if args.kind == "haplotypes":
            counts = datagen.gen_haplotype_counts(
                args.seed, args.rows, n_total=args.N, target_d=args.D
            )
            datagen.write_haplotype_csv(args.out, counts)
            print(f"wrote {len(counts)} haplotype rows to {args.out}")
        else:  # lr-samples, the other choice
            rows = datagen.gen_lr_samples(args.seed, args.rows, args.dims)
            datagen.write_lr_csv(args.out, rows)
            print(f"wrote {len(rows)} x {args.dims} sample rows to {args.out}")
    except ValueError as exc:  # parameters that no fixture satisfies
        raise ConfigRejected(f"gen-data: {exc}") from None
    return EXIT_OK


def cmd_keygen(args) -> int:
    params = HeParams.default(args.n, t_bits=args.t_bits)
    sk, pk, rk = bfv.keygen(params, seed=args.seed)
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    Path(f"{prefix}.params.json").write_text(
        json.dumps(
            {
                "n": params.n,
                "q_primes": list(params.q_primes),
                "t": params.t,
                "noise_sigma": params.noise_sigma,
                "note": bfv.SECURITY_NOTE,
            },
            indent=2,
        )
    )
    Path(f"{prefix}.sk").write_bytes(bfv.secret_key_to_bytes(sk))
    Path(f"{prefix}.pk").write_bytes(bfv.public_key_to_bytes(pk))
    Path(f"{prefix}.rk").write_bytes(bfv.relin_key_to_bytes(rk))
    print(f"wrote {prefix}.params.json, .sk, .pk, .rk  (n={params.n}, t={params.t})")
    return EXIT_OK


def cmd_inspect(args) -> int:
    try:
        text = Path(args.circuit).read_text()
    except OSError as exc:
        print(f"cannot read {args.circuit}: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnicodeDecodeError as exc:
        raise CircuitError(f"{args.circuit} is not circuit text: {exc}") from None
    circuit = parse_circuit(text)
    st = circuit.stats
    groups = ", ".join(f"{g.name}[{g.width}]" for g in circuit.input_groups)
    print(f"gates:            {st.total}")
    print(f"non-XOR gates:    {st.non_xor}")
    print(f"input bits:       {circuit.n_inputs}  ({groups})")
    print(f"output bits:      {len(circuit.output_wires)}")
    print(f"garbled size:     {HEADER_SIZE + 32 * st.non_xor} bytes (header {HEADER_SIZE} + 32 x non-XOR)")
    return EXIT_OK


def cmd_bench(args) -> int:
    """One ``_drive`` record per --M (LD) or --range-bits (LR) value."""
    ld = args.workload == "ld"
    base = RunConfig(
        workload=args.workload, backend=args.backend, count_bits=args.count_bits,
        rows=1, n_degree=args.n, seed=args.seed, repeat=args.repeat,
    )
    records: list[dict] = []
    for value in args.M if ld else args.range_bits:
        cfg = replace(base, m_instances=value) if ld else replace(base, range_bits=value)
        rec = {"bench": f"{args.backend}-{args.workload}", **_drive(cfg)}
        if args.compare_scalar:
            rec["scalar_total_ms"] = _drive(replace(cfg, batch=False))["total_ms"]
        records.append(rec)
    _print_table(records)
    _emit(records, args.jsonl)
    return EXIT_OK


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer (argparse exits 2 otherwise)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mpcmarket", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a protocol end to end")
    run.add_argument("--workload", choices=("ld", "lr"))
    run.add_argument("--backend", choices=("gc", "he"))
    run.add_argument("--M", type=int, dest="m_instances")
    run.add_argument("--count-bits", type=int, dest="count_bits")
    run.add_argument("--threshold", help="chi-square threshold as num/den")
    run.add_argument("--range-bits", type=int, dest="range_bits")
    run.add_argument("--rows", type=int)
    run.add_argument("--makers", type=int)
    run.add_argument("--n", type=int, dest="n_degree")
    run.add_argument("--batch", action=argparse.BooleanOptionalAction, default=None)
    run.add_argument("--transport", choices=("inproc", "tcp"))
    run.add_argument("--seed", type=_seed)
    run.add_argument("--repeat", type=int)
    run.add_argument("--verify", action=argparse.BooleanOptionalAction, default=None)
    run.add_argument("--data")
    run.add_argument("--model")
    run.add_argument("--save-circuit", dest="save_circuit")
    run.add_argument("--jsonl")
    run.add_argument("--config")

    gen = sub.add_parser("gen-data", help="write deterministic synthetic fixtures")
    gen.add_argument("--kind", choices=("haplotypes", "lr-samples"), required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--rows", type=int, default=10)
    gen.add_argument("--N", type=int, default=200)
    gen.add_argument("--D", type=float, default=None)
    gen.add_argument("--dims", type=int, default=30)
    gen.add_argument("--seed", type=_seed, default=0)

    kg = sub.add_parser("keygen", help="generate and store BFV keys")
    kg.add_argument("--n", type=int, default=8192)
    kg.add_argument("--t-bits", type=int, default=21)
    kg.add_argument("--out", required=True)
    kg.add_argument("--seed", type=_seed, default=0)

    ins = sub.add_parser("inspect", help="print circuit-file statistics")
    ins.add_argument("circuit")

    bench = sub.add_parser("bench", help="table-shaped benchmark reports")
    bench.add_argument("--workload", choices=("ld", "lr"), default="ld")
    bench.add_argument("--backend", choices=("gc", "he"), default="gc")
    bench.add_argument("--M", type=int, nargs="+", default=[10])
    bench.add_argument("--count-bits", type=int, default=8)
    bench.add_argument("--range-bits", type=int, nargs="+", default=[10, 11, 12])
    bench.add_argument("--n", type=int)
    bench.add_argument("--repeat", type=int, default=10)
    bench.add_argument("--seed", type=_seed, default=0)
    bench.add_argument("--compare-scalar", action="store_true")
    bench.add_argument("--jsonl")
    return ap


def _run_config_from_args(args) -> RunConfig:
    """Defaults, overridden by the config file, overridden by explicit flags."""
    cfg = RunConfig()
    if args.config:
        for key, value in _load_config_file(args.config).items():
            if key == "threshold":
                _apply_threshold(cfg, value)
                continue
            if not hasattr(cfg, key):
                raise ConfigRejected(f"unknown config key {key!r}")
            try:
                setattr(cfg, key, _CONFIG_TYPES.get(key, str)(value))
            except ValueError:
                raise ConfigRejected(f"{args.config}: bad value {value!r} for {key}") from None
    for name in vars(cfg):
        arg_val = getattr(args, name, None)
        if arg_val is not None:
            setattr(cfg, name, arg_val)
    if args.threshold is not None:
        _apply_threshold(cfg, args.threshold)
    return cfg


def _apply_threshold(cfg: RunConfig, spec: str) -> None:
    num, _, den = spec.partition("/")
    try:
        cfg.threshold_num, cfg.threshold_den = int(num), int(den or 1)
    except ValueError:
        raise ConfigRejected(f"threshold must be num/den, got {spec!r}") from None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(_run_config_from_args(args))
        if args.command == "gen-data":
            return cmd_gen_data(args)
        if args.command == "keygen":
            return cmd_keygen(args)
        if args.command == "inspect":
            return cmd_inspect(args)
        if args.command == "bench":
            return cmd_bench(args)
        raise ConfigRejected(f"unknown command {args.command!r}")
    except VerificationError as exc:
        print(f"VERIFICATION FAILED: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (
        ConfigRejected, PlanRejected, HeParamsError, CircuitError, ProtocolError,
        LdStatisticUndefined, DecryptionFailure,
    ) as exc:
        print(f"configuration rejected: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TransportError, OSError) as exc:
        print(f"transport/io failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

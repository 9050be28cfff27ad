"""Dataset fixtures: bundled sample data and deterministic synthetic generators.

CSV shapes:
  haplotype counts: header n_AB,n_Ab,n_aB,n_ab, one row per SNP-pair instance;
  regression samples: 30 feature columns plus an optional trailing label.
"""

from __future__ import annotations

import csv
import importlib.resources
import math
import random
from pathlib import Path
from typing import Sequence

from .ld import HaplotypeCounts
from .lr import LrModel, load_model

HAPLO_HEADER = ("n_AB", "n_Ab", "n_aB", "n_ab")


def bundled_path(name: str) -> Path:
    return Path(str(importlib.resources.files("mpcmarket").joinpath("data", name)))


def load_bundled_model() -> LrModel:
    return load_model(str(bundled_path("lr_model.txt")))


def load_bundled_dataset(model: LrModel | None = None) -> tuple[list[list[int]], list[int]]:
    """Bundled 30-feature binary-classification sample set, quantized to the
    model's fixed-point spec. Returns (rows, labels)."""
    model = model or load_bundled_model()
    return load_lr_csv(str(bundled_path("wdbc.csv")), model)


def load_lr_csv(path: str, model: LrModel) -> tuple[list[list[int]], list[int]]:
    rows: list[list[int]] = []
    labels: list[int] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [""])
        has_label = header[-1].strip().lower() == "label"
        width = len(header) - (1 if has_label else 0)
        if width != model.dim:
            raise ValueError(f"CSV has {width} features, model expects {model.dim}")
        for line in reader:
            if len(line) != len(header):
                raise ValueError(f"line {reader.line_num} has {len(line)} of {len(header)} fields")
            rows.append([model.spec.quantize(float(v)) for v in line[:width]])
            labels.append(int(line[width]) if has_label else 0)
    return rows, labels


def gen_haplotype_counts(
    seed: int,
    rows: int,
    n_total: int = 200,
    target_d: float | None = None,
) -> list[HaplotypeCounts]:
    """Deterministic synthetic haplotype tallies with total N = n_total.

    With ``target_d`` set, counts are built from an exact equilibrium family
    (N*N_AB == N_A*N_B) shifted by round(D*N), so D = 0 yields equilibrium
    exactly and larger |D| yields progressively stronger LD.
    """
    rng = random.Random(seed)
    out: list[HaplotypeCounts] = []
    while len(out) < rows:
        if target_d is None:
            cuts = sorted(rng.randrange(n_total + 1) for _ in range(3))
            c = HaplotypeCounts(
                cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], n_total - cuts[2]
            )
        else:
            # factor N so the equilibrium counts are integral
            fa = rng.choice([f for f in range(2, n_total) if n_total % f == 0])
            n_A = n_total // fa * rng.randrange(1, fa)
            fb = rng.choice([f for f in range(2, n_total) if n_total % f == 0])
            n_B = n_total // fb * rng.randrange(1, fb)
            if n_A * n_B % n_total:
                continue
            n_ab = n_A * n_B // n_total
            delta = round(target_d * n_total)
            c = HaplotypeCounts(
                n_ab + delta,
                n_A - n_ab - delta,
                n_B - n_ab - delta,
                n_total - n_A - n_B + n_ab + delta,
            )
        if min(c) < 0 or min(c.margins) == 0:
            continue
        out.append(c)
    return out


def write_haplotype_csv(path: str, counts: Sequence[HaplotypeCounts]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HAPLO_HEADER)
        for c in counts:
            writer.writerow(list(c))


def read_haplotype_csv(path: str) -> list[HaplotypeCounts]:
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = tuple(h.strip() for h in next(reader, ()))
        if header != HAPLO_HEADER:
            raise ValueError(f"unexpected haplotype CSV header {header}")
        for line in reader:
            counts = [int(v) for v in line]
            if len(counts) != 4 or min(counts) < 0:
                raise ValueError(f"line {reader.line_num}: expected 4 non-negative counts")
            out.append(HaplotypeCounts(*counts))
    return out


def gen_lr_samples(seed: int, rows: int, dims: int = 30) -> list[list[float]]:
    """Synthetic standardized feature rows (license-clean stand-in for the
    bundled dataset; same shape and scale)."""
    rng = random.Random(seed)
    out = []
    for _ in range(rows):
        out.append([round(rng.gauss(0.0, 1.0), 6) for _ in range(dims)])
    return out


def write_lr_csv(path: str, rows: Sequence[Sequence[float]], labels: Sequence[int] | None = None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        dims = len(rows[0]) if rows else 0
        header = [f"f{i}" for i in range(dims)]
        if labels is not None:
            header.append("label")
        writer.writerow(header)
        for i, row in enumerate(rows):
            line = [f"{v:.6f}" for v in row]
            if labels is not None:
                line.append(str(labels[i]))
            writer.writerow(line)

"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are pinned here and nowhere else:
  gate-count bands: factor 3 of the reference rows, M-scaling within 2%;
  lookup growth ratios: [1.7, 2.1] per added range bit;
  LR fixed-vs-float probability error: <= 2^-6 at range_bits=12;
  correctness comparisons: exact, zero mismatches.
"""

import math
import random
import time

import numpy as np
import pytest

from mpcmarket import garbling as gb
from mpcmarket.analytics.datagen import gen_haplotype_counts
from mpcmarket.analytics.ld import HaplotypeCounts, ld_decide_plain
from mpcmarket.analytics.lr import (
    build_lr_circuit,
    build_sigmoid_table,
    lr_predict_fixed,
)
from mpcmarket.circuits import CircuitBuilder
from mpcmarket.he import bfv
from mpcmarket.he.ntt import get_plan
from mpcmarket.protocol import LdComputation, LrComputation
from mpcmarket.protocol.runner import run_protocol1, run_protocol2

from helpers import (
    assert_datatrust_hygiene,
    build_adder,
    build_greater_than,
    build_lookup,
    build_multiplier,
    eval_plain,
    lr_predict_float,
    schoolbook_negacyclic,
    type_sequence,
)

THRESH = (3841, 1000)

# Every end-to-end session in this module lands here; criterion 8 scans them.
SESSION_TRANSCRIPTS = []


def _record(outcome):
    SESSION_TRANSCRIPTS.append(outcome.transcript)
    return outcome


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, detail


def _split_groups(groups: dict, makers: int) -> list[dict]:
    out = [dict() for _ in range(makers)]
    for i, name in enumerate(groups):
        out[i % makers][name] = groups[name]
    return out


def _ld_groups(counts_list) -> dict:
    groups = {}
    for i, c in enumerate(counts_list):
        for name, v in zip(("n_AB", "n_Ab", "n_aB", "n_ab"), c):
            groups[f"i{i}.{name}"] = v
    return groups


def test_criterion_1_cross_backend_ld_correctness(params8192):
    """200 random haplotype vectors with N <= 1600: GC decisions, HE decisions
    (post-CSP comparison), and the plaintext oracle agree exactly."""
    t_start = time.perf_counter()
    rng = random.Random(0xACCE)
    vectors = []
    while len(vectors) < 200:
        n = rng.randrange(8, 1601)
        cuts = sorted(rng.randrange(n + 1) for _ in range(3))
        c = HaplotypeCounts(cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], n - cuts[2])
        if min(c.margins) > 0:
            vectors.append(c)

    oracle = [ld_decide_plain(c, *THRESH).decision for c in vectors]

    comp = LdComputation(count_bits=11, m_instances=200)
    maker_inputs = _split_groups(_ld_groups(vectors), 4)

    gc_out = _record(run_protocol2(comp, maker_inputs, seed=101, verify=False))
    gc_decisions = gc_out.result["decisions"]

    he_out = _record(run_protocol1(comp, maker_inputs, params8192, seed=102, verify=False))
    he_decisions = he_out.result["decisions"]

    mism_gc = sum(1 for a, b in zip(gc_decisions, oracle) if a != b)
    mism_he = sum(1 for a, b in zip(he_decisions, oracle) if a != b)
    elapsed = time.perf_counter() - t_start
    _report(
        1,
        mism_gc == 0 and mism_he == 0 and elapsed < 300,
        f"200 vectors, GC mismatches={mism_gc}, HE mismatches={mism_he}, "
        f"{elapsed:.0f}s (< 300s)",
    )


def test_criterion_2_ld_gate_count_band():
    """LD circuit at M=10 within a factor of 3 of 293550 total / 81690 non-XOR;
    M=100 counts within 2% of 10x the M=10 counts."""
    s10 = LdComputation(count_bits=11, m_instances=10).circuit.stats
    s100 = LdComputation(count_bits=11, m_instances=100).circuit.stats
    band_total = 293550 / 3 <= s10.total <= 293550 * 3
    band_nonxor = 81690 / 3 <= s10.non_xor <= 81690 * 3
    scale_total = abs(s100.total - 10 * s10.total) <= 0.02 * 10 * s10.total
    scale_nonxor = abs(s100.non_xor - 10 * s10.non_xor) <= 0.02 * 10 * s10.non_xor
    _report(
        2,
        band_total and band_nonxor and scale_total and scale_nonxor,
        f"M=10: {s10.total}/{s10.non_xor} vs reference 293550/81690 (factor-3 band); "
        f"M=100 = {s100.total}/{s100.non_xor} (exact 10x: {s100.total == 10 * s10.total})",
    )


def test_criterion_3_lr_lookup_scaling(bundled_model):
    """LR non-XOR counts for range_bits 10/11/12: per-step growth in [1.7, 2.1]
    and absolute counts within a factor of 3 of 106016/193056/371232."""
    reference = {10: 106016, 11: 193056, 12: 371232}
    counts = {}
    for k, ref in reference.items():
        st = build_lr_circuit(bundled_model, build_sigmoid_table(range_bits=k)).stats
        counts[k] = st.non_xor
        assert ref / 3 <= st.non_xor <= ref * 3, f"range {k}: {st.non_xor} outside band of {ref}"
    r1 = counts[11] / counts[10]
    r2 = counts[12] / counts[11]
    ok = 1.7 <= r1 <= 2.1 and 1.7 <= r2 <= 2.1
    _report(
        3,
        ok,
        f"non-XOR {counts[10]}/{counts[11]}/{counts[12]} vs 106016/193056/371232; "
        f"ratios {r1:.2f}, {r2:.2f} in [1.7, 2.1]",
    )


def test_criterion_4_garbling_structural_invariants(bundled_model):
    """Serialized garbled size == header + 32B x non-XOR exactly on the whole
    corpus; XOR gates contribute zero bytes; 1000 random
    garble/evaluate/decode round-trips equal eval_plain with 0 mismatches."""
    delta = gb.GlobalDelta(int.from_bytes(b"acceptance-seed4", "big") | 1)
    key = b"acceptance-lbls4"

    def zero(circ):
        """Zero labels PRF(key, wire) of every fixed wire: inputs, then constants."""
        return gb.derive_input_labels(key, range(circ.n_inputs + 2))

    b = CircuitBuilder()
    x = b.add_input_group("x", 8)
    y = b.add_input_group("y", 8)
    xor_only = b.build([b.xor(a, c) for a, c in zip(x, y)])

    b2 = CircuitBuilder()
    u = b2.add_input_group("u", 1)
    v = b2.add_input_group("v", 1)
    single_and = b2.build([b2.and_(u[0], v[0])])

    rng = random.Random(0x4444)
    table = [rng.randrange(256) for _ in range(64)]
    corpus = [
        ("adder8", build_adder(8), 200),
        ("adder16", build_adder(16), 150),
        ("mult8", build_multiplier(8), 150),
        ("gt32", build_greater_than(32), 150),
        ("lookup6", build_lookup(table, 6, 8), 150),
        ("xor8", xor_only, 100),
        ("and1", single_and, 100),
    ]
    big = [
        ("ld_m1", LdComputation(count_bits=11, m_instances=1).circuit),
        ("lr_k10", build_lr_circuit(bundled_model, build_sigmoid_table(range_bits=10))),
    ]

    # size invariant across everything, including the workload circuits
    for name, circ in [(n, c) for n, c, _ in corpus] + big:
        garbled, _ = gb.garble(circ, delta, zero(circ))
        data = gb.serialize_garbled(garbled)
        expect = gb.HEADER_SIZE + 32 * circ.stats.non_xor
        assert len(data) == expect, f"{name}: serialized {len(data)} != {expect}"
    xor_garbled, _ = gb.garble(xor_only, delta, zero(xor_only))
    assert len(gb.serialize_garbled(xor_garbled)) == gb.HEADER_SIZE

    rounds = 0
    mismatches = 0
    for name, circ, reps in corpus:
        labels = zero(circ)
        garbled, info = gb.garble(circ, delta, labels)
        for _ in range(reps):
            bits = [rng.randrange(2) for _ in range(circ.n_inputs)]
            active = [lab for _, lab in gb.active_input_labels(delta.bits, labels, enumerate(bits))]
            got = gb.decode(info, gb.evaluate(garbled, circ, active))
            if got != eval_plain(circ, bits):
                mismatches += 1
            rounds += 1
    _report(
        4,
        rounds == 1000 and mismatches == 0,
        f"sizes exact on {len(corpus) + len(big)} circuits; "
        f"{rounds} round-trips, {mismatches} mismatches",
    )


def test_criterion_5_bfv_property_suite(params4096, keys4096, params8192, keys8192):
    """At n in {4096, 8192}: 1000 random add and 1000 random mul homomorphism
    checks each (slot-parallel, plus scalar spot checks) pass exactly mod t;
    depth-3 chains decrypt at n=8192; budgets strictly decrease under
    multiplication; NTT == schoolbook negacyclic for n <= 256 on 100 pairs."""
    checked = {}
    for params, keys in ((params4096, keys4096), (params8192, keys8192)):
        sk, pk, rk = keys
        t = params.t
        rng = np.random.default_rng(params.n)
        prng = random.Random(params.n)
        va = [prng.randrange(t) for _ in range(1000)]
        vb = [prng.randrange(t) for _ in range(1000)]
        ca = bfv.encrypt(pk, bfv.batch_encode(va, params), rng)
        cb = bfv.encrypt(pk, bfv.batch_encode(vb, params), rng)
        sums = bfv.batch_decode(bfv.decrypt(sk, bfv.he_add(ca, cb)), 1000)
        prods = bfv.batch_decode(bfv.decrypt(sk, bfv.he_mul(ca, cb, rk)), 1000)
        add_bad = sum(1 for g, a, b in zip(sums, va, vb) if g != (a + b) % t)
        mul_bad = sum(1 for g, a, b in zip(prods, va, vb) if g != (a * b) % t)
        scalar_bad = 0
        for _ in range(25):
            ma, mb = prng.randrange(t), prng.randrange(t)
            xa = bfv.encrypt(pk, bfv.encode_scalar(ma, params), rng)
            xb = bfv.encrypt(pk, bfv.encode_scalar(mb, params), rng)
            if bfv.decode_scalar(bfv.decrypt(sk, bfv.he_add(xa, xb))) != (ma + mb) % t:
                scalar_bad += 1
            if bfv.decode_scalar(bfv.decrypt(sk, bfv.he_mul(xa, xb, rk))) != (ma * mb) % t:
                scalar_bad += 1
        checked[params.n] = (add_bad, mul_bad, scalar_bad)

    # depth-3 chain at n=8192 with strictly decreasing true budget
    sk8, pk8, rk8 = keys8192
    rng = np.random.default_rng(5555)
    t8 = params8192.t
    vals = [3141592, 65537, 424242, 99991]
    chain = bfv.encrypt(pk8, bfv.encode_scalar(vals[0], params8192), rng)
    budgets = [bfv.noise_budget(sk8, chain)]
    for v in vals[1:]:
        chain = bfv.he_mul(chain, bfv.encrypt(pk8, bfv.encode_scalar(v, params8192), rng), rk8)
        budgets.append(bfv.noise_budget(sk8, chain))
    depth3_ok = bfv.decode_scalar(bfv.decrypt(sk8, chain)) == math.prod(vals) % t8
    decreasing = all(b2 < b1 for b1, b2 in zip(budgets, budgets[1:]))

    ntt_bad = 0
    for n_small in (64, 128, 256):
        p = bfv.find_ntt_primes(30, n_small)[0]
        plan = get_plan(n_small, (p,))
        nrng = np.random.default_rng(n_small)
        for _ in (range(34) if n_small < 256 else range(32)):
            a = nrng.integers(0, p, n_small, dtype=np.int64)
            b = nrng.integers(0, p, n_small, dtype=np.int64)
            product = plan.inverse(plan.forward(a) * plan.forward(b) % plan.mod)[0]
            if list(map(int, product)) != schoolbook_negacyclic(a, b, p):
                ntt_bad += 1

    ok = (
        all(sum(v) == 0 for v in checked.values())
        and depth3_ok
        and decreasing
        and ntt_bad == 0
    )
    _report(
        5,
        ok,
        f"hom checks (add/mul/scalar bad) 4096={checked[4096]}, 8192={checked[8192]}; "
        f"depth-3 ok={depth3_ok}, budgets {budgets} strictly decreasing={decreasing}; "
        f"NTT vs schoolbook mismatches={ntt_bad}/100",
    )


def test_criterion_6_batching_consistency(params8192):
    """M=10 LD tests packed in slots decide identically to 10 scalar runs,
    with strictly lower amortized per-test time."""
    counts = gen_haplotype_counts(0x600, rows=10, n_total=1600)
    comp10 = LdComputation(count_bits=11, m_instances=10)

    t0 = time.perf_counter()
    batched = _record(
        run_protocol1(comp10, [_ld_groups(counts)], params8192, seed=601)
    )
    batch_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    scalar_decisions = []
    comp1 = LdComputation(count_bits=11, m_instances=1)
    for i, c in enumerate(counts):
        out = _record(
            run_protocol1(comp1, [_ld_groups([c])], params8192, seed=602 + i)
        )
        scalar_decisions.append(out.result["decisions"][0])
    scalar_s = time.perf_counter() - t0

    identical = batched.result["decisions"] == scalar_decisions
    amortized_lower = batch_s / 10 < scalar_s / 10
    _report(
        6,
        identical and amortized_lower,
        f"decisions identical={identical}; amortized batch {batch_s / 10:.2f}s/test "
        f"vs scalar {scalar_s / 10:.2f}s/test (speedup x{scalar_s / batch_s:.1f}, "
        f"reported, not asserted beyond 'strictly lower')",
    )


def test_criterion_7_lr_end_to_end(bundled_model, bundled_dataset):
    """All 569 dataset rows through Protocol 2 decode bit-exactly to the
    fixed-point oracle; fixed-vs-float sigmoid differs by <= 2^-6 at
    range_bits=12."""
    rows, _ = bundled_dataset
    comp = LrComputation(model=bundled_model, range_bits=10)
    table10 = comp.table
    mask = (1 << bundled_model.spec.total_bits) - 1
    mismatches = 0
    for i, row in enumerate(rows):
        maker_input = {f"x{j}": row[j] & mask for j in range(bundled_model.dim)}
        out = _record(run_protocol2(comp, [maker_input], seed=700 + i, verify=False))
        if out.result["probability_fixed"] != lr_predict_fixed(bundled_model, row, table10):
            mismatches += 1

    table12 = build_sigmoid_table(range_bits=12)
    worst = 0.0
    for row in rows:
        pf = lr_predict_float(bundled_model, row)
        pq = table12.out_spec.to_float(lr_predict_fixed(bundled_model, row, table12))
        worst = max(worst, abs(pf - pq))
    _report(
        7,
        mismatches == 0 and worst <= 2**-6,
        f"{len(rows)} rows, {mismatches} protocol/oracle mismatches; "
        f"max |p_fixed - p_float| = {worst:.2e} <= 2^-6 at range 12",
    )


def test_criterion_9_transport_equivalence(params8192, params4096, bundled_model, bundled_dataset):
    """Both protocols and both workloads over TCP loopback produce results and
    transcript type-sequences identical to in-process runs, under 2 minutes."""
    t_start = time.perf_counter()
    rows, _ = bundled_dataset
    mask = (1 << bundled_model.spec.total_bits) - 1
    ld = LdComputation(count_bits=11, m_instances=1)
    lr = LrComputation(model=bundled_model, range_bits=10)
    ld_inputs = [{"i0.n_AB": 30}, {"i0.n_Ab": 20}, {"i0.n_aB": 20}, {"i0.n_ab": 30}]
    lr_inputs = [{f"x{j}": rows[0][j] & mask for j in range(bundled_model.dim)}]

    cases = [
        ("P2/ld", lambda tr: run_protocol2(ld, ld_inputs, transport=tr, seed=901)),
        ("P2/lr", lambda tr: run_protocol2(lr, lr_inputs, transport=tr, seed=902)),
        ("P1/ld", lambda tr: run_protocol1(ld, ld_inputs, params8192, transport=tr, seed=903)),
        ("P1/lr", lambda tr: run_protocol1(lr, lr_inputs, params4096, transport=tr, seed=904)),
    ]
    failures = []
    for name, runner in cases:
        a = _record(runner("inproc"))
        b = _record(runner("tcp"))
        if a.result != b.result:
            failures.append(f"{name}: results differ")
        if type_sequence(a.transcript) != type_sequence(b.transcript):
            failures.append(f"{name}: type sequences differ")
        if [e.n_bytes for e in a.transcript.entries] != [
            e.n_bytes for e in b.transcript.entries
        ]:
            failures.append(f"{name}: payload sizes differ")
    elapsed = time.perf_counter() - t_start
    _report(
        9,
        not failures and elapsed < 120,
        f"4 protocol/workload pairs equivalent over tcp vs inproc in "
        f"{elapsed:.0f}s (< 120s){'; ' + '; '.join(failures) if failures else ''}",
    )


def test_criterion_8_protocol_hygiene():
    """Across every end-to-end session above: the datatrust transcript holds
    zero plaintext-, sk-, delta-, or k-bearing frames, and Protocol 2
    transcripts contain zero OT-typed messages.

    Runs last so the registry covers criteria 1, 6, 7, and 9.
    """
    assert len(SESSION_TRANSCRIPTS) >= 580, "hygiene scan needs the earlier sessions"
    for transcript in SESSION_TRANSCRIPTS:
        assert_datatrust_hygiene(transcript)
    _report(
        8,
        True,
        f"{len(SESSION_TRANSCRIPTS)} session transcripts scanned: no forbidden "
        f"datatrust frames, no OT message types",
    )

"""Spans and counters around the calls into each layer of mpcmarket.

The wrappers are installed from here, on the package's public functions and
methods; nothing inside the package changes. A span records its name, start,
end, parent span and thread. Spans and counters stay in memory until the
worker writes them out at the end of its run.

Self time is a span's duration minus the time its child spans cover. Over
TCP the roles run on the transport's listener threads, so a channel send
also gives up the time that spans on other threads cover inside it.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from collections import defaultdict
from typing import Callable

SEND = "protocol.channels.send"
RUNNER = "protocol.runner"


def _count(name: str, of: Callable):
    """Hook adding ``of(args, result)`` to the session's counter ``name``."""

    def hook(tracer, args, result):
        tracer.add(name, of(args, result))

    return hook


def _keep_finish(tracer, args, result):
    # he_finish(self, sk, [plan,] entries): the budgets are measured after
    # the session, outside every timed region.
    tracer.finished.append((args[1], args[-1]))


# (module, attribute path, span name, counter hook or None). A hook gets
# (tracer, args, result) after the call returns.
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("mpcmarket.protocol.computations", "build_ld_circuit", "circuits.build", None),
    ("mpcmarket.protocol.computations", "build_lr_circuit", "circuits.build", None),
    ("mpcmarket.protocol.parties", "serialize_circuit", "circuits.serialize", None),
    ("mpcmarket.protocol.parties", "parse_circuit_cached", "circuits.parse", None),
    ("mpcmarket.garbling", "garble", "garbling.garble",
     _count("garbling.garbled_ands", lambda a, r: r[0].n_and)),
    ("mpcmarket.garbling", "evaluate", "garbling.evaluate",
     _count("garbling.evaluated_ands", lambda a, r: a[0].n_and)),
    ("mpcmarket.garbling", "serialize_garbled", "garbling.codec",
     _count("garbling.table_bytes", lambda a, r: len(r))),
    ("mpcmarket.garbling", "parse_garbled", "garbling.codec", None),
    ("mpcmarket.garbling", "derive_input_labels", "garbling.labels", None),
    ("mpcmarket.he.ntt", "NttPlan.forward", "he.ntt", None),
    ("mpcmarket.he.ntt", "NttPlan.inverse", "he.ntt", None),
    ("mpcmarket.he.bfv", "keygen", "he.bfv.keygen", None),
    ("mpcmarket.he.bfv", "encrypt", "he.bfv.encrypt", None),
    ("mpcmarket.he.bfv", "decrypt", "he.bfv.decrypt", None),
    ("mpcmarket.he.bfv", "he_mul", "he.bfv.he_mul", None),
    ("mpcmarket.he.bfv", "he_mul_plain", "he.bfv.he_mul_plain", None),
    ("mpcmarket.he.bfv", "ciphertext_to_bytes", "he.bfv.ct_codec",
     _count("he.bfv.ct_bytes", lambda a, r: len(r))),
    ("mpcmarket.he.bfv", "ciphertext_from_bytes", "he.bfv.ct_codec", None),
    ("mpcmarket.he.bfv", "public_key_to_bytes", "he.bfv.key_codec",
     _count("he.bfv.key_bytes", lambda a, r: len(r))),
    ("mpcmarket.he.bfv", "relin_key_to_bytes", "he.bfv.key_codec",
     _count("he.bfv.key_bytes", lambda a, r: len(r))),
    ("mpcmarket.he.bfv", "public_key_from_bytes", "he.bfv.key_codec", None),
    ("mpcmarket.he.bfv", "relin_key_from_bytes", "he.bfv.key_codec", None),
    ("mpcmarket.analytics.ld", "LdHePlan.create", "analytics.ld.plan_create", None),
    ("mpcmarket.protocol.computations", "LdComputation.oracle", "analytics.oracle", None),
    ("mpcmarket.protocol.computations", "LrComputation.oracle", "analytics.oracle", None),
    *(
        ("mpcmarket.protocol.computations", f"{cls}.{meth}", "protocol.computations",
         _keep_finish if meth == "he_finish" else None)
        for cls in ("LdComputation", "LrComputation")
        for meth in ("he_encrypt_inputs", "he_evaluate", "he_finish")
    ),
    ("mpcmarket.protocol.parties", "Csp.he_setup", "protocol.parties.csp.he_setup", None),
    ("mpcmarket.protocol.parties", "Csp.make_garbled", "protocol.parties.csp.make_garbled",
     _count("circuits.text_bytes", lambda a, r: len(getattr(r, "circuit_text", b"")))),
    ("mpcmarket.protocol.parties", "Csp.receive", "protocol.parties.csp.receive", None),
    ("mpcmarket.protocol.parties", "Maker.make_encrypted_listing",
     "protocol.parties.maker.encrypted_listing", None),
    ("mpcmarket.protocol.parties", "Maker.make_input_labels",
     "protocol.parties.maker.input_labels", None),
    ("mpcmarket.protocol.parties", "Buyer.make_decrypt_request",
     "protocol.parties.buyer.decrypt_request", None),
    ("mpcmarket.protocol.parties", "Buyer.evaluate_garbled",
     "protocol.parties.buyer.evaluate_garbled", None),
    # Role work that has no metric of its own still has to leave the
    # transport's self time on the listener threads.
    ("mpcmarket.protocol.parties", "DataTrust.receive", "protocol.parties.other", None),
    ("mpcmarket.protocol.parties", "Maker.receive", "protocol.parties.other", None),
    ("mpcmarket.protocol.parties", "Buyer.receive", "protocol.parties.other", None),
    ("mpcmarket.protocol.channels", "pack_frame", "protocol.messages.pack", None),
    ("mpcmarket.protocol.channels", "parse_frame", "protocol.messages.parse", None),
    ("mpcmarket.protocol.channels", "InprocChannel.send", SEND, None),
    ("mpcmarket.protocol.channels", "TcpChannel.send", SEND, None),
    ("mpcmarket.protocol.runner", "make_channel", "protocol.channels.open_close", None),
    ("mpcmarket.protocol.channels", "BaseChannel.close", "protocol.channels.open_close", None),
    ("mpcmarket.protocol.channels", "TcpChannel.close", "protocol.channels.open_close", None),
]


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, thread id, session]
        self.spans: list[list] = []
        self.counters: dict[tuple[int, str], int] = defaultdict(int)
        self.finished: list[tuple] = []
        self.absent: list[str] = []
        self.session = -1
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, name: str, n: int) -> None:
        with self._lock:
            self.counters[(self.session, name)] += n

    def open(self, name: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, threading.get_ident(), self.session]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        span[1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, fn: Callable, name: str, hook: Callable | None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; a target that no longer exists is recorded by
        name in ``absent`` and skipped."""
        for module, attr, name, hook in targets:
            try:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                static = inspect.getattr_static(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{SELF_METRICS.get(name, name)} ({module}.{attr})")
                continue
            if isinstance(static, (classmethod, staticmethod)):
                wrapped = type(static)(self.wrap(static.__func__, name, hook))
            else:
                wrapped = self.wrap(static, name, hook)
            setattr(owner, leaf, wrapped)

    def session_span(self, session: int):
        """Span of one runner call; the caller closes it."""
        self.session = session
        return self.open(RUNNER)


def _union(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Self time of every span, by index."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    roots_by_thread: dict[int, list[list]] = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
        else:
            roots_by_thread[s[4]].append(s)
    out = {}
    for idx, s in enumerate(spans):
        covered = list(children[idx])
        if s[0] == SEND:
            for tid, roots in roots_by_thread.items():
                if tid == s[4]:
                    continue
                covered += [
                    (max(r[1], s[1]), min(r[2], s[2])) for r in roots if r[1] < s[2] and r[2] > s[1]
                ]
        out[idx] = (s[2] - s[1]) - _union(covered)
    return out


def _within(spans: list[list], idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


# Span name -> per-layer metric holding its self time.
SELF_METRICS = {
    "circuits.build": "circuits.build_s",
    "circuits.serialize": "circuits.serialize_s",
    "circuits.parse": "circuits.parse_s",
    "garbling.garble": "garbling.garble_s",
    "garbling.evaluate": "garbling.evaluate_s",
    "garbling.codec": "garbling.codec_s",
    "garbling.labels": "garbling.labels_s",
    "he.ntt": "he.ntt.self_s",
    "he.bfv.he_mul": "he.bfv.he_mul_s",
    "he.bfv.encrypt": "he.bfv.encrypt_s",
    "he.bfv.he_mul_plain": "he.bfv.he_mul_plain_s",
    "he.bfv.keygen": "he.bfv.keygen_s",
    "he.bfv.decrypt": "he.bfv.decrypt_s",
    "he.bfv.ct_codec": "he.bfv.ct_codec_s",
    "he.bfv.key_codec": "he.bfv.key_codec_s",
    "analytics.ld.plan_create": "analytics.ld.plan_create_s",
    "analytics.oracle": "analytics.oracle_s",
    "protocol.computations": "protocol.computations.self_s",
    "protocol.parties.csp.he_setup": "protocol.parties.csp.he_setup_s",
    "protocol.parties.csp.make_garbled": "protocol.parties.csp.make_garbled_s",
    "protocol.parties.csp.receive": "protocol.parties.csp.receive_s",
    "protocol.parties.maker.encrypted_listing": "protocol.parties.maker.encrypted_listing_s",
    "protocol.parties.maker.input_labels": "protocol.parties.maker.input_labels_s",
    "protocol.parties.buyer.decrypt_request": "protocol.parties.buyer.decrypt_request_s",
    "protocol.parties.buyer.evaluate_garbled": "protocol.parties.buyer.evaluate_garbled_s",
    "protocol.messages.pack": "protocol.messages.pack_s",
    "protocol.messages.parse": "protocol.messages.parse_s",
    "protocol.channels.open_close": "protocol.channels.open_close_s",
    SEND: "protocol.channels.send_self_s",
    RUNNER: "protocol.runner.self_s",
}

# Paid once per process (cached after the first session): reported as
# totals over the whole process, not per session.
PER_PROCESS = ("circuits.build_s", "circuits.serialize_s", "circuits.parse_s")

MESSAGE_TYPES = (
    "PublicKeyDist", "EncryptedListing", "Query", "ListingBundle", "DecryptRequest",
    "Result", "DeltaKeyDist", "InputLabels", "GarbledCircuitMsg", "OutputLabels",
    "OutputDecoding",
)


def session_split(tracer: Tracer) -> dict[int, dict[str, float]]:
    """Self time per layer metric, per session."""
    spans = tracer.spans
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for idx, t in self_times(spans).items():
        metric = SELF_METRICS.get(spans[idx][0])
        if metric is not None:
            out[spans[idx][5]][metric] += t
    return out


# Every per-layer metric with its unit and better direction, in report order.
PER_LAYER: dict[str, tuple[str, str]] = {
    **{m: ("s", "lower") for m in SELF_METRICS.values()},
    "circuits.text_bytes": ("B", "lower"),
    "circuits.and_gates": ("count", "lower"),
    "circuits.and_depth": ("count", "lower"),
    "garbling.garble_and_per_s": ("1/s", "higher"),
    "garbling.evaluate_and_per_s": ("1/s", "higher"),
    "garbling.aes_blocks": ("count", "lower"),
    "garbling.aes_blocks_per_s": ("1/s", "higher"),
    "garbling.table_bytes": ("B", "lower"),
    "he.ntt.transforms": ("count", "lower"),
    "he.ntt.us_per_transform": ("us", "lower"),
    "he.bfv.he_muls": ("count", "lower"),
    "he.bfv.ntts_per_he_mul": ("count", "lower"),
    "he.bfv.encrypts": ("count", "lower"),
    "he.bfv.ct_bytes": ("B", "lower"),
    "he.bfv.key_bytes": ("B", "lower"),
    "he.bfv.min_budget_bits": ("bits", "higher"),
    "he.bfv.budget_estimate_bits": ("bits", "higher"),
    "protocol.messages.frames": ("count", "lower"),
    "protocol.channels.us_per_frame": ("us", "lower"),
    **{f"protocol.messages.bytes.{t}": ("B", "lower") for t in MESSAGE_TYPES},
}


def layer_metrics(
    tracer: Tracer,
    measured: list[int],
    transcripts: dict[int, list[tuple[str, int]]],
    circuit_counts: tuple[int, int],
    budgets: tuple[float, float],
) -> dict[str, float]:
    """Per-layer metrics of one worker: per measured session (the mean over
    ``measured``) except the PER_PROCESS totals and the circuit counts.
    ``transcripts`` holds each session's (message type, frame bytes)."""
    split = session_split(tracer)
    spans = tracer.spans
    n = max(len(measured), 1)
    m: dict[str, float] = {}
    for metric in SELF_METRICS.values():
        if metric in PER_PROCESS:
            m[metric] = sum(s.get(metric, 0.0) for s in split.values())
        else:
            m[metric] = sum(split[i].get(metric, 0.0) for i in measured) / n

    def per_session(counter: str) -> float:
        return sum(tracer.counters.get((i, counter), 0) for i in measured) / n

    def spans_named(name: str, inside: str | None = None) -> float:
        hits = sum(
            1
            for idx, s in enumerate(spans)
            if s[0] == name and s[5] in measured and (inside is None or _within(spans, idx, inside))
        )
        return hits / n

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    garbled = per_session("garbling.garbled_ands")
    evaluated = per_session("garbling.evaluated_ands")
    aes = 4 * garbled + 2 * evaluated
    transforms = spans_named("he.ntt")
    he_muls = spans_named("he.bfv.he_mul")
    frames = sum(len(transcripts.get(i, ())) for i in measured) / n
    m.update({
        "circuits.text_bytes": per_session("circuits.text_bytes"),
        "circuits.and_gates": circuit_counts[0],
        "circuits.and_depth": circuit_counts[1],
        "garbling.garble_and_per_s": rate(garbled, m["garbling.garble_s"]),
        "garbling.evaluate_and_per_s": rate(evaluated, m["garbling.evaluate_s"]),
        "garbling.aes_blocks": aes,
        "garbling.aes_blocks_per_s": rate(aes, m["garbling.garble_s"] + m["garbling.evaluate_s"]),
        "garbling.table_bytes": per_session("garbling.table_bytes"),
        "he.ntt.transforms": transforms,
        "he.ntt.us_per_transform": 1e6 * m["he.ntt.self_s"] / transforms if transforms else 0.0,
        "he.bfv.he_muls": he_muls,
        "he.bfv.ntts_per_he_mul": spans_named("he.ntt", "he.bfv.he_mul") / he_muls if he_muls else 0.0,
        "he.bfv.encrypts": spans_named("he.bfv.encrypt"),
        "he.bfv.ct_bytes": per_session("he.bfv.ct_bytes"),
        "he.bfv.key_bytes": per_session("he.bfv.key_bytes"),
        "he.bfv.min_budget_bits": budgets[0],
        "he.bfv.budget_estimate_bits": budgets[1],
        "protocol.messages.frames": frames,
        "protocol.channels.us_per_frame": (
            1e6 * m["protocol.channels.send_self_s"] / frames if frames else 0.0
        ),
    })
    for t in MESSAGE_TYPES:
        m[f"protocol.messages.bytes.{t}"] = (
            sum(b for i in measured for kind, b in transcripts.get(i, ()) if kind == t) / n
        )
    return m

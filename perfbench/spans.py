"""Spans of the traced run, kept in memory, and the per-layer figures built from them.

A span has a name "<module>.<function>" (its layer is the module), start,
end, parent and operation id. The traced run times each operation's public
call as a root span, then issues the public calls that call is built from,
on the same inputs, as its child spans. A span's self time is its duration
minus its children's durations, so the self times of one operation's spans
add up to the duration of its root span.

Every figure is taken from the workload's own operations. A figure whose
spans the workload never produces is taken from the probe operations
(op id "probe"): the CLI command set, which every traced run issues once,
so that each layer is measured on every workload.
"""

from __future__ import annotations

import statistics
from dataclasses import asdict, dataclass, field
from time import perf_counter

PROBE = "probe"
WEAK = ("conformality.weak_conformality", "conformality.weak_conformality_value")
CONDUCTANCE = ("isoperimetry.conductance",)
EML_BATCH = ("isoperimetry.verify_eml_batch",)
VERIFIERS = ("isoperimetry.verify_cheeger", "isoperimetry.verify_eml", "laplacian.verify_radius_bound")
SPECTRUM = ("laplacian.inner_product_laplacian", "laplacian.semi_hodge")
COMPATIBILITY = ("laplacian.compatibility",)


@dataclass
class Span:
    name: str
    op: str
    parent: int | None
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []

    def call(self, name: str, fn, *, op: str, parent: int | None = None, **attrs):
        start = perf_counter()
        out = fn()
        end = perf_counter()
        self.spans.append(Span(name, op, parent, start, end, attrs))
        return out, len(self.spans) - 1

    def replay(self, parts, *, op: str, parent: int) -> None:
        for part in parts:
            _, sid = self.call(part.name, part.fn, op=op, parent=parent, **part.attrs)
            self.replay(part.children, op=op, parent=sid)

    def self_seconds(self) -> list[float]:
        out = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.seconds
        return out

    def to_list(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median_ms(seconds: list) -> float:
    return 1e3 * statistics.median(seconds) if seconds else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> tuple[dict, dict]:
    """Per-layer figures as {name: (value, unit)}, totals per traced pass, and
    {name: (samples, source)} for the run summary."""
    selfs = tracer.self_seconds()
    spans = list(zip(tracer.spans, selfs))

    def pick(names=None, prefix=None):
        """Spans of the workload's operations, or of the probe when there are none."""

        def match(s):
            return s.name in names if names else s.name.startswith(prefix)

        own = [(s, t) for s, t in spans if match(s) and s.op != PROBE]
        if own:
            return own, passes, "ops"
        return [(s, t) for s, t in spans if match(s) and s.op == PROBE], 1, "probe"

    metrics, notes = {}, {}

    def put(name, value, unit, samples, source):
        metrics[name] = (float(value), unit)
        notes[name] = (samples, source)

    weak, per, src = pick(WEAK)
    weak_s = sum(t for _, t in weak)
    parts_done = sum(s.attrs["partitions"] for s, _ in weak)
    put("conformality.weak_s", weak_s / per, "s", len(weak), src)
    put("conformality.calls", len(weak) / per, "count", len(weak), src)
    put("conformality.partitions", parts_done / per, "count", len(weak), src)
    put("conformality.partitions_per_s", _ratio(parts_done, weak_s), "1/s", len(weak), src)
    structured_s = sum(t for s, t in weak if s.attrs["structured"])
    put("conformality.structured_share", _ratio(structured_s, weak_s), "share", len(weak), src)

    cond, per, src = pick(CONDUCTANCE)
    cond_s = sum(t for _, t in cond)
    cut_count = sum(s.attrs["cuts"] for s, _ in cond)
    put("isoperimetry.conductance_s", cond_s / per, "s", len(cond), src)
    put("isoperimetry.cuts", cut_count / per, "count", len(cond), src)
    put("isoperimetry.cuts_per_s", _ratio(cut_count, cond_s), "1/s", len(cond), src)

    eml, per, src = pick(EML_BATCH)
    eml_s = sum(t for _, t in eml)
    pair_count = sum(s.attrs["pairs"] for s, _ in eml)
    put("isoperimetry.eml_batch_s", eml_s / per, "s", len(eml), src)
    put("isoperimetry.pairs", pair_count / per, "count", len(eml), src)
    put("isoperimetry.pairs_per_s", _ratio(pair_count, eml_s), "1/s", len(eml), src)

    ver, per, src = pick(VERIFIERS)
    put("isoperimetry.verify_self_s", sum(t for _, t in ver) / per, "s", len(ver), src)

    spec, per, src = pick(SPECTRUM)
    put("laplacian.spectrum_s", sum(t for _, t in spec) / per, "s", len(spec), src)
    comp, per_c, src_c = pick(COMPATIBILITY)
    put("laplacian.compatibility_s", sum(t for _, t in comp) / per_c, "s", len(comp), src_c)
    lap, per, src = pick(prefix="laplacian.")
    put("laplacian.calls", len(lap) / per, "count", len(lap), src)

    runs, _, src = pick(("cli.run",))
    # Per command, the share of the subprocess not covered by ipl.cli.main
    # replayed in-process: interpreter start and import ipl.
    share = statistics.median(t / s.seconds for s, t in runs) if runs else 0.0
    put("cli.startup_share", share, "share", len(runs), src)
    main, _, src = pick(("cli.main",))
    put("cli.main_ms", _median_ms([s.seconds for s, _ in main]), "ms", len(main), src)
    loads, per, src = pick(prefix="jsonio.")
    put("jsonio.load_ms", 1e3 * sum(s.seconds for s, _ in loads) / per, "ms", len(loads), src)
    emits, per, src = pick(prefix="report.")
    put("report.emit_ms", 1e3 * sum(s.seconds for s, _ in emits) / per, "ms", len(emits), src)
    put("report.bytes", sum(s.attrs["bytes"] for s, _ in emits) / per, "B", len(emits), src)

    # Dominance shares: the workload's own operations only, never the probe.
    roots = [s for s in tracer.spans if s.parent is None and s.op != PROBE]
    total = sum(s.seconds for s in roots)
    own = [(s, t) for s, t in spans if s.op != PROBE]
    conf = sum(t for s, t in own if s.layer == "conformality")
    enum = sum(t for s, t in own if s.name in CONDUCTANCE + EML_BATCH)
    put("conformality.share", _ratio(conf, total), "share", len(roots), "ops")
    put("isoperimetry.enum_share", _ratio(enum, total), "share", len(roots), "ops")
    return metrics, notes

"""Roll-ups and exporters for traced runs.

Turns the per-rank event streams of :mod:`repro.cluster.trace` into the
per-phase breakdowns the paper argues from (Sections 3–6, Table 1):

* :class:`TraceReport` — bytes and time by primitive × phase, per-rank
  totals, and idle/skew analysis across ranks, with a text renderer;
* :func:`to_chrome_trace` / :func:`write_chrome_trace` — Chrome-trace
  JSON (the ``traceEvents`` array format) loadable in Perfetto or
  ``chrome://tracing``, one track per rank, comm/disk slices nested
  inside their phase spans.

Simulated seconds are exported as trace microseconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .trace import Tracer

__all__ = [
    "OpRow",
    "RankTotals",
    "LevelRow",
    "ExchangeRow",
    "TraceReport",
    "to_chrome_trace",
    "write_chrome_trace",
]

_NO_PHASE = "(no phase)"

#: PhaseTimer phase the drivers open around every statistics exchange
#: (a forest prefixes it with the member tree: ``tree3/stats``).
_STATS_PHASE = "stats"


@dataclass(frozen=True)
class LevelRow:
    """Aggregate over all ranks for one frontier level (events recorded
    while the driver had that level open; ``level is None`` groups
    everything outside the frontier loop — preprocessing, checkpoints,
    the small-task phase and assembly)."""

    level: int | None
    comm_count: int
    comm_time: float
    comm_sent: int
    comm_received: int
    disk_count: int
    disk_time: float
    disk_read: int
    disk_written: int
    #: simulated seconds of disk transfer this level hid behind compute
    #: via overlapped prefetch (sum of the ``prefetch_wait`` events'
    #: ``saved``); reconciles exactly against ``stats.io_overlap_saved``
    overlap_saved: float = 0.0

    @property
    def name(self) -> str:
        return "outside" if self.level is None else str(self.level)


@dataclass(frozen=True)
class ExchangeRow:
    """Statistics-exchange traffic for one frontier level: every comm
    event recorded inside the driver's ``stats`` phase, which is exactly
    the collectives the exchange strategy issued (ballots, partitioned
    alltoalls, combines, split elections)."""

    level: int | None
    count: int
    time: float
    sent: int
    received: int

    @property
    def name(self) -> str:
        return "outside" if self.level is None else str(self.level)


@dataclass(frozen=True)
class OpRow:
    """Aggregate over all ranks for one (phase, kind, op) cell."""

    phase: str
    kind: str
    op: str
    count: int
    time: float  # sum of event durations over all ranks
    sent: int
    received: int

    @property
    def nbytes(self) -> int:
        return self.sent + self.received


@dataclass(frozen=True)
class RankTotals:
    """Per-rank traffic and activity totals."""

    rank: int
    comm_sent: int
    comm_received: int
    comm_time: float
    disk_read: int
    disk_written: int
    disk_time: float
    n_events: int
    t_end: float  # latest event end on this rank


class TraceReport:
    """Aggregated view over the tracers of one run."""

    def __init__(self, tracers: list[Tracer]) -> None:
        self.tracers = list(tracers)
        self.rows = self._aggregate_ops()
        self.per_rank = self._aggregate_ranks()

    @classmethod
    def from_tracers(cls, tracers: Iterable[Tracer]) -> "TraceReport":
        return cls(list(tracers))

    # -- aggregation ---------------------------------------------------------
    def _aggregate_ops(self) -> list[OpRow]:
        acc: dict[tuple[str, str, str], list] = {}
        for t in self.tracers:
            for e in t.events:
                if e.kind == "phase":
                    continue  # phases are the grouping, not a row
                key = (e.phase or _NO_PHASE, e.kind, e.op)
                cell = acc.setdefault(key, [0, 0.0, 0, 0])
                cell[0] += 1
                cell[1] += e.duration
                cell[2] += e.sent
                cell[3] += e.received
        return [
            OpRow(phase=p, kind=k, op=o, count=c, time=dt, sent=s, received=r)
            for (p, k, o), (c, dt, s, r) in sorted(acc.items())
        ]

    def _aggregate_ranks(self) -> list[RankTotals]:
        out = []
        for t in self.tracers:
            comm = t.comm_events()
            disk = t.disk_events()
            out.append(
                RankTotals(
                    rank=t.rank,
                    comm_sent=sum(e.sent for e in comm),
                    comm_received=sum(e.received for e in comm),
                    comm_time=sum(e.duration for e in comm),
                    disk_read=sum(e.received for e in disk),
                    disk_written=sum(e.sent for e in disk),
                    disk_time=sum(e.duration for e in disk),
                    n_events=len(t.events),
                    t_end=max((e.t_end for e in t.events), default=0.0),
                )
            )
        return out

    # -- totals --------------------------------------------------------------
    @property
    def total_sent(self) -> int:
        return sum(r.comm_sent for r in self.per_rank)

    @property
    def total_received(self) -> int:
        return sum(r.comm_received for r in self.per_rank)

    @property
    def total_disk_read(self) -> int:
        return sum(r.disk_read for r in self.per_rank)

    @property
    def total_disk_written(self) -> int:
        return sum(r.disk_written for r in self.per_rank)

    def phase_comm_bytes(self) -> dict[str, int]:
        """Total comm bytes (sent + received over all ranks) per phase."""
        out: dict[str, int] = {}
        for row in self.rows:
            if row.kind == "comm":
                out[row.phase] = out.get(row.phase, 0) + row.nbytes
        return out

    def phase_skew(self) -> dict[str, tuple[float, float, float]]:
        """Per phase: (max over ranks, mean over ranks, max/mean ratio)
        of the simulated time the ranks spent in it. The ratio is the
        paper's load-balance lens: 1.0 means perfectly even phases."""
        per_rank: list[dict[str, float]] = []
        for t in self.tracers:
            d: dict[str, float] = {}
            for e in t.phase_events():
                d[e.op] = d.get(e.op, 0.0) + e.duration
            per_rank.append(d)
        phases = sorted({k for d in per_rank for k in d})
        out = {}
        n = max(len(per_rank), 1)
        for ph in phases:
            vals = [d.get(ph, 0.0) for d in per_rank]
            mx, mean = max(vals), sum(vals) / n
            out[ph] = (mx, mean, mx / mean if mean > 0 else 1.0)
        return out

    def level_rollup(self) -> list[LevelRow]:
        """Comm and disk activity grouped by frontier level, in level
        order with the outside-the-loop bucket last. Levels are stamped
        on events by the driver's ``begin_level``/``end_level``
        notifications, so runs traced without a level-aware driver
        collapse into the single outside bucket."""
        acc: dict[int | None, list] = {}
        for t in self.tracers:
            for e in t.events:
                if e.kind not in ("comm", "disk"):
                    continue
                cell = acc.setdefault(
                    e.level, [0, 0.0, 0, 0, 0, 0.0, 0, 0, 0.0]
                )
                if e.kind == "comm":
                    cell[0] += 1
                    cell[1] += e.duration
                    cell[2] += e.sent
                    cell[3] += e.received
                else:
                    cell[4] += 1
                    cell[5] += e.duration
                    cell[6] += e.received  # disk events: received = read
                    cell[7] += e.sent  # sent = written
                    cell[8] += e.saved  # prefetch overlap hidden here
        ordered = sorted(acc, key=lambda lv: (lv is None, lv if lv is not None else 0))
        return [
            LevelRow(
                level=lv,
                comm_count=acc[lv][0],
                comm_time=acc[lv][1],
                comm_sent=acc[lv][2],
                comm_received=acc[lv][3],
                disk_count=acc[lv][4],
                disk_time=acc[lv][5],
                disk_read=acc[lv][6],
                disk_written=acc[lv][7],
                overlap_saved=acc[lv][8],
            )
            for lv in ordered
        ]

    @property
    def exchange_strategy(self) -> str | None:
        """The stats-exchange strategy the traced run used (recorded via
        the driver's ``on_stats_exchange`` notification; None when the
        run predates the hook or never exchanged statistics)."""
        for t in self.tracers:
            if t.exchange_strategy is not None:
                return t.exchange_strategy
        return None

    def exchange_rollup(self) -> list[ExchangeRow]:
        """Stats-exchange collective traffic grouped by frontier level:
        per level the number of collectives issued inside the driver's
        ``stats`` phase (tree-prefixed ``tree{t}/stats`` in a forest fit)
        and the exact bytes they moved (from
        the tracer's :class:`RankStats` snapshots, summed over ranks).
        This is the payload-accounting view behind the voting strategy's
        O(attributes) → O(k) claim — compare the same run under
        ``exchange="attribute"`` and ``exchange="voting"``."""
        acc: dict[int | None, list] = {}
        for t in self.tracers:
            for e in t.events:
                if (
                    e.kind != "comm"
                    or e.phase is None
                    or e.phase.rsplit("/", 1)[-1] != _STATS_PHASE
                ):
                    continue
                cell = acc.setdefault(e.level, [0, 0.0, 0, 0])
                cell[0] += 1
                cell[1] += e.duration
                cell[2] += e.sent
                cell[3] += e.received
        ordered = sorted(acc, key=lambda lv: (lv is None, lv if lv is not None else 0))
        return [
            ExchangeRow(
                level=lv,
                count=acc[lv][0],
                time=acc[lv][1],
                sent=acc[lv][2],
                received=acc[lv][3],
            )
            for lv in ordered
        ]

    def exchange_bytes(self) -> int:
        """Total bytes sent by stats-exchange collectives over all ranks
        and levels — the single number the voting strategy shrinks."""
        return sum(row.sent for row in self.exchange_rollup())

    def critical_path(self, network=None, *, elapsed: float | None = None):
        """The run's causal critical path
        (:func:`repro.obs.critpath.build_critical_path` over these
        tracers). Pass the run's :class:`NetworkModel` so comm blame
        splits into startup vs. bandwidth with the machine's actual
        alpha/beta ratio, and the run's elapsed time to account trailing
        local work after the last traced event."""
        from repro.obs.critpath import build_critical_path

        return build_critical_path(self.tracers, network, elapsed=elapsed)

    def rank_skew(self) -> float:
        """Spread of the ranks' final event times: (max - min) / max.
        0.0 means all ranks finished together (no trailing idle)."""
        ends = [r.t_end for r in self.per_rank]
        if not ends or max(ends) == 0:
            return 0.0
        return (max(ends) - min(ends)) / max(ends)

    # -- rendering -----------------------------------------------------------
    def render(self) -> str:
        """The run as text: traffic by primitive × phase, per-rank
        totals, and the skew analysis."""
        lines = ["== traffic by primitive × phase (all ranks) =="]
        header = (
            f"{'phase':<14} {'kind':<5} {'op':<16} {'count':>7} "
            f"{'bytes':>14} {'sent':>14} {'received':>14} {'time(s)':>10}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                f"{row.phase:<14} {row.kind:<5} {row.op:<16} {row.count:>7} "
                f"{row.nbytes:>14,} {row.sent:>14,} {row.received:>14,} "
                f"{row.time:>10.3f}"
            )
        lines.append(
            f"total comm: sent {self.total_sent:,} B, "
            f"received {self.total_received:,} B; "
            f"disk: read {self.total_disk_read:,} B, "
            f"written {self.total_disk_written:,} B"
        )
        lines.append("")
        lines.append("== per-rank totals ==")
        lines.append(
            f"{'rank':>4} {'comm sent':>14} {'comm recv':>14} "
            f"{'disk read':>14} {'disk write':>14} {'events':>8} {'end(s)':>10}"
        )
        for r in self.per_rank:
            lines.append(
                f"{r.rank:>4} {r.comm_sent:>14,} {r.comm_received:>14,} "
                f"{r.disk_read:>14,} {r.disk_written:>14,} {r.n_events:>8} "
                f"{r.t_end:>10.3f}"
            )
        levels = self.level_rollup()
        if any(row.level is not None for row in levels):
            lines.append("")
            lines.append("== traffic by frontier level (all ranks) ==")
            lines.append(
                f"{'level':<8} {'comm n':>7} {'comm(s)':>10} {'sent':>14} "
                f"{'received':>14} {'disk n':>7} {'disk(s)':>10} "
                f"{'read':>14} {'written':>14} {'hidden(s)':>10}"
            )
            for row in levels:
                lines.append(
                    f"{row.name:<8} {row.comm_count:>7} {row.comm_time:>10.3f} "
                    f"{row.comm_sent:>14,} {row.comm_received:>14,} "
                    f"{row.disk_count:>7} {row.disk_time:>10.3f} "
                    f"{row.disk_read:>14,} {row.disk_written:>14,} "
                    f"{row.overlap_saved:>10.3f}"
                )
        exchange = self.exchange_rollup()
        if exchange:
            strategy = self.exchange_strategy or "unknown"
            lines.append("")
            lines.append(
                f"== stats-exchange payload by level (strategy: {strategy}) =="
            )
            lines.append(
                f"{'level':<8} {'coll n':>7} {'time(s)':>10} {'sent':>14} "
                f"{'received':>14}"
            )
            for row in exchange:
                lines.append(
                    f"{row.name:<8} {row.count:>7} {row.time:>10.3f} "
                    f"{row.sent:>14,} {row.received:>14,}"
                )
            lines.append(
                f"total stats-exchange: {sum(r.count for r in exchange)} "
                f"collectives, {sum(r.sent for r in exchange):,} B sent"
            )
        skew = self.phase_skew()
        if skew:
            lines.append("")
            lines.append("== phase skew across ranks ==")
            lines.append(
                f"{'phase':<14} {'max(s)':>10} {'mean(s)':>10} {'imbalance':>10}"
            )
            for ph, (mx, mean, ratio) in skew.items():
                lines.append(
                    f"{ph:<14} {mx:>10.3f} {mean:>10.3f} {ratio:>10.2f}"
                )
        lines.append(f"finish-time skew across ranks: {self.rank_skew():.1%}")
        try:
            path = self.critical_path()
        except Exception:
            path = None  # partial / foreign event streams: skip section
        if path is not None and path.length > 0:
            lines.append("")
            lines.append(
                "== critical path (default machine model; use "
                "`repro critpath` for the run's model) =="
            )
            cats = path.by_category()
            for cat, secs in cats.items():
                if secs > 0:
                    lines.append(
                        f"{cat:<16} {secs:>10.3f}s {path.share(cat):>7.1%}"
                    )
            lines.append(
                f"length {path.length:.3f}s on {path.n_cross_rank + 1} rank "
                f"visit(s), ends on rank {path.end_rank}"
            )
            blame = path.by_level_category()
            by_level = path.by_level()
            if any(lv is not None for lv in by_level):
                lines.append(f"{'level':<8} {'path(s)':>10}  dominant blame")
                for lv in sorted(
                    by_level, key=lambda x: (x is None, x if x is not None else 0)
                ):
                    cell = blame[lv]
                    dom = max(cell, key=cell.get)
                    share = cell[dom] / by_level[lv] if by_level[lv] else 0.0
                    name = "outside" if lv is None else str(lv)
                    lines.append(
                        f"{name:<8} {by_level[lv]:>10.3f}  {dom} {share:.0%}"
                    )
        return "\n".join(lines)


# -- Chrome trace / Perfetto export ------------------------------------------


def _flow_events(tracers: list[Tracer], critical_path=None) -> list[dict]:
    """Chrome-trace flow arrows ("s"/"f" pairs) making cross-rank
    causality visible in Perfetto: one fan-out per collective from the
    last-arriving participant (whose entry releases everyone) to every
    other participant's exit, one arrow per matched ``send``/``recv``
    pair, and — when a :class:`~repro.obs.critpath.CriticalPath` is
    passed — highlighted arrows at each of the path's rank crossings."""
    from repro.obs.critpath import (
        CritPathError,
        _timeline,
        collective_groups,
        match_p2p,
    )

    try:
        attempt = max(
            (e.attempt for t in tracers for e in t.events), default=0
        )
        timelines = [_timeline(t, attempt) for t in tracers]
        groups = collective_groups(timelines)
        p2p = match_p2p(timelines)
    except CritPathError:
        return []  # foreign / inconsistent streams: no arrows
    flows: list[dict] = []
    next_id = 1

    def arrow(name, src_tid, src_ts, dst_tid, dst_ts, cat="flow"):
        nonlocal next_id
        common = {"cat": cat, "name": name, "id": next_id, "pid": 0}
        flows.append({**common, "ph": "s", "tid": src_tid, "ts": src_ts * 1e6})
        flows.append(
            {**common, "ph": "f", "bp": "e", "tid": dst_tid, "ts": dst_ts * 1e6}
        )
        next_id += 1

    seen: set[int] = set()
    for evs in timelines:
        for e in evs:
            g = groups.get(id(e))
            if g is None or id(g[0][1]) in seen:
                continue
            seen.add(id(g[0][1]))
            if len(g) < 2:
                continue
            t_sync = max(ev.t_start for _, ev in g)
            src = min(rk for rk, ev in g if ev.t_start == t_sync)
            for rk, ev in g:
                if rk != src:
                    arrow(e.op, src, t_sync, rk, ev.t_end)
    for rank, evs in enumerate(timelines):
        for e in evs:
            m = p2p.get(id(e))
            if m is None:
                continue
            src, se = m
            arrow(f"{se.op}->recv", src, se.t_end, rank, e.t_end)
    if critical_path is not None:
        for a, b in critical_path.crossings():
            arrow(
                f"critpath:{b.op}", a.rank, a.t_end, b.rank, b.t_start,
                cat="critpath",
            )
    return flows


def to_chrome_trace(tracers: Iterable[Tracer], critical_path=None) -> dict:
    """The run as a Chrome-trace dict (``{"traceEvents": [...]}``).

    Complete ("X") slices, one trace thread per rank, with phase spans
    enclosing the comm/disk slices they cover, plus flow events tracing
    cross-rank causality (see :func:`_flow_events`). Simulated seconds
    map to trace microseconds; byte counts and communicator labels
    travel in each slice's ``args``.
    """
    tracers = list(tracers)
    events: list[dict] = []
    for t in tracers:
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": t.rank,
                "args": {"name": f"rank {t.rank}"},
            }
        )
        slices = []
        for e in t.events:
            args: dict = {"kind": e.kind}
            if e.kind == "comm":
                args.update(
                    {"comm": e.comm, "sent": e.sent, "received": e.received}
                )
                if e.phase:
                    args["phase"] = e.phase
            elif e.kind == "disk":
                args["nbytes"] = e.nbytes
                if e.phase:
                    args["phase"] = e.phase
            if e.level is not None and e.kind in ("comm", "disk"):
                args["level"] = e.level
            slices.append(
                {
                    "name": e.op,
                    "cat": e.kind,
                    "ph": "X",
                    "ts": e.t_start * 1e6,
                    "dur": max(e.duration, 0.0) * 1e6,
                    "pid": 0,
                    "tid": t.rank,
                    "args": args,
                }
            )
        # enclosing spans first at equal start times, so viewers nest
        # phase > primitive correctly
        slices.sort(key=lambda s: (s["ts"], -s["dur"]))
        events.extend(slices)
    events.extend(_flow_events(tracers, critical_path))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str, tracers: Iterable[Tracer], critical_path=None
) -> None:
    """Write :func:`to_chrome_trace` output as JSON, for Perfetto."""
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(tracers, critical_path), fh)

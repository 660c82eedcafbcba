"""Event-level simulation tracing with Chrome trace-event export.

:class:`EventTracer` is a bounded in-memory recorder of the fine-grained
events the end-of-run aggregates cannot show: which DRAM commands a
mechanism issues, when requests wait in the controller queues, and when
in-DRAM cache insertions, evictions, and relocations fire.  The recorded
stream exports to Chrome trace-event JSON (:func:`to_chrome_trace`), the
format Perfetto (https://ui.perfetto.dev) and ``chrome://tracing`` render
as an interactive timeline — one track per channel/bank, async spans for
requests.

Three event families are recorded:

* **DRAM commands** — ``ACT``/``RD``/``WR``/``PRE`` implied by each
  serviced request's row-buffer outcome (hit: column access only; miss:
  activate + column; conflict: precharge + activate + column), plus
  ``REF``/``REFpb`` from the refresh machinery.  Command timestamps
  derive from the request's service window: ``PRE``/``ACT`` are stamped
  at the issue cycle and the column access at the data-return cycle
  (the simulator's timing model resolves intra-service command spacing
  into the completion time rather than materialising per-command
  cycles).
* **Request lifecycle** — one record per serviced request carrying all
  three timestamps (enqueue/arrival, scheduled/issue, data return),
  exported as an async span with a ``scheduled`` instant.
* **Mechanism events** — FIGCache segment insert/evict (with FIGARO
  relocation cost), LISA-VILLA row insert/evict (with hop distance).

Zero-overhead-when-off contract (the PR 4 telemetry discipline): tracing
is enabled by *installing* a tracer on the assembled system
(``System(..., tracer=...)``); with no tracer installed every hook is a
single ``tracer is not None`` comparison against an attribute that is
``None``, hoisted out of the per-request loops where possible, and the
turbo backend's fused loop is not touched at all (traced turbo runs
take the reference ``Simulator`` loop, which is bit-identical by the
backend parity contract).  Tracing never changes simulated results —
hooks are read-only observers — so results are bit-identical with
tracing on or off (``tests/test_backend.py`` asserts both directions).

The recorder is a ring buffer: once ``max_events`` records are held, the
oldest are dropped (``dropped_events`` counts them), so a trace of an
arbitrarily long run is bounded and keeps the most recent window.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

#: Bump when the recorded tuples or the exported JSON layout change.
TRACE_SCHEMA_VERSION = 1

#: Default ring-buffer capacity (records, not exported JSON events).
DEFAULT_MAX_EVENTS = 1_000_000

#: Record kind tags (first tuple element of every ring-buffer record).
CMD = "cmd"
REQ = "req"
REF = "ref"
MECH = "mech"


class EventTracer:
    """Bounded recorder of simulation events.

    Records are compact tuples appended to a ``deque(maxlen=...)`` ring
    buffer — O(1) per event, oldest-first eviction.  The hook methods are
    written for the controller's service path: one call per serviced
    request (:meth:`request_serviced`) derives every implied DRAM
    command, so the hot loops carry exactly one ``is not None`` check
    per request.
    """

    __slots__ = ("max_events", "events", "total_events")

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS):
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.max_events = max_events
        #: Ring buffer of event records (tuples; see module docstring).
        self.events: deque = deque(maxlen=max_events)
        #: Records ever offered (including ones the ring has dropped).
        self.total_events = 0

    @property
    def dropped_events(self) -> int:
        """Records evicted by the ring buffer (oldest-first)."""
        return self.total_events - len(self.events)

    # ------------------------------------------------------------------
    # Hook methods (called from the instrumented simulation objects).
    # ------------------------------------------------------------------
    def request_serviced(self, request) -> None:
        """Record one serviced request: implied commands + lifecycle.

        Called from the channel controller once per serviced request,
        after the service outcome fields are filled in.  The row-buffer
        outcome determines the implied command sequence; the request
        record itself carries the full lifecycle (arrival, issue,
        completion).
        """
        decoded = request.decoded
        channel = decoded.channel
        flat_bank = request.flat_bank
        issue = request.issue_cycle
        completion = request.completion_cycle
        outcome = request.row_buffer_outcome
        op = "WR" if request.is_write else "RD"
        append = self.events.append
        count = 2
        if outcome == "miss":
            append((CMD, issue, channel, flat_bank, "ACT"))
            count = 3
        elif outcome == "conflict":
            append((CMD, issue, channel, flat_bank, "PRE"))
            append((CMD, issue, channel, flat_bank, "ACT"))
            count = 4
        append((CMD, completion, channel, flat_bank, op))
        append((REQ, request.arrival_cycle, channel, flat_bank, op,
                request.request_id, issue, completion, outcome,
                request.in_dram_cache_hit, request.served_fast))
        self.total_events += count

    def refresh(self, start_cycle: int, completion_cycle: int,
                channel: int, flat_bank: int, mode: str) -> None:
        """Record one refresh command.

        ``mode`` is ``"all-bank"`` (REFab: ``flat_bank`` is the rank's
        first bank and the command blocks the whole rank) or
        ``"per-bank"`` (REFpb/REFSB: ``flat_bank`` is the refreshed
        bank).
        """
        self.total_events += 1
        self.events.append((REF, start_cycle, channel, flat_bank, mode,
                            completion_cycle))

    def mechanism_event(self, cycle: int, channel: int, flat_bank: int,
                        name: str, detail: dict | None = None) -> None:
        """Record one mechanism event (insert/evict/relocation/...)."""
        self.total_events += 1
        self.events.append((MECH, cycle, channel, flat_bank, name, detail))

    # ------------------------------------------------------------------
    # Installation.
    # ------------------------------------------------------------------
    def install(self, system) -> None:
        """Attach this tracer to an assembled :class:`~repro.sim.system.System`.

        Sets the ``tracer`` attribute on every channel controller (command
        and request hooks), every channel (refresh hook), and every
        mechanism (insert/evict hooks).  ``System.__init__`` calls this
        when constructed with a tracer.
        """
        for controller in system.controller.channel_controllers:
            controller.tracer = self
            controller.channel.tracer = self
        for mechanism in system.mechanisms:
            mechanism.tracer = self


# ----------------------------------------------------------------------
# Chrome trace-event export.
# ----------------------------------------------------------------------
def _cycles_to_us(cycle: int, cpu_clock_ghz: float) -> float:
    """CPU cycles → microseconds (the Chrome trace-event time unit)."""
    return cycle / cpu_clock_ghz / 1000.0


def to_chrome_trace(tracer: EventTracer, dram_config,
                    metadata: dict | None = None) -> dict:
    """Export a tracer's ring buffer as a Chrome trace-event JSON object.

    Layout: one *process* per channel (pid = channel id), one *thread*
    per bank (tid = flat bank index) named with its bank group, so
    Perfetto renders a channel/bank track hierarchy.  DRAM commands are
    thread-scoped instants, refreshes are complete (duration) events,
    requests are async spans (``b``/``n``/``e`` with the request id),
    and mechanism events are instants carrying their detail dict as
    ``args``.
    """
    ghz = dram_config.cpu_clock_ghz
    banks_per_bankgroup = dram_config.banks_per_bankgroup
    banks_per_rank = dram_config.banks_per_rank
    trace_events: list[dict] = []
    tracks: set[tuple[int, int]] = set()

    for record in tracer.events:
        kind = record[0]
        if kind == CMD:
            _, cycle, channel, flat_bank, name = record
            tracks.add((channel, flat_bank))
            trace_events.append({
                "name": name, "ph": "i", "s": "t", "cat": "dram",
                "ts": _cycles_to_us(cycle, ghz),
                "pid": channel, "tid": flat_bank,
            })
        elif kind == REQ:
            (_, arrival, channel, flat_bank, op, request_id, issue,
             completion, outcome, cache_hit, served_fast) = record
            tracks.add((channel, flat_bank))
            common = {"cat": "request", "id": request_id,
                      "pid": channel, "tid": flat_bank,
                      "name": "read" if op == "RD" else "write"}
            trace_events.append({
                **common, "ph": "b", "ts": _cycles_to_us(arrival, ghz),
                "args": {"row_buffer_outcome": outcome,
                         "in_dram_cache_hit": cache_hit,
                         "served_fast": served_fast,
                         "arrival_cycle": arrival,
                         "issue_cycle": issue,
                         "completion_cycle": completion},
            })
            trace_events.append({
                **common, "ph": "n", "ts": _cycles_to_us(issue, ghz),
                "name": "scheduled",
            })
            trace_events.append({
                **common, "ph": "e", "ts": _cycles_to_us(completion, ghz),
            })
        elif kind == REF:
            _, cycle, channel, flat_bank, mode, completion = record
            tracks.add((channel, flat_bank))
            trace_events.append({
                "name": "REF" if mode == "all-bank" else "REFpb",
                "ph": "X", "cat": "refresh",
                "ts": _cycles_to_us(cycle, ghz),
                "dur": max(_cycles_to_us(completion - cycle, ghz), 0.0),
                "pid": channel, "tid": flat_bank,
                "args": {"mode": mode},
            })
        else:  # MECH
            _, cycle, channel, flat_bank, name, detail = record
            tracks.add((channel, flat_bank))
            trace_events.append({
                "name": name, "ph": "i", "s": "t", "cat": "mechanism",
                "ts": _cycles_to_us(cycle, ghz),
                "pid": channel, "tid": flat_bank,
                "args": dict(detail) if detail else {},
            })

    # Metadata events name the channel/bank track hierarchy.
    naming: list[dict] = []
    for channel in sorted({channel for channel, _ in tracks}):
        naming.append({"name": "process_name", "ph": "M", "pid": channel,
                       "args": {"name": f"channel {channel}"}})
    for channel, flat_bank in sorted(tracks):
        local = flat_bank % banks_per_rank
        label = (f"bank {flat_bank} "
                 f"(bg {local // banks_per_bankgroup})")
        naming.append({"name": "thread_name", "ph": "M", "pid": channel,
                       "tid": flat_bank, "args": {"name": label}})

    other = {"schema": TRACE_SCHEMA_VERSION,
             "cpu_clock_ghz": ghz,
             "recorded_events": len(tracer.events),
             "total_events": tracer.total_events,
             "dropped_events": tracer.dropped_events}
    if metadata:
        other.update(metadata)
    return {"traceEvents": naming + trace_events,
            "displayTimeUnit": "ns",
            "otherData": other}


def write_chrome_trace(path: str | Path, tracer: EventTracer, dram_config,
                       metadata: dict | None = None) -> Path:
    """Serialise :func:`to_chrome_trace` to ``path``; returns the path."""
    path = Path(path)
    payload = to_chrome_trace(tracer, dram_config, metadata)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    return path

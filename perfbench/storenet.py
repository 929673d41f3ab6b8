"""In-process store workloads: three ``ServerCore``s under a seeded scheduler.

The network is the benchmark's own. Every peer frame is encoded with
``wire.encode_frame`` and parsed back with ``wire.iter_frames``, so what
a core receives is what would cross a socket. Links are per-link FIFO
queues (TCP keeps order within a connection); at each step the scheduler
picks one non-empty link with a seeded RNG, delivers its head frame and
advances the virtual clock by a fixed delay. Every 50 virtual ms each
core gets a tick. When nothing is in flight the clock jumps to the next
tick, which is how a stalled head op reaches its election timeout.

Clients are logical and closed loop: each issues its next op the moment
the previous one is answered, on the node it is attached to. The
virtual clock counts whole microseconds and nothing reads a wall clock
except to time the loop, so every count and every virtual latency is a
function of the seed alone.
"""

from __future__ import annotations

import gc
import io
import random
import statistics
import time
from collections import deque

from prdt import codec
from prdt.bench import percentile_nearest_rank as percentile
from prdt.kv import wire
from prdt.kv.core import Respond, SendToPeer, ServerCore
from prdt.kv.wire import Read, Write

from layers import Timer, TimedProtocol, protocol_metrics

NODES = ("n1", "n2", "n3")
LINKS = tuple((a, b) for a in NODES for b in NODES if a != b)
DELIVERY_US = 1_000     # virtual time per delivered frame
TICK_US = 50_000        # virtual time between ticks, as in prdt-kvd
STUCK_US = 30_000_000   # no answer for this long means the cluster is stuck
KEYS = 100
CODEC_EVERY = 8         # re-time the codec on every 8th delivered payload
WARMUP_OPS = 200
# answered ops per episode; the decided log grows to about this. Under
# contention cost per op grows with the log, so store-contend episodes
# are shorter: a run takes the median of several instead of one.
EPISODE_OPS = {"store-leader": 3000, "store-contend": 1000}
# wall seconds of one episode on 2 vCPUs; sizes a traced run from --seconds
NOMINAL_EPISODE_S = {"store-leader": 1.8, "store-contend": 4.2}
CHUNK_OPS = 100         # the loop returns every 100 answered ops, so set-up probes fall between
CHECK_OPS = 500         # the determinism self-check replays episode 0 this far

_clock = time.perf_counter


def client_nodes(workload: str):
    if workload == "store-leader":
        return ("n1",) * 12
    if workload == "store-contend":
        return NODES
    raise ValueError(workload)


class OpSource:
    """Closed-loop 50/50 put/get over KEYS keys; values are unique so a
    decided write can be traced to the put that carried it."""

    def __init__(self, seed: int, client: int):
        self.rng = random.Random(seed * 1009 + client)
        self.client = client
        self.seq = 0

    def next(self):
        self.seq += 1
        key = f"k{self.rng.randrange(KEYS)}"
        if self.rng.random() < 0.5:
            return Write(key, f"c{self.client}.{self.seq}")
        return Read(key)


class Episode:
    """One cluster from bottom to ``ops`` answered client ops."""

    def __init__(self, workload: str, seed: int, ops: int, traced: bool):
        self.rng = random.Random(seed)
        self.target = ops
        self.traced = traced
        self.cores = {
            uid: ServerCore(uid, tuple(p for p in NODES if p != uid)) for uid in NODES
        }
        self.timed = []
        if traced:
            for core in self.cores.values():
                core.protocol = TimedProtocol(core.protocol)
                self.timed.append(core.protocol)
        self.links = {link: deque() for link in LINKS}
        self.in_flight = 0
        self.now = 0
        self.next_tick = TICK_US
        self.clients = client_nodes(workload)
        self.sources = [OpSource(seed, i) for i in range(len(self.clients))]
        self.outstanding = {}  # request id -> (op, virtual start, wall start)
        self.results = []      # (op, response, virtual latency us, wall latency s)
        self.issued = 0
        # per-layer counts, always on (they are exact and cheap)
        self.frames = {kind: 0 for kind in wire.KINDS}
        self.frame_bytes = {kind: 0 for kind in wire.KINDS}
        self.restarts = 0
        self.events = 0
        # per-layer timers, traced runs only
        self.handler_t = {"client": Timer(), "tick": Timer(),
                          **{kind: Timer() for kind in wire.KINDS}}
        self.encode_t = Timer()
        self.parse_t = Timer()
        self.codec_encode_t = Timer()
        self.codec_decode_t = Timer()
        self.wall = 0.0
        self.answered = self.since = 0
        self.stuck = False

    # -- effects -----------------------------------------------------

    def _emit(self, src: str, effects) -> None:
        encoded = {}
        for effect in effects:
            if isinstance(effect, SendToPeer):
                frame = encoded.get(id(effect.envelope))
                if frame is None:
                    if self.traced:
                        t0 = _clock()
                        frame = wire.encode_frame(effect.envelope)
                        self.encode_t.add(_clock() - t0, len(frame))
                    else:
                        frame = wire.encode_frame(effect.envelope)
                    encoded[id(effect.envelope)] = frame
                self.links[(src, effect.peer)].append(frame)
                self.in_flight += 1
            elif isinstance(effect, Respond):
                op, vstart, wstart = self.outstanding.pop(effect.request_id)
                self.results.append((op, effect.response, self.now - vstart, _clock() - wstart))
                self._issue(effect.request_id[0])

    def _issue(self, client: int) -> None:
        if self.issued >= self.target:
            return
        self.issued += 1
        source = self.sources[client]
        op = source.next()
        request_id = (client, source.seq)
        self.outstanding[request_id] = (op, self.now, _clock())
        uid = self.clients[client]
        frame = wire.request_frame(op)
        self.events += 1
        if self.traced:
            t0 = _clock()
            effects = self.cores[uid].on_client_request(request_id, frame)
            self.handler_t["client"].add(_clock() - t0)
        else:
            effects = self.cores[uid].on_client_request(request_id, frame)
        self._emit(uid, effects)

    def _deliver(self, dst: str, frame: bytes) -> None:
        if self.traced:
            t0 = _clock()
            envelope = next(wire.iter_frames(io.BytesIO(frame)))
            self.parse_t.add(_clock() - t0, len(frame))
        else:
            envelope = next(wire.iter_frames(io.BytesIO(frame)))
        kind = envelope["kind"]
        self.frames[kind] += 1
        self.frame_bytes[kind] += len(frame)
        self.events += 1
        if self.traced:
            if kind != wire.SYNC_REQUEST and self.frames[kind] % CODEC_EVERY == 0:
                self._time_codec(envelope["payload"], len(frame))
            t0 = _clock()
            effects = self.cores[dst].on_envelope(envelope)
            self.handler_t[kind].add(_clock() - t0)
        else:
            effects = self.cores[dst].on_envelope(envelope)
        self._emit(dst, effects)

    def _time_codec(self, payload: dict, size: int) -> None:
        docs = [payload] if "t" in payload else [payload["state"]] + payload["log"]
        t0 = _clock()
        values = [codec.decode(doc) for doc in docs]
        self.codec_decode_t.add(_clock() - t0, size)
        t0 = _clock()
        for value in values:
            codec.encode(value)
        self.codec_encode_t.add(_clock() - t0, size)

    def _tick(self) -> None:
        self.next_tick += TICK_US
        seconds = self.now / 1e6
        for uid in NODES:
            self.events += 1
            if self.traced:
                t0 = _clock()
                effects = self.cores[uid].on_tick(seconds)
                self.handler_t["tick"].add(_clock() - t0)
            else:
                effects = self.cores[uid].on_tick(seconds)
            # on_tick emits only when the election timer restarts a ballot
            if effects:
                self.restarts += 1
            self._emit(uid, effects)

    # -- loop --------------------------------------------------------

    def start(self) -> None:
        """Connect the cores and issue every client's first op."""
        t0 = _clock()
        for uid in NODES:
            for peer in NODES:
                if peer != uid:
                    self._emit(uid, self.cores[uid].on_peer_connected(peer))
        for client in range(len(self.clients)):
            self._issue(client)
        self.wall += _clock() - t0

    def advance(self, until: int) -> None:
        """Drive until ``until`` ops are answered, timing the loop in ``wall``."""
        links = self.links
        rng = self.rng
        until = min(until, self.target)
        t0 = _clock()
        while len(self.results) < until and not self.stuck:
            if self.in_flight:
                busy = [link for link in LINKS if links[link]]
                src, dst = busy[rng.randrange(len(busy))] if len(busy) > 1 else busy[0]
                frame = links[(src, dst)].popleft()
                self.in_flight -= 1
                self.now += DELIVERY_US
                self._deliver(dst, frame)
                if self.now >= self.next_tick:
                    self._tick()
            else:
                self.now = self.next_tick
                self._tick()
            if len(self.results) != self.answered:
                self.answered, self.since = len(self.results), self.now
            elif self.now - self.since > STUCK_US:
                self.stuck = True
        self.wall += _clock() - t0

    def run(self) -> None:
        self.start()
        self.advance(self.target)

    # -- results -----------------------------------------------------

    def counts(self) -> dict:
        """Exact, seed-determined outcome of the episode."""
        return {
            "frames": dict(self.frames),
            "bytes": dict(self.frame_bytes),
            "restarts": self.restarts,
            "events": self.events,
            "logs": [len(self.cores[uid].decided_ops) for uid in NODES],
            "virtual": [r[2] for r in self.results],
            "now": self.now,
        }

    def longest_log(self):
        return max((c.decided_ops for c in self.cores.values()), key=len)

    def check(self) -> list:
        """Output checks; returns a list of problems (empty when correct)."""
        problems = []
        logs = sorted((self.cores[uid].decided_ops for uid in NODES), key=len)
        longest = logs[-1]
        for log in logs[:-1]:
            if longest[:len(log)] != log:
                problems.append("decided logs are not prefixes of one another")
                break
        # values a Read of each key may observe, walking the log once
        current, allowed, in_log = {}, {}, set()
        for op in longest:
            if isinstance(op, Write):
                current[op.key] = op.value
                in_log.add(op)
            else:
                allowed.setdefault(op.key, set()).add(current.get(op.key))
        for op, response, _, _ in self.results:
            status = response.get("status")
            if status not in ("ok", "not_found"):
                continue  # a failed op, counted separately
            if isinstance(op, Write):
                if op not in in_log:
                    problems.append(f"acknowledged put {op} is not in the log")
            else:
                value = response.get("value") if status == "ok" else None
                if value not in allowed.get(op.key, ()):
                    problems.append(f"get {op.key} returned {value!r}, which no Read in the log allows")
        if len(self.results) < self.target:
            problems.append(f"stuck: {len(self.results)} of {self.target} ops answered")
        return problems[:5]

    def failed(self) -> int:
        answered_bad = sum(1 for _, r, _, _ in self.results if r.get("status") not in ("ok", "not_found"))
        return answered_bad + (self.issued - len(self.results))

    def dup_writes(self) -> int:
        """Extra copies of writes in the longest log: one op decided twice."""
        writes = [op for op in self.longest_log() if isinstance(op, Write)]
        return len(writes) - len(set(writes))


class LayerTotals:
    """Per-layer sums over traced episodes; holds no cluster state."""

    def __init__(self):
        self.ops = self.restarts = self.log_entries = self.dup_writes = self.events = 0
        self.frames = {kind: 0 for kind in wire.KINDS}
        self.frame_bytes = {kind: 0 for kind in wire.KINDS}
        self.virtual_us = []
        self.handlers = {}
        self.timers = {name: Timer() for name in ("encode", "parse", "codec_encode", "codec_decode")}
        self.timed = []

    def add(self, e: Episode) -> None:
        self.ops += len(e.results)
        self.restarts += e.restarts
        self.log_entries += len(e.longest_log())
        self.dup_writes += e.dup_writes()
        self.events += e.events
        for kind in wire.KINDS:
            self.frames[kind] += e.frames[kind]
            self.frame_bytes[kind] += e.frame_bytes[kind]
        self.virtual_us.extend(r[2] for r in e.results)
        for name, t in e.handler_t.items():
            self.handlers.setdefault(name, Timer()).merge(t)
        for name, t in (("encode", e.encode_t), ("parse", e.parse_t),
                        ("codec_encode", e.codec_encode_t), ("codec_decode", e.codec_decode_t)):
            self.timers[name].merge(t)
        self.timed.extend(e.timed)

    def metrics(self) -> dict:
        ops, h, t = self.ops, self.handlers, self.timers
        delta_frames, sync_frames = self.frames[wire.DELTA], self.frames[wire.SYNC_RESPONSE]
        virtual = sorted(self.virtual_us)
        out = {
            "core.client_us": h["client"].us_per_call(),
            "core.delta_us": h[wire.DELTA].us_per_call(),
            "core.sync_request_us": h[wire.SYNC_REQUEST].us_per_call(),
            "core.sync_response_us": h[wire.SYNC_RESPONSE].us_per_call(),
            "core.tick_us": h["tick"].us_per_call(),
            "core.busy_us_per_op": 1e6 * sum(x.seconds for x in h.values()) / ops,
            "core.frames_per_op": sum(self.frames.values()) / ops,
            "core.sync_responses_per_op": sync_frames / ops,
            "core.ballot_restarts_per_op": self.restarts / ops,
            "core.log_entries_per_op": self.log_entries / ops,
            "core.dup_writes": self.dup_writes,
            "wire.bytes_per_op": sum(self.frame_bytes.values()) / ops,
            "wire.delta_bytes_per_frame": self.frame_bytes[wire.DELTA] / delta_frames if delta_frames else 0.0,
            "wire.sync_bytes_per_frame": self.frame_bytes[wire.SYNC_RESPONSE] / sync_frames if sync_frames else 0.0,
            "wire.encode_us_per_kb": t["encode"].us_per_kb(),
            "wire.parse_us_per_kb": t["parse"].us_per_kb(),
            "codec.encode_us_per_kb": t["codec_encode"].us_per_kb(),
            "codec.decode_us_per_kb": t["codec_decode"].us_per_kb(),
            "store.virtual_p50_ms": percentile(virtual, 0.50) / 1e3,
            "store.virtual_p99_ms": percentile(virtual, 0.99) / 1e3,
        }
        out.update(protocol_metrics(self.timed, self.events))
        return out


def sub_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def warm_up(workload: str, seed: int) -> None:
    """An untimed episode on a seed outside the measured set: it fills
    the decision caches and lets the CPU reach its running clock."""
    Episode(workload, sub_seed(seed, 999), WARMUP_OPS, False).run()


def play(workload: str, seed: int, k: int, traced: bool, between=None):
    """Episode ``k`` to the end. Returns it with its counts at the moment
    ``CHECK_OPS`` ops had been answered. ``between`` is called every
    ``CHUNK_OPS`` answered ops, outside the timed loop. Each finished
    episode is reduced to numbers and dropped by the caller, so the heap
    the collector walks does not grow."""
    gc.collect()
    e = Episode(workload, sub_seed(seed, k), EPISODE_OPS[workload], traced)
    e.start()
    checkpoint = None
    while len(e.results) < e.target and not e.stuck:
        until = len(e.results) + CHUNK_OPS
        # stop at CHECK_OPS exactly as replay_check does
        e.advance(until if checkpoint is not None else min(until, CHECK_OPS))
        if checkpoint is None and len(e.results) >= CHECK_OPS:
            checkpoint = e.counts()
        if between is not None:
            between()
    return e, checkpoint


def untraced_unit(workload: str, seed: int, k: int) -> float:
    """Episode ``k`` without timers, for the twin; returns its wall seconds."""
    return play(workload, seed, k, False)[0].wall


def replay_check(workload: str, seed: int, checkpoint) -> list:
    """The determinism self-check: episode 0 again, as far as
    ``CHECK_OPS`` answered ops, must give the same counts and virtual
    latencies. It is a check only; none of it is measured."""
    e = Episode(workload, sub_seed(seed, 0), EPISODE_OPS[workload], False)
    e.start()
    e.advance(CHECK_OPS)
    if e.counts() != checkpoint:
        return [f"determinism self-check failed: seed {sub_seed(seed, 0)} gave "
                "different counts or virtual latencies on a second run"]
    return []


def run(workload: str, seed: int, seconds: float, traced: bool, setup_probe, twin) -> dict:
    """Distinct episodes until ``seconds`` have passed, at least one.

    A traced run instead does a fixed number of episodes, sized from
    ``seconds``, so its counts are exact per seed. The twin process runs
    each episode untraced, in alternating order with the traced pass
    here, so the difference in wall time is the tracing overhead.
    """
    if traced:
        return _run_traced(workload, seed, seconds, twin)
    problems, rates, wall_latencies = [], [], []
    attempted = failed = 0
    warm_up(workload, seed)
    t0 = _clock()
    k, last_wall, first_counts = 0, 0.0, None
    while k < 1 or _clock() - t0 + last_wall <= seconds:
        e, checkpoint = play(workload, seed, k, False, setup_probe.maybe)
        problems.extend(e.check())
        attempted += e.issued
        failed += e.failed()
        rates.append(len(e.results) / e.wall)
        wall_latencies.extend(r[3] for r in e.results)
        last_wall = e.wall
        if k == 0:
            first_counts = checkpoint
        k += 1
    setup_probe.fill()
    problems.extend(replay_check(workload, seed, first_counts))
    wall_latencies.sort()
    return {
        "attempted": attempted,
        "failed": failed,
        "setup_samples": setup_probe.samples,
        "problems": problems[:5],
        "e2e": {
            "ops_per_s": statistics.median(rates),
            "p50_us": 1e6 * percentile(wall_latencies, 0.50),
        },
    }


def _run_traced(workload: str, seed: int, seconds: float, twin) -> dict:
    fixed = max(1, round(seconds / NOMINAL_EPISODE_S[workload]))
    problems = []
    totals = LayerTotals()
    attempted = failed = 0
    traced_wall = untraced_wall = 0.0
    first_counts = None
    with twin:
        warm_up(workload, seed)
        twin.wait_ready()
        for k in range(fixed):
            if k % 2:
                untraced_wall += twin.unit(k)
            e, checkpoint = play(workload, seed, k, True)
            if not k % 2:
                untraced_wall += twin.unit(k)
            problems.extend(e.check())
            attempted += e.issued
            failed += e.failed()
            traced_wall += e.wall
            totals.add(e)
            if k == 0:
                first_counts = checkpoint
    problems.extend(replay_check(workload, seed, first_counts))
    layers = totals.metrics()
    layers["trace.overhead_share"] = (traced_wall - untraced_wall) / untraced_wall
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:5],
        "layers": layers,
    }


def probe(workload: str, seed: int) -> None:
    """Set-up as a user pays it: three cores connected, one op committed."""
    episode = Episode(workload, sub_seed(seed, 0), 1, traced=False)
    episode.run()
    problems = episode.check()
    if problems:
        raise RuntimeError(f"set-up op failed: {problems}")

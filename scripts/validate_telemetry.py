#!/usr/bin/env python3
"""Validate genasm telemetry output in CI (stdlib only).

Five modes, one per exposition surface:

* ``trace FILE`` — a ``--trace`` Chrome trace-event JSON file. Must be
  a well-formed JSON array of event objects: complete spans (``"ph":
  "X"``) with non-negative ``ts``/``dur`` and a numeric ``tid``,
  thread-name metadata (``"ph": "M"``), and at least one ``read`` and
  one ``execute`` span (the per-read end-to-end span and the backend
  execute span — if either is missing, the pipeline ran untraced).
  ``map`` spans must not overlap on a lane: every map worker maps one
  read at a time on a lane of its own. Nor may ``execute`` spans: each
  batch a backend may run at once has a lane of its own
  (``backend:NAME:SLOT``).

* ``metrics FILE`` — the stderr of ``--metrics json``: the last
  non-empty line must be one ``genasm-pipeline-metrics/v1`` JSON
  object whose latency histograms are internally consistent (bucket
  counts sum to ``count``, quantiles ordered), whose read-latency
  count matches ``reads_in``, whose ``backend_utilization`` and
  ``map_utilization`` are shares in ``[0, 1]``, whose mean
  ``batches_in_flight`` is no more than its ``in_flight_lanes``, and
  whose queues kept their bounds: ``queues.batch`` (the lanes' batches
  not yet started) and ``queues.result`` (finished batches waiting for
  the sink) never above their capacity, ``queues.task`` (the bases in
  the lanes' building batches: ``batch_bases`` per lane, pushed = tasks,
  its high water counting the push that fills a batch) never above
  its capacity plus one oversized task (``max_task_bases``), and every
  batch cut and finished: ``queues.batch.pushed ==
  queues.result.pushed == batches``. Its ``sessions`` object (buffered
  session output now and at its peak, throttled submits, timed-out
  sessions) must read no output still buffered, and a peak no lower
  than that.

* ``stats-json FILE`` — the stdout of ``genasm ctl stats-json``: one
  ``genasm-stats/v1`` object embedding a server block, a session list,
  and a full pipeline metrics object (validated as above, except the
  checks that need a run at rest — a live server may be mid-stream:
  reads are not all counted yet, batches may be cut and not yet
  finished, and output may be buffered, so only
  ``queues.result.pushed <= queues.batch.pushed <= batches`` and a
  ``sessions`` object are required).

* ``explain FILE`` — a ``--explain`` JSONL stream: every line is one
  ``genasm-explain/v2`` object with the full funnel/task key set and
  a disposition from the closed taxonomy; unmapped reads carry zero
  candidates and no tasks.

* ``stat-frames FILE`` — the stdout of ``genasm ctl top``: every line
  is one ``genasm-stat-frame/v1`` object whose funnel stages are
  monotone (``reads_in >= anchored >= chained >= candidates``) and
  account for no more reads than entered, with uptime and counters
  non-decreasing across frames.

Exit codes: 0 valid, 1 invalid, 2 usage/IO error.
"""

import json
import sys

EXPECTED_SPANS = {"read", "execute"}


def fail(msg):
    print(f"validate-telemetry: FAIL: {msg}")
    sys.exit(1)


def check_histogram(h, where):
    for key in ("count", "sum", "max", "p50", "p90", "p99", "buckets"):
        if key not in h:
            fail(f"{where}: histogram missing {key!r}")
    if h["max"] < 0:
        fail(f"{where}: negative max {h['max']}")
    if h["count"] == 0 and h["max"] != 0:
        fail(f"{where}: empty histogram reports max {h['max']}")
    bucket_total = sum(c for _, c in h["buckets"])
    if bucket_total != h["count"]:
        fail(
            f"{where}: bucket counts sum to {bucket_total}, "
            f"count says {h['count']}"
        )
    if not h["p50"] <= h["p90"] <= h["p99"]:
        fail(
            f"{where}: quantiles not ordered: "
            f"p50={h['p50']} p90={h['p90']} p99={h['p99']}"
        )


def check_funnel(f, where, at_rest):
    for key in ("reads_in", "anchored", "chained", "candidates", "aligned",
                "failed", "unmapped"):
        if key not in f:
            fail(f"{where}: funnel missing {key!r}")
    for key in ("no_anchors", "no_chain", "no_candidates"):
        if key not in f["unmapped"]:
            fail(f"{where}: funnel.unmapped missing {key!r}")
    if not f["reads_in"] >= f["anchored"] >= f["chained"] >= f["candidates"]:
        fail(f"{where}: funnel stages not monotone: {f}")
    accounted = f["aligned"] + f["failed"] + sum(f["unmapped"].values())
    if at_rest and accounted != f["reads_in"]:
        fail(
            f"{where}: funnel does not partition reads_in: "
            f"{accounted} accounted of {f['reads_in']}"
        )
    if accounted > f["reads_in"]:
        fail(f"{where}: funnel accounts for more reads than entered: {f}")


def check_queues(m, at_rest):
    queues = m.get("queues")
    if not isinstance(queues, dict):
        fail("metrics object missing 'queues'")
    for name in ("task", "batch", "result"):
        for key in ("capacity", "pushed", "high_water"):
            if key not in queues.get(name, {}):
                fail(f"queues.{name} missing {key!r}")
    for name in ("batch", "result"):
        q = queues[name]
        if q["high_water"] > q["capacity"]:
            fail(f"queues.{name} high_water {q['high_water']} > capacity {q['capacity']}")
    task = queues["task"]
    if task["high_water"] > task["capacity"] + m["max_task_bases"]:
        fail(
            f"queues.task high_water {task['high_water']} > capacity "
            f"{task['capacity']} + max_task_bases {m['max_task_bases']}"
        )
    cut, finished = queues["batch"]["pushed"], queues["result"]["pushed"]
    if at_rest and not cut == finished == m["batches"]:
        fail(
            f"at rest, batches cut {cut}, finished {finished} and "
            f"dispatched {m['batches']} differ"
        )
    if not finished <= cut <= m["batches"]:
        fail(
            f"batches finished {finished} > cut {cut} or cut > "
            f"dispatched {m['batches']}"
        )


def check_sessions(m, at_rest):
    s = m.get("sessions")
    if not isinstance(s, dict):
        fail("metrics object missing 'sessions'")
    for key in ("output_buffered_bytes", "max_output_buffered_bytes",
                "throttled", "timed_out"):
        if not isinstance(s.get(key), int) or s[key] < 0:
            fail(f"sessions.{key} is not a count: {s.get(key)!r}")
    if at_rest and s["output_buffered_bytes"] != 0:
        fail(f"at rest, {s['output_buffered_bytes']} session output bytes still buffered")
    if at_rest and s["max_output_buffered_bytes"] < s["output_buffered_bytes"]:
        fail(f"sessions peak {s['max_output_buffered_bytes']} below current "
             f"{s['output_buffered_bytes']}")


def check_pipeline_metrics(m, require_read_count=True):
    if m.get("schema") != "genasm-pipeline-metrics/v1":
        fail(f"unexpected metrics schema {m.get('schema')!r}")
    for key in ("reads_in", "records_out", "latency", "backends", "funnel",
                "slow_reads", "busy_ns", "backend_utilization",
                "batches_in_flight", "in_flight_lanes", "map_utilization"):
        if key not in m:
            fail(f"metrics object missing {key!r}")
    for key in ("backend_utilization", "map_utilization"):
        if not 0 <= m[key] <= 1:
            fail(f"{key} {m[key]} outside [0, 1]")
    # A live snapshot's wall can lag its busy counters by a hair.
    if not 0 <= m["batches_in_flight"] <= m["in_flight_lanes"] + 0.01:
        fail(
            f"batches_in_flight {m['batches_in_flight']} outside "
            f"[0, in_flight_lanes {m['in_flight_lanes']}]"
        )
    check_funnel(m["funnel"], "pipeline", at_rest=require_read_count)
    check_queues(m, at_rest=require_read_count)
    check_sessions(m, at_rest=require_read_count)
    lat = m["latency"]
    for key in ("read", "task_queue_wait", "batch_build", "reorder_wait"):
        if key not in lat:
            fail(f"latency object missing {key!r}")
        check_histogram(lat[key], f"latency.{key}")
    if require_read_count and lat["read"]["count"] != m["reads_in"]:
        fail(
            f"read-latency count {lat['read']['count']} != "
            f"reads_in {m['reads_in']}"
        )
    for name, b in m["backends"].items():
        for key in ("batches", "tasks", "queue_wait", "execute"):
            if key not in b:
                fail(f"backend {name!r} missing {key!r}")
        check_histogram(b["execute"], f"backends.{name}.execute")


def mode_trace(path):
    with open(path, "r", encoding="utf-8") as fh:
        events = json.load(fh)
    if not isinstance(events, list) or not events:
        fail("trace is not a non-empty JSON array")
    span_names, meta = set(), 0
    # Per span kind that must not overlap on a lane: tid -> spans.
    lanes = {"map": {}, "execute": {}}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict) or "ph" not in ev:
            fail(f"event {i} is not an object with 'ph'")
        ph = ev["ph"]
        if ph == "M":
            meta += 1
        elif ph == "X":
            if ev.get("ts", -1) < 0 or ev.get("dur", -1) < 0:
                fail(f"span {i} ({ev.get('name')!r}) has bad ts/dur")
            if not isinstance(ev.get("tid"), int):
                fail(f"span {i} ({ev.get('name')!r}) has no numeric tid")
            span_names.add(ev.get("name"))
            if ev.get("name") in lanes:
                lanes[ev["name"]].setdefault(ev["tid"], []).append((ev["ts"], ev["dur"]))
        elif ph != "i":
            fail(f"event {i} has unknown phase {ph!r}")
    if meta == 0:
        fail("no thread-name metadata events")
    missing = EXPECTED_SPANS - span_names
    if missing:
        fail(f"missing expected span kinds: {sorted(missing)}")
    for name, by_lane in lanes.items():
        for tid, spans in by_lane.items():
            spans.sort()
            for (ts, dur), (nxt, _) in zip(spans, spans[1:]):
                # ts/dur are printed to the nanosecond; allow the rounding.
                if nxt < ts + dur - 0.002:
                    fail(f"{name} spans overlap on lane {tid}: {ts}+{dur} > {nxt}")
    print(
        f"validate-telemetry: trace OK: {len(events)} events, "
        f"span kinds {sorted(span_names)}, {len(lanes['map'])} map lane(s), "
        f"{len(lanes['execute'])} execute lane(s)"
    )


def last_json_line(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        fail("file has no non-empty lines")
    return json.loads(lines[-1])


def mode_metrics(path):
    m = last_json_line(path)
    check_pipeline_metrics(m, require_read_count=True)
    print(
        f"validate-telemetry: metrics OK: {m['reads_in']} reads, "
        f"{m['records_out']} records, read p99 "
        f"{m['latency']['read']['p99']} ns"
    )


def mode_stats_json(path):
    s = last_json_line(path)
    if s.get("schema") != "genasm-stats/v1":
        fail(f"unexpected stats schema {s.get('schema')!r}")
    for key in ("server", "sessions", "pipeline"):
        if key not in s:
            fail(f"stats object missing {key!r}")
    for key in ("sessions", "backend_errors", "uptime_ms", "ref"):
        if key not in s["server"]:
            fail(f"server block missing {key!r}")
    if not isinstance(s["sessions"], list):
        fail("'sessions' is not a list")
    check_pipeline_metrics(s["pipeline"], require_read_count=False)
    print(
        f"validate-telemetry: stats-json OK: "
        f"{s['server']['sessions']} active session(s), "
        f"{s['pipeline']['records_out']} records"
    )


DISPOSITIONS = {"aligned", "failed:no_alignment",
                "unmapped:no_anchors", "unmapped:no_chain",
                "unmapped:no_candidates"}


def json_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        fail("file has no non-empty lines")
    return [json.loads(ln) for ln in lines]


def mode_explain(path):
    recs = json_lines(path)
    for i, r in enumerate(recs):
        where = f"explain line {i}"
        if r.get("schema") != "genasm-explain/v2":
            fail(f"{where}: unexpected schema {r.get('schema')!r}")
        for key in ("read", "disposition", "anchors", "chains", "candidates",
                    "map_ns", "align_ns", "tasks"):
            if key not in r:
                fail(f"{where}: missing {key!r}")
        disp = r["disposition"]
        if disp not in DISPOSITIONS:
            fail(f"{where}: disposition {disp!r} outside the closed taxonomy")
        if disp.startswith("unmapped:") and (r["candidates"] or r["tasks"]):
            fail(f"{where}: unmapped read carries candidates/tasks")
        for t in r["tasks"]:
            if "edits" not in t:
                fail(f"{where}: task missing 'edits'")
    by_disp = {}
    for r in recs:
        by_disp[r["disposition"]] = by_disp.get(r["disposition"], 0) + 1
    print(f"validate-telemetry: explain OK: {len(recs)} reads, {by_disp}")


def mode_stat_frames(path):
    frames = json_lines(path)
    prev_uptime, prev_reads = -1, -1
    for i, f in enumerate(frames):
        where = f"stat frame {i}"
        if f.get("schema") != "genasm-stat-frame/v1":
            fail(f"{where}: unexpected schema {f.get('schema')!r}")
        for key in ("uptime_ms", "interval_ms", "sessions", "records_out",
                    "funnel", "rates", "backends", "buffered_out_bytes",
                    "slowest"):
            if key not in f:
                fail(f"{where}: missing {key!r}")
        for key in ("reads_per_sec", "records_per_sec"):
            if key not in f["rates"]:
                fail(f"{where}: rates missing {key!r}")
        # A live frame may catch reads mid-flight, so the funnel need
        # not partition reads_in exactly — but it must stay monotone
        # and never over-account.
        check_funnel(f["funnel"], where, at_rest=False)
        if f["uptime_ms"] < prev_uptime:
            fail(f"{where}: uptime went backwards")
        if f["funnel"]["reads_in"] < prev_reads:
            fail(f"{where}: reads_in went backwards")
        prev_uptime, prev_reads = f["uptime_ms"], f["funnel"]["reads_in"]
    last = frames[-1]
    print(
        f"validate-telemetry: stat-frames OK: {len(frames)} frames, "
        f"{last['funnel']['reads_in']} reads in, "
        f"{last['records_out']} records out"
    )


MODES = {
    "trace": mode_trace,
    "metrics": mode_metrics,
    "stats-json": mode_stats_json,
    "explain": mode_explain,
    "stat-frames": mode_stat_frames,
}


def main():
    if len(sys.argv) != 3 or sys.argv[1] not in MODES:
        print(__doc__)
        return 2
    mode, path = sys.argv[1], sys.argv[2]
    try:
        MODES[mode](path)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

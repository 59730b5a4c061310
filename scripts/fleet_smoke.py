#!/usr/bin/env python3
"""Fleet end-to-end smoke test: eftrain -> .efr v2 container -> efserve (CI).

Usage: fleet_smoke.py EFTRAIN_BINARY EFSERVE_BINARY [WORKDIR]

Drives the whole fleet pipeline on a ~50-series synthetic corpus:

  1. eftrain --synthetic 50: train one rule system per series in parallel,
     pack the fleet into a v2 container and run the rolling-origin corpus
     evaluation, whose `corpus:` line must account for every series with
     finite pooled errors and a coverage in [0, 100].
  2. eftrain --list / --extract: index listing is complete and sorted;
     one series extracts back to v1 text (the bit-identity bridge).
  3. efserve --container: the models verb reports the container section
     (generation, series_total, capped id list), a container-backed series
     answers predictions with values BIT-IDENTICAL to the same model served
     from its extracted v1 file, lazy materialisation shows up in the
     "materialized" counter, and the service cache works for series ids.
  4. Hot repack: publish a retrained container over the served path
     (temp + rename, the format's atomic-publish contract); the poller must
     swap the whole fleet in one generation bump with zero failed requests.
  5. Graceful SIGTERM shutdown.

Exits non-zero on the first failed check.
"""
import json
import math
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time

FLEET_SERIES = 50
REPACK_SERIES = 10
# Matches the i % 3 == 0 synthetic rotation in eftrain (sine, amplitude
# 0.6 + 0.05*(i%9), period 8 + i%37, phase 0.1*(i%63)) for i == 0.
SINE_ID = "synthetic-000000"
WINDOW = 6

# eftrain --evaluate's summary line; float() also takes its "nan"/"inf".
CORPUS_LINE = re.compile(
    r"corpus: (?P<evaluated>\d+) evaluated, (?P<skipped>\d+) skipped \| "
    r"pooled rmse (?P<rmse>\S+) mae (?P<mae>\S+) \| "
    r"% of prediction (?P<pop>\S+) \((?P<covered>\d+)/(?P<total>\d+) points\)")

FAILURES = []


def check(name, ok, detail=""):
    status = "ok" if ok else "FAIL"
    print(f"  [{status}] {name}{': ' + str(detail) if detail and not ok else ''}")
    if not ok:
        FAILURES.append(name)


def run(argv, **kwargs):
    print(f"  $ {' '.join(argv)}")
    return subprocess.run(argv, capture_output=True, text=True, timeout=600,
                          **kwargs)


def sine_window(phase):
    """A window on series synthetic-000000's attractor (noise_sd 0.02)."""
    return [0.6 * math.sin(2.0 * math.pi * (phase + t) / 8.0)
            for t in range(WINDOW)]


class Client:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.reader = self.sock.makefile("r")

    def request(self, obj):
        line = obj if isinstance(obj, str) else json.dumps(obj)
        self.sock.sendall((line + "\n").encode())
        response = self.reader.readline().strip()
        try:
            return json.loads(response)
        except json.JSONDecodeError:
            return {"_raw": response}

    def close(self):
        self.sock.close()


def launch_server(efserve, args):
    """Start efserve on an ephemeral port; returns (proc, port) or (None, None)."""
    proc = subprocess.Popen([efserve, *args, "--port", "0", "--poll-ms", "100"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    deadline = time.time() + 30
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        print(f"  server: {line.rstrip()}")
        if "listening on" in line:
            return proc, int(line.rsplit(":", 1)[1].split()[0])
    proc.kill()
    proc.wait()
    print("  server stderr:", proc.stderr.read())
    return None, None


def main():
    if len(sys.argv) not in (3, 4):
        print(__doc__)
        return 2
    eftrain, efserve = sys.argv[1], sys.argv[2]
    workdir = sys.argv[3] if len(sys.argv) == 4 else tempfile.mkdtemp(
        prefix="fleet_smoke.")
    os.makedirs(workdir, exist_ok=True)
    container = os.path.join(workdir, "fleet.efr2")
    extracted = os.path.join(workdir, "extracted.efr")

    # -- 1. train + pack + evaluate ------------------------------------------
    print("fleet_smoke: training %d-series synthetic fleet" % FLEET_SERIES)
    metrics_json = os.path.join(workdir, "train_metrics.json")
    events_log = os.path.join(workdir, "train_events.jsonl")
    if os.path.exists(events_log):
        os.remove(events_log)  # the event sink appends
    train = run([eftrain, "--synthetic", str(FLEET_SERIES), "--length", "240",
                 "--population", "24", "--generations", "150",
                 "--out", container, "--evaluate",
                 "--metrics-json", metrics_json],
                env={**os.environ, "EVOFORECAST_EVENT_LOG": events_log})
    check("eftrain exits 0", train.returncode == 0, train.stderr[-2000:])
    check("container written", os.path.isfile(container))
    if FAILURES:
        return 1

    # The first engine construction resolves a match backend and bumps the
    # one-time match.backend.<name>.selected counter — training a whole
    # fleet must have selected exactly one backend per process.
    with open(metrics_json) as f:
        metrics = json.load(f)
    selected = [name for name in metrics.get("counters", {})
                if name.startswith("match.backend.") and name.endswith(".selected")]
    check("training selected a match backend", len(selected) >= 1,
          sorted(metrics.get("counters", {})))
    # The same resolution emits the match.backend_selected event, naming the
    # backend whose counter moved and whether the CPU reports AVX2.
    selections = []
    if os.path.isfile(events_log):
        with open(events_log) as f:
            events = [json.loads(line) for line in f if line.strip()]
        selections = [e for e in events if e.get("kind") == "match.backend_selected"]
    check("events carry match.backend_selected", len(selections) >= 1,
          events_log)
    check("match.backend_selected names the selected backend",
          all(f"match.backend.{e.get('backend')}.selected" in selected
              and isinstance(e.get("avx2_supported"), bool)
              for e in selections),
          selections)

    corpus = CORPUS_LINE.search(train.stdout)
    check("corpus line printed", corpus is not None, train.stdout[-2000:])
    if corpus:
        evaluated, skipped = int(corpus["evaluated"]), int(corpus["skipped"])
        check(f"corpus evaluated + skipped == {FLEET_SERIES}",
              evaluated + skipped == FLEET_SERIES, corpus.group(0))
        for key in ("rmse", "mae"):
            check(f"pooled {key} finite", math.isfinite(float(corpus[key])),
                  corpus.group(0))
        check("percentage of prediction in [0, 100]",
              0.0 <= float(corpus["pop"]) <= 100.0, corpus.group(0))
        check("covered points <= total points",
              int(corpus["covered"]) <= int(corpus["total"]), corpus.group(0))

    # -- 2. list + extract ----------------------------------------------------
    listing = run([eftrain, "--list", container])
    ids = [line.split()[0] for line in listing.stdout.splitlines()
           if line.strip().startswith("synthetic-")]
    check("list exits 0", listing.returncode == 0, listing.stderr)
    check(f"list shows {FLEET_SERIES} series", len(ids) == FLEET_SERIES,
          f"got {len(ids)}")
    check("list order is sorted", ids == sorted(ids))
    check("first id present", SINE_ID in ids)

    extract = run([eftrain, "--extract", SINE_ID, "--container", container,
                   "--out", extracted])
    check("extract exits 0", extract.returncode == 0, extract.stderr)
    with open(extracted) as f:
        first_line = f.readline()
    check("extract emits v1 text", first_line.startswith("evoforecast-rules v1"),
          first_line)

    # -- 3. serve from the container -----------------------------------------
    # `twin` is the same model served from its extracted v1 file: predictions
    # through both paths must agree bit-for-bit.
    proc, port = launch_server(efserve, [f"twin={extracted}",
                                         "--container", container])
    check("server reports its port", proc is not None)
    if proc is None:
        return 1

    try:
        client = Client(port)
        models = client.request({"cmd": "models"})
        info = models.get("container", {})
        check("models verb ok", models.get("ok") is True, models)
        check("named model listed alongside container",
              any(m.get("name") == "twin" for m in models.get("models", [])),
              models)
        check("container section present", bool(info), models)
        check("container generation 1", info.get("generation") == 1, info)
        check(f"container series_total {FLEET_SERIES}",
              info.get("series_total") == FLEET_SERIES, info)
        check("container id list complete (under cap)",
              info.get("series") == ids, info.get("series", [])[:3])
        check("nothing materialized before first request",
              info.get("materialized") == 0, info)

        covered = None
        for phase in [p / 2.0 for p in range(16)]:
            window = sine_window(phase)
            r = client.request({"model": SINE_ID, "window": window})
            check_ok = r.get("ok") is True
            if not check_ok:
                check("container predict request ok", False, r)
                break
            if not r.get("abstain"):
                covered = (window, r)
                break
        check("container series yields a prediction", covered is not None)
        if covered is None:
            raise SystemExit(1)
        window, via_container = covered

        via_v1 = client.request({"model": "twin", "window": window})
        check("extracted twin predicts", via_v1.get("ok") is True
              and not via_v1.get("abstain"), via_v1)
        check("container == extracted v1 value (bit-identity)",
              via_container.get("value") == via_v1.get("value"),
              (via_container.get("value"), via_v1.get("value")))
        check("container == extracted v1 votes",
              via_container.get("votes") == via_v1.get("votes"),
              (via_container.get("votes"), via_v1.get("votes")))

        warm = client.request({"model": SINE_ID, "window": window})
        check("container series warm hit cached", warm.get("cached") is True,
              warm)
        check("warm value identical", warm.get("value") ==
              via_container.get("value"), warm)

        info = client.request({"cmd": "models"}).get("container", {})
        check("materialized counter advanced", info.get("materialized", 0) >= 1,
              info)

        r = client.request({"model": "synthetic-999999",
                            "window": [0.0] * WINDOW})
        check("unknown series rejected", r.get("ok") is False and r.get("error"),
              r)

        # -- 4. hot repack ----------------------------------------------------
        print("fleet_smoke: repacking a %d-series fleet over the served path"
              % REPACK_SERIES)
        repack = os.path.join(workdir, "fleet2.efr2")
        retrain = run([eftrain, "--synthetic", str(REPACK_SERIES), "--length",
                       "240", "--population", "24", "--generations", "150",
                       "--seed", "7", "--out", repack])
        check("repack training exits 0", retrain.returncode == 0,
              retrain.stderr[-2000:])
        os.replace(repack, container)  # atomic publish, fresh mtime

        swapped = None
        for _ in range(100):
            time.sleep(0.1)
            r = client.request({"model": SINE_ID, "window": window,
                                "cache": False})
            if not r.get("ok"):
                check("request during repack", False, r)
                break
            info = client.request({"cmd": "models"}).get("container", {})
            if info.get("generation", 1) >= 2:
                swapped = info
                break
        check("repack swapped in (generation bumped)", swapped is not None)
        if swapped:
            check(f"repacked series_total {REPACK_SERIES}",
                  swapped.get("series_total") == REPACK_SERIES, swapped)
            # The probe request that noticed the swap may itself have
            # materialized one series against the new generation; anything
            # beyond that means the old cache leaked across.
            check("repack starts with a cold materialize cache",
                  swapped.get("materialized", 99) <= 1, swapped)
            r = client.request({"model": f"synthetic-{FLEET_SERIES - 1:06d}",
                                "window": [0.0] * WINDOW})
            check("series dropped by repack now rejected",
                  r.get("ok") is False, r)
            r = client.request({"model": SINE_ID, "window": window,
                                "cache": False})
            check("surviving series still predicts after repack",
                  r.get("ok") is True, r)

        client.close()

        # -- 5. graceful shutdown --------------------------------------------
        proc.send_signal(signal.SIGTERM)
        try:
            rc = proc.wait(timeout=15)
            check("graceful SIGTERM shutdown", rc == 0, f"exit {rc}")
        except subprocess.TimeoutExpired:
            check("graceful SIGTERM shutdown", False, "timeout")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    if FAILURES:
        print(f"fleet_smoke: {len(FAILURES)} check(s) failed")
        return 1
    print("fleet_smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

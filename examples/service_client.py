#!/usr/bin/env python3
"""Advisor service client: submit a grid over HTTP, poll it, print the tables.

Boots an in-process ``repro.service`` instance on an ephemeral port (no
separate terminal needed), submits a comparison job, long-polls it to
completion (``GET /v1/jobs/<id>?wait=30`` answers as soon as the job is
terminal), and submits it *again* to show both reuse layers at work: the
resubmission dedups onto the finished job (one computation for two requests)
and — after a simulated restart — a fresh service over the same cache
directory serves the spec as a pure result-cache hit.

Point ``--url`` at an already-running server (``python -m repro.service``)
to use it as a plain client instead. Uses nothing beyond ``urllib``.

Usage::

    python examples/service_client.py [grid] [cache_dir]
    python examples/service_client.py --url http://localhost:8137 [grid]
"""

from __future__ import annotations

import json
import sys
import time
import urllib.request


def post(base: str, path: str, body: dict) -> dict:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def get(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path) as response:
        return json.loads(response.read())


def poll(base: str, job_id: str, timeout: float = 600.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        # Each long-poll answers when the job is terminal or after at most
        # 30 s (the server's cap), whichever comes first.
        job = get(base, f"/v1/jobs/{job_id}?wait=30")
        if job["state"] in ("done", "failed", "cancelled"):
            return job
    raise TimeoutError(f"job {job_id} still {job['state']} after {timeout:g}s")


def submit_and_wait(base: str, spec: dict) -> dict:
    accepted = post(base, "/v1/compare", spec)
    job = accepted["job"]
    print(
        f"submitted {job['id']} (deduped: {accepted['deduped']}), "
        f"polling {accepted['poll']} ..."
    )
    finished = poll(base, job["id"])
    if finished["state"] != "done":
        raise RuntimeError(f"job {finished['state']}: {finished['error']}")
    return finished


def main() -> None:
    argv = sys.argv[1:]
    url = None
    if argv and argv[0] == "--url":
        url = argv[1].rstrip("/")
        argv = argv[2:]
    spec = {"grid": argv[0] if argv else "tiny"}
    cache_dir = argv[1] if len(argv) > 1 else ".grid-cache"

    if url is None:
        from repro.service import create_service

        service = create_service(port=0, cache_dir=cache_dir, workers=2)
        service.serve_in_thread()
        url = service.url
        print(f"service up at {url} (cache: {cache_dir})")
    else:
        service = None

    try:
        finished = submit_and_wait(url, spec)
        result = finished["result"]
        print()
        print(result["tables"])
        print()
        print(
            f"job {finished['id']}: {result['accounting']} "
            f"in {finished['wall_seconds']:.2f}s"
        )

        # Same spec again: no second computation, just the same job document.
        again = post(url, "/v1/compare", spec)
        print(
            f"resubmission: deduped={again['deduped']}, "
            f"state={again['job']['state']} (result served immediately)"
        )
    finally:
        if service is not None:
            service.stop()

    if service is not None:
        # "Restart": a fresh service over the same cache directory. Without
        # the job journal (which would restore the finished job itself) the
        # registry is empty, but every cell comes off the persistent cache.
        from repro.service import create_service

        revived = create_service(
            port=0, cache_dir=cache_dir, workers=2, journal=False
        )
        revived.serve_in_thread()
        try:
            finished = submit_and_wait(revived.url, spec)
            cache = finished["result"]["cache"]
            print(
                f"after restart: {cache['hits']} cache hits, "
                f"{cache['computed']} computed — pure cache replay"
            )
        finally:
            revived.stop()


if __name__ == "__main__":
    main()

"""Real-socket smoke tests: the stdlib HTTP transport end to end.

Everything route-level lives in ``test_api.py`` against the fakes; this file
only proves the socket adapter works -- bind, submit over HTTP, stream the
NDJSON events, fetch the CSV, shut down cleanly -- and that it frames
request bodies safely (bad or oversized ``Content-Length``).
"""

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import ConfigurationError
from repro.service import (
    InMemoryJobStore,
    ServiceApi,
    ServiceRegistry,
    StudyService,
    make_server,
)
from repro.service.http import MAX_BODY_BYTES
from repro.studies import Study, get_study, list_studies
from repro.sweep import SweepRunner

SPEC = {
    "name": "smoke-scan",
    "kind": "inference",
    "axes": {"batch_size": [1, 4]},
    "fixed": {"system": "A100x2", "model": "LLAMA2-7B"},
}


@pytest.fixture
def live_server():
    runner = SweepRunner()
    registry = ServiceRegistry(runner=runner, jobs=InMemoryJobStore(), workers=1)
    service = StudyService(registry)
    server = make_server(ServiceApi(service), host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", runner
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, response.read()


def _post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def test_submit_stream_fetch_over_real_sockets(live_server):
    base, runner = live_server
    status, body = _get(f"{base}/healthz")
    assert status == 200 and json.loads(body) == {"status": "ok"}

    status, submitted = _post(f"{base}/studies", SPEC)
    assert status == 202
    job_id = submitted["job"]["id"]

    # The close-delimited NDJSON stream carries every row, then the end line.
    status, raw = _get(f"{base}/jobs/{job_id}/events")
    assert status == 200
    events = [json.loads(line) for line in raw.decode().splitlines()]
    assert sum(event["event"] == "row" for event in events) == 2
    assert events[-1] == {"event": "end", "state": "done", "completed_rows": 2, "error": None}

    status, csv_body = _get(f"{base}/jobs/{job_id}/table.csv")
    assert status == 200
    direct = Study.from_dict(SPEC).run(runner=SweepRunner()).to_csv()
    assert csv_body.decode() == direct

    # Warm resubmission over the same server prices nothing.
    evaluations_before = runner.stats.evaluations
    _, resubmitted = _post(f"{base}/studies", SPEC)
    resubmit_id = resubmitted["job"]["id"]
    _get(f"{base}/jobs/{resubmit_id}/events")  # blocks until terminal
    status, body = _get(f"{base}/jobs/{resubmit_id}")
    job = json.loads(body)["job"]
    assert job["state"] == "done"
    assert job["cached_rows"] == job["total_scenarios"] == 2
    assert runner.stats.evaluations == evaluations_before

    # A structured 422 travels over the wire too.
    bad = dict(SPEC, extract="no_such_extractor")
    with pytest.raises(urllib.error.HTTPError) as failure:
        _post(f"{base}/studies", bad)
    assert failure.value.code == 422
    assert "no_such_extractor" in json.loads(failure.value.read())["error"]["message"]


def _post_declaring(base, content_length):
    """POST /studies declaring ``content_length`` but sending no body."""
    host, port = base.removeprefix("http://").split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        connection.putrequest("POST", "/studies")
        connection.putheader("Content-Length", content_length)
        connection.endheaders()
        response = connection.getresponse()
        return response.status, response.getheader("Connection"), json.loads(response.read())
    finally:
        connection.close()


@pytest.mark.parametrize("content_length", ["abc", "-5", "1.5", "0x10"])
def test_malformed_content_length_is_a_400(live_server, content_length):
    base, _ = live_server
    status, connection, body = _post_declaring(base, content_length)
    assert status == 400
    assert connection == "close"
    assert body["error"]["type"] == "BadRequest"
    # The handler thread survived and the server still answers.
    assert _get(f"{base}/healthz")[0] == 200


def test_oversized_body_is_refused_unread_with_413(live_server):
    base, _ = live_server
    # Nothing past the headers is ever sent: a server that tried to read the
    # declared body would block until the client times out.
    status, connection, body = _post_declaring(base, str(MAX_BODY_BYTES + 1))
    assert status == 413
    assert connection == "close"
    assert body["error"]["type"] == "PayloadTooLarge"
    assert _get(f"{base}/healthz")[0] == 200


def test_body_limit_admits_every_registered_study_spec():
    # The limit is a transport guard, never a cap on legitimate specs.
    largest = 0
    for entry in list_studies():
        try:
            spec = get_study(entry.name).to_json(indent=1)
        except ConfigurationError:
            continue  # studies over ad-hoc systems have no JSON spec to post
        largest = max(largest, len(spec.encode()))
    assert 0 < largest < MAX_BODY_BYTES

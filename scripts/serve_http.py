"""HTTP helpers shared by the ppg-serve gates (check_serve.py and
check_crash_recovery.py): one request helper that checks the status code,
and the Failure every gate check raises on a violation.
"""

import http.client
import json


class Failure(Exception):
    pass


def fail(msg):
    raise Failure(msg)


def request(port, method, target, body=None, expect=200, raw=False):
    """Sends one request to the daemon on 127.0.0.1:port and fails unless it
    answers `expect`. Returns the body as text when `raw`, else parsed JSON
    (None for an empty body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, target, body=payload)
        response = conn.getresponse()
        text = response.read().decode()
        if response.status != expect:
            fail(
                f"{method} {target}: expected {expect}, "
                f"got {response.status}: {text[:200]}"
            )
        if raw:
            return text
        return json.loads(text) if text else None
    finally:
        conn.close()

#!/usr/bin/env python3
"""Smoke test for the deployment daemons.

Starts reed_keymanagerd and reed_serverd on ephemeral ports (--port 0) in a
temporary directory, reads the port each one prints, and checks that both
answer framed requests through their front end:

  * `reedctl stats --servers <port>` against reed_serverd exits 0;
  * reed_keymanagerd answers a malformed request with its error frame
    (status byte 2 plus a message: KeyManager::HandleRequest's reply to a
    request it cannot parse; status 1 is reserved for rate limiting).

Both daemons are killed and reaped on every exit path.

    daemon_smoke.py --keymanagerd PATH --serverd PATH --reedctl PATH
"""

import argparse
import os
import re
import selectors
import socket
import struct
import subprocess
import sys
import tempfile
import time

STARTUP_TIMEOUT_S = 60
IO_TIMEOUT_S = 30
LISTEN_RE = re.compile(rb"listening on 127\.0\.0\.1:(\d+)")


def wait_for_port(proc, name):
    """Reads the daemon's stdout until it prints its listening port."""
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    seen = b""
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    try:
        while time.monotonic() < deadline:
            if not sel.select(timeout=deadline - time.monotonic()):
                break
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                break  # daemon exited
            seen += chunk
            match = LISTEN_RE.search(seen)
            if match:
                return int(match.group(1))
    finally:
        sel.close()
    raise RuntimeError(f"{name} printed no listening port "
                       f"(exit={proc.poll()}, stdout={seen!r})")


def recv_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise RuntimeError(f"peer closed after {len(buf)}/{n} bytes")
        buf += chunk
    return buf


def call(port, payload):
    """One u32-length-prefixed frame out, one frame back."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=IO_TIMEOUT_S) as sock:
        sock.sendall(struct.pack(">I", len(payload)) + payload)
        (length,) = struct.unpack(">I", recv_exact(sock, 4))
        return recv_exact(sock, length)


def check_keymanager_error_frame(port):
    # A client id whose length prefix promises more bytes than follow.
    reply = call(port, struct.pack(">I", 100) + b"short")
    if len(reply) < 5 or reply[0] != 2:
        raise RuntimeError(f"keymanagerd: want a status-2 error frame, "
                           f"got {reply!r}")
    (msg_len,) = struct.unpack(">I", reply[1:5])
    if msg_len == 0 or len(reply) != 5 + msg_len:
        raise RuntimeError(f"keymanagerd: malformed error frame {reply!r}")
    print(f"keymanagerd error frame: {reply[5:].decode(errors='replace')}")


def run(args, tmp):
    procs = []
    try:
        km = subprocess.Popen(
            [args.keymanagerd, "--port", "0", "--rsa-bits", "512",
             "--state", os.path.join(tmp, "km.key"),
             "--pubkey-out", os.path.join(tmp, "km.pub")],
            cwd=tmp, stdout=subprocess.PIPE)
        procs.append(km)
        srv = subprocess.Popen(
            [args.serverd, "--port", "0", "--name", "smoke"],
            cwd=tmp, stdout=subprocess.PIPE)
        procs.append(srv)

        km_port = wait_for_port(km, "reed_keymanagerd")
        srv_port = wait_for_port(srv, "reed_serverd")
        print(f"reed_keymanagerd on {km_port}, reed_serverd on {srv_port}")

        stats = subprocess.run(
            [args.reedctl, "stats", "--servers", str(srv_port)],
            cwd=tmp, capture_output=True, timeout=IO_TIMEOUT_S)
        if stats.returncode != 0:
            raise RuntimeError(f"reedctl stats exited {stats.returncode}: "
                               f"{stats.stderr!r}")
        print("reedctl stats: exit 0")

        check_keymanager_error_frame(km_port)
        for proc, name in ((km, "reed_keymanagerd"), (srv, "reed_serverd")):
            if proc.poll() is not None:
                raise RuntimeError(f"{name} exited early ({proc.returncode})")
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.wait()
            proc.stdout.close()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keymanagerd", required=True)
    parser.add_argument("--serverd", required=True)
    parser.add_argument("--reedctl", required=True)
    args = parser.parse_args()
    # The daemons run inside the temp dir, so relative paths must not be.
    for name in ("keymanagerd", "serverd", "reedctl"):
        setattr(args, name, os.path.abspath(getattr(args, name)))
    with tempfile.TemporaryDirectory(prefix="reed-daemon-smoke-") as tmp:
        try:
            run(args, tmp)
        except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
            print(f"daemon_smoke: FAIL: {e}", file=sys.stderr)
            return 1
    print("daemon_smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

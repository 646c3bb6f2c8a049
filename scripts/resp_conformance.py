#!/usr/bin/env python3
"""Raw-socket RESP conformance checks against a running prism_server.

Usage: resp_conformance.py PORT [HOST]

Plain-stdlib (socket only) on purpose: this is the second, independent
implementation of the wire protocol — it talks to the server the way a
foreign Redis client would, so a framing bug that prism_loadgen and the
C++ tests share (they all link src/net/resp.cc) cannot hide here.
Checks cover the served command subset, reply framing, pipelining
order, fragmented writes, binary-safe payloads, tenant namespaces, a
half-closed client, and oversized-frame rejection. Exits non-zero on
the first failure.
"""
import socket
import sys
import time


class Resp:
    """Minimal blocking RESP client over one TCP connection."""

    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port), timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def send_raw(self, data):
        self.sock.sendall(data)

    def send(self, *args):
        out = b"*%d\r\n" % len(args)
        for a in args:
            if isinstance(a, str):
                a = a.encode()
            out += b"$%d\r\n%s\r\n" % (len(a), a)
        self.sock.sendall(out)

    def _line(self):
        while b"\r\n" not in self.buf:
            data = self.sock.recv(65536)
            if not data:
                raise ConnectionError("server closed connection")
            self.buf += data
        line, self.buf = self.buf.split(b"\r\n", 1)
        return line

    def _bulk(self, n):
        while len(self.buf) < n + 2:
            data = self.sock.recv(65536)
            if not data:
                raise ConnectionError("server closed connection")
            self.buf += data
        body, self.buf = self.buf[:n], self.buf[n + 2:]
        return body

    def reply(self):
        line = self._line()
        kind, body = line[:1], line[1:]
        if kind == b"+":
            return body.decode()
        if kind == b"-":
            return Exception(body.decode())
        if kind == b":":
            return int(body)
        if kind == b"$":
            n = int(body)
            return None if n == -1 else self._bulk(n)
        if kind == b"*":
            n = int(body)
            return None if n == -1 else [self.reply() for _ in range(n)]
        raise ValueError("unknown reply type %r" % line)

    def round(self, *args):
        self.send(*args)
        return self.reply()

    def expect_eof(self):
        """True when the server closes cleanly with nothing more to say."""
        self.sock.settimeout(10)
        try:
            return not self.buf and self.sock.recv(65536) == b""
        except (ConnectionError, socket.timeout):
            return False

    def expect_closed(self):
        self.sock.settimeout(10)
        try:
            while True:
                if not self.sock.recv(65536):
                    return True
        except (ConnectionError, socket.timeout):
            return True


PASSED = 0


def check(name, cond):
    global PASSED
    if not cond:
        print("FAIL: %s" % name)
        sys.exit(1)
    PASSED += 1
    print("ok: %s" % name)


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    port = int(sys.argv[1])
    host = sys.argv[2] if len(sys.argv) > 2 else "127.0.0.1"

    c = Resp(host, port)
    check("PING -> PONG", c.round("PING") == "PONG")
    check("PING msg echoes", c.round("PING", "hi") == b"hi")
    check("ECHO", c.round("ECHO", "payload") == b"payload")
    check("SET returns OK", c.round("SET", "1001", "value-1") == "OK")
    check("GET returns value", c.round("GET", "1001") == b"value-1")
    check("GET missing is nil", c.round("GET", "999999") is None)
    check("DEL counts removed", c.round("DEL", "1001", "999999") == 1)
    check("GET after DEL is nil", c.round("GET", "1001") is None)

    c.round("SET", "2001", "a")
    c.round("SET", "2002", "b")
    mget = c.round("MGET", "2001", "999999", "2002")
    check("MGET shape", mget == [b"a", None, b"b"])

    scan = c.round("SCAN", "0", "COUNT", "100")
    check("SCAN shape [cursor, keys]",
          isinstance(scan, list) and len(scan) == 2 and
          isinstance(scan[1], list))
    check("SCAN sees written keys",
          b"2001" in scan[1] and b"2002" in scan[1])

    # Binary-safe payload: CRLF and NUL bytes inside a bulk string.
    blob = b"bin\r\n\x00tail"
    c.round("SET", "3001", blob)
    check("binary-safe value", c.round("GET", "3001") == blob)

    # Pipelining: many commands in one write; replies come back in
    # request order.
    n = 50
    wire = b""
    for i in range(n):
        k = str(4000 + i).encode()
        wire += b"*3\r\n$3\r\nSET\r\n$%d\r\n%s\r\n$%d\r\nv%s\r\n" % (
            len(k), k, len(k) + 1, k)
    for i in range(n):
        k = str(4000 + i).encode()
        wire += b"*2\r\n$3\r\nGET\r\n$%d\r\n%s\r\n" % (len(k), k)
    c.send_raw(wire)
    ok = all(c.reply() == "OK" for _ in range(n))
    vals = [c.reply() for _ in range(n)]
    check("pipelined SETs all OK", ok)
    check("pipelined replies in request order",
          vals == [b"v%d" % (4000 + i) for i in range(n)])

    # Fragmented write: one command trickled a few bytes at a time must
    # parse identically (incremental framing).
    frag = b"*2\r\n$3\r\nGET\r\n$4\r\n4007\r\n"
    for i in range(0, len(frag), 3):
        c.send_raw(frag[i:i + 3])
        time.sleep(0.005)
    check("fragmented command parses", c.reply() == b"v4007")

    # Inline commands (the netcat framing).
    c.send_raw(b"PING\r\n")
    check("inline PING", c.reply() == "PONG")

    # Errors keep the connection usable.
    check("wrong arity is an error",
          isinstance(c.round("SET", "1"), Exception))
    check("unknown command is an error",
          isinstance(c.round("FLURB"), Exception))
    check("non-integer key is an error",
          isinstance(c.round("GET", "not-a-key"), Exception))
    check("connection survives errors", c.round("PING") == "PONG")

    # INFO renders the stock sections.
    info = c.round("INFO")
    check("INFO has Server section", b"tcp_port:" in info)
    check("INFO has Stats section",
          b"total_commands_processed:" in info)

    # Tenant namespaces: AUTH-scoped connections do not see each
    # other's keys; the prefix convention crosses namespaces.
    t1 = Resp(host, port)
    t2 = Resp(host, port)
    check("AUTH tenant-one", t1.round("AUTH", "conf-one") == "OK")
    check("AUTH tenant-two", t2.round("AUTH", "conf-two") == "OK")
    t1.round("SET", "5001", "one's data")
    check("tenant isolation", t2.round("GET", "5001") is None)
    check("prefix convention crosses tenants",
          t2.round("GET", "conf-one:5001") == b"one's data")

    # Half-close: pipeline 100 commands, shut down the sending side, and
    # still get every reply, in order, followed by EOF.
    h = Resp(host, port)
    wire = b""
    for i in range(50):
        k = str(6000 + i).encode()
        v = b"h%d" % i
        wire += b"*3\r\n$3\r\nSET\r\n$%d\r\n%s\r\n$%d\r\n%s\r\n" % (
            len(k), k, len(v), v)
        wire += b"*2\r\n$3\r\nGET\r\n$%d\r\n%s\r\n" % (len(k), k)
    h.send_raw(wire)
    h.sock.shutdown(socket.SHUT_WR)
    replies = [h.reply() for _ in range(100)]
    check("half-closed client gets all 100 replies in order",
          replies == [r for i in range(50) for r in ("OK", b"h%d" % i)])
    check("half-closed client then gets EOF", h.expect_eof())

    # Oversized frame: error reply, then the server hangs up — and
    # stays healthy for other connections.
    big = Resp(host, port)
    big.send_raw(b"*2\r\n$3\r\nSET\r\n$99999999\r\n")
    try:
        big.send_raw(b"x" * (2 << 20))
    except ConnectionError:
        pass  # the server may hang up before the blob is all sent
    check("oversized frame rejected",
          isinstance(big.reply(), Exception))
    check("oversized frame closes connection", big.expect_closed())
    check("server survives oversized frame",
          Resp(host, port).round("PING") == "PONG")

    print("resp_conformance: %d checks passed" % PASSED)
    return 0


if __name__ == "__main__":
    sys.exit(main())

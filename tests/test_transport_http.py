"""Tests for the connection-oriented transport and the HTTP layer."""

import pytest

from repro.simnet import (
    ConnectionClosed,
    ConnectionRefused,
    HttpError,
    HttpRequest,
    HttpResponse,
    HttpServer,
    LinkSpec,
    Network,
    connect,
    request,
)


def make_net(**link_kw):
    net = Network(master_seed=3)
    net.add_node("client")
    net.add_node("server")
    defaults = dict(latency=0.05, bandwidth=100_000)
    defaults.update(link_kw)
    net.add_duplex_link("client", "server", LinkSpec(**defaults))
    return net


class TestTransport:
    def test_connect_refused_without_listener(self):
        net = make_net()

        def client():
            yield from connect(net, "client", "server", 1234)

        proc = net.sim.process(client())
        with pytest.raises(ConnectionRefused):
            net.sim.run(until=proc)
        # refused connections are still ledgered (the device dialled)
        counters = net.telemetry.metrics.snapshot()["counters"]
        assert counters["connections_refused"] == 1

    def test_round_trip_message(self):
        net = make_net()
        server_log = []

        def on_accept(conn):
            def serve():
                msg = yield from conn.responder_socket.recv()
                server_log.append(msg.payload)
                yield from conn.responder_socket.send("pong", 4)

            net.sim.process(serve())

        net.node("server").listen(1234, on_accept)

        def client():
            sock = yield from connect(net, "client", "server", 1234)
            yield from sock.send("ping", 4)
            reply = yield from sock.recv()
            sock.close()
            return reply.payload

        proc = net.sim.process(client())
        assert net.sim.run(until=proc) == "pong"
        assert server_log == ["ping"]

    def test_connection_setup_cost_paid(self):
        net = make_net(setup_time=2.0)
        net.node("server").listen(1, lambda conn: None)

        def client():
            sock = yield from connect(net, "client", "server", 1)
            sock.close()

        proc = net.sim.process(client())
        net.sim.run(until=proc)
        # 2x setup (both directions... setup counted once per link on path)
        assert net.sim.now >= 2.0

    def test_ledger_records_duration_and_bytes(self):
        net = make_net()

        def on_accept(conn):
            def serve():
                yield from conn.responder_socket.recv()
                yield from conn.responder_socket.send("r", 100)

            net.sim.process(serve())

        net.node("server").listen(1, on_accept)

        def client():
            sock = yield from connect(net, "client", "server", 1, purpose="test")
            yield from sock.send("q", 50)
            yield from sock.recv()
            sock.close()

        proc = net.sim.process(client())
        net.sim.run(until=proc)
        records = [r for r in net.tracer.connections if r.purpose == "test"]
        assert len(records) == 1
        rec = records[0]
        assert rec.initiator == "client"
        assert rec.closed_at is not None
        assert rec.duration() > 0
        assert rec.bytes_sent > 50  # payload + header
        assert rec.bytes_received > 100

    def test_recv_after_close_raises(self):
        net = make_net()
        accepted = []
        net.node("server").listen(1, lambda conn: accepted.append(conn))

        def client():
            sock = yield from connect(net, "client", "server", 1)
            sock.close()
            yield from sock.recv()

        proc = net.sim.process(client())
        with pytest.raises(ConnectionClosed):
            net.sim.run(until=proc)

    def test_connection_time_accounting(self):
        net = make_net()
        net.node("server").listen(1, lambda conn: None)

        def client():
            sock = yield from connect(net, "client", "server", 1)
            yield net.sim.timeout(5.0)
            sock.close()

        proc = net.sim.process(client())
        net.sim.run(until=proc)
        assert net.tracer.connection_time("client") >= 5.0
        assert net.tracer.connection_count("client") == 1
        # 'since' filtering excludes earlier connections
        assert net.tracer.connection_time("client", since=net.sim.now + 1) == 0.0

    def test_close_after_finalize_keeps_truncated_record(self):
        """A transfer still suspended when the run ends closes its socket
        only when the generator is collected, after the end-of-run
        close-out stamped the record: that late close changes nothing."""
        net = make_net()
        net.node("server").listen(1, lambda conn: None)

        def client():
            return (yield from connect(net, "client", "server", 1))

        proc = net.sim.process(client())
        sock = net.sim.run(until=proc)
        assert net.tracer.finalize() == 1
        rec = sock.connection.record
        closed_at = rec.closed_at
        counters = net.telemetry.metrics.snapshot()["counters"]
        net.sim.run(until=net.sim.now + 1.0)
        sock.close()
        assert not sock.connection.is_open
        assert (rec.closed_at, rec.truncated) == (closed_at, True)
        assert net.telemetry.metrics.snapshot()["counters"] == counters


class TestHttp:
    def test_simple_route(self):
        net = make_net()
        srv = HttpServer(net.node("server"))
        srv.route("/hello", lambda req: HttpResponse(200, body="world", body_size=5))

        def client():
            resp = yield from request(net, "client", "server", "GET", "/hello")
            return resp

        proc = net.sim.process(client())
        resp = net.sim.run(until=proc)
        assert resp.status == 200 and resp.body == "world"

    def test_404_raises_http_error(self):
        net = make_net()
        HttpServer(net.node("server"))

        def client():
            yield from request(net, "client", "server", "GET", "/missing")

        proc = net.sim.process(client())
        with pytest.raises(HttpError) as err:
            net.sim.run(until=proc)
        assert err.value.status == 404

    def test_handler_exception_becomes_500(self):
        net = make_net()
        srv = HttpServer(net.node("server"))

        def bad(req):
            raise RuntimeError("kaboom")

        srv.route("/bad", bad)

        def client():
            resp = yield from request(
                net, "client", "server", "GET", "/bad", raise_for_status=False
            )
            return resp

        proc = net.sim.process(client())
        resp = net.sim.run(until=proc)
        assert resp.status == 500
        assert "kaboom" in resp.reason

    def test_generator_handler_does_simulated_work(self):
        net = make_net()
        srv = HttpServer(net.node("server"))

        def slow(req):
            yield net.sim.timeout(3.0)
            return HttpResponse(200, body="done")

        srv.route("/slow", slow)

        def client():
            resp = yield from request(net, "client", "server", "GET", "/slow")
            return resp

        proc = net.sim.process(client())
        resp = net.sim.run(until=proc)
        assert resp.body == "done"
        assert net.sim.now >= 3.0

    def test_prefix_routing(self):
        net = make_net()
        srv = HttpServer(net.node("server"))
        srv.route("/api/", lambda req: HttpResponse(200, body=req.path))

        def client():
            resp = yield from request(net, "client", "server", "GET", "/api/v1/x")
            return resp

        proc = net.sim.process(client())
        assert net.sim.run(until=proc).body == "/api/v1/x"

    def test_exact_beats_prefix(self):
        net = make_net()
        srv = HttpServer(net.node("server"))
        srv.route("/api/", lambda req: HttpResponse(200, body="prefix"))
        srv.route("/api/x", lambda req: HttpResponse(200, body="exact"))

        def client():
            resp = yield from request(net, "client", "server", "GET", "/api/x")
            return resp

        proc = net.sim.process(client())
        assert net.sim.run(until=proc).body == "exact"

    def test_duplicate_route_raises(self):
        net = make_net()
        srv = HttpServer(net.node("server"))
        srv.route("/a", lambda r: HttpResponse(200))
        with pytest.raises(ValueError):
            srv.route("/a", lambda r: HttpResponse(200))

    def test_headers_reach_handler(self):
        net = make_net()
        srv = HttpServer(net.node("server"))
        srv.route(
            "/h",
            lambda req: HttpResponse(200, body=req.headers.get("step", "none")),
        )

        def client():
            resp = yield from request(
                net, "client", "server", "GET", "/h", headers={"step": "final"}
            )
            return resp

        proc = net.sim.process(client())
        assert net.sim.run(until=proc).body == "final"

    def test_request_validation(self):
        with pytest.raises(ValueError):
            HttpRequest(method="FETCH", path="/x")
        with pytest.raises(ValueError):
            HttpRequest(method="GET", path="no-slash")
        with pytest.raises(ValueError):
            HttpRequest(method="GET", path="/x", body_size=-1)

    def test_server_close_stops_accepting(self):
        net = make_net()
        srv = HttpServer(net.node("server"))
        srv.route("/x", lambda r: HttpResponse(200))
        srv.close()

        def client():
            yield from request(net, "client", "server", "GET", "/x")

        proc = net.sim.process(client())
        with pytest.raises(ConnectionRefused):
            net.sim.run(until=proc)

    def test_transfer_time_scales_with_body(self):
        net = make_net(bandwidth=10_000)
        srv = HttpServer(net.node("server"))
        srv.route("/big", lambda req: HttpResponse(200, body_size=100_000))
        srv.route("/small", lambda req: HttpResponse(200, body_size=10))

        def timed(path):
            def client():
                t0 = net.sim.now
                yield from request(net, "client", "server", "GET", path)
                return net.sim.now - t0

            proc = net.sim.process(client())
            return net.sim.run(until=proc)

        t_small = timed("/small")
        t_big = timed("/big")
        assert t_big > t_small + 5.0  # 100 KB over 10 KB/s

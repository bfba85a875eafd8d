"""/v1/stats cluster aggregation across workers sharing a CounterBlock.

``repro serve --workers N`` forks N processes; each publishes its own
row of a shared-memory :class:`CounterBlock` and any worker answers
``/v1/stats`` with the column sums under ``result.cluster``.  Forking is
awkward under pytest, so these tests stand up two in-process
:class:`ServerThread` instances wired to one block — the exact topology
the forked workers see (same segment, distinct rows, no locks).
"""

import asyncio

import pytest

from repro.serve.counters import FIELDS, CounterBlock
from repro.serve import ControlPlane, ServerThread
from repro.serve.http import ControlPlaneHTTPServer
from tests.serve.test_http import request


@pytest.fixture
def cluster(video_text):
    block = CounterBlock(2)
    servers = []
    try:
        for index in range(2):
            thread = ServerThread(
                ControlPlane(),
                host="127.0.0.1",
                port=0,
                counters=block,
                worker_index=index,
            ).start()
            servers.append(thread)
        yield servers, block
    finally:
        for thread in servers:
            thread.stop()
        block.close()
        block.unlink()


def stats(server):
    status, body, _ = request(server.address, "GET", "/v1/stats")
    assert status == 200, body
    return body["result"]


def test_no_counter_block_means_no_cluster_key(video_text):
    with ServerThread(ControlPlane(), host="127.0.0.1", port=0) as server:
        assert "cluster" not in stats(server)


def test_cluster_sums_across_workers(cluster, video_text):
    servers, _ = cluster
    for server in servers:
        status, body, _ = request(
            server.address, "POST", "/v1/specs", body=video_text
        )
        assert status == 200, body
    # either worker answers with fleet-wide sums
    for server in servers:
        doc = stats(server)
        assert doc["cluster"]["workers"] == 2
        assert doc["cluster"]["served"] == 2
        assert doc["cluster"]["specs"] == 2
        # this worker's own row stays visible under "server"
        assert doc["server"]["served"] == 1
        assert set(FIELDS) <= set(doc["cluster"])


def test_cluster_reflects_lopsided_load(cluster, video_text):
    servers, _ = cluster
    for _ in range(3):
        status, _, _ = request(
            servers[0].address, "POST", "/v1/specs", body=video_text
        )
        assert status == 200
    doc = stats(servers[1])
    assert doc["cluster"]["served"] == 3
    assert doc["server"]["served"] == 0
    # registering the same spec twice is idempotent: 3 served, 1 spec
    assert doc["cluster"]["specs"] == 1


def test_rows_survive_worker_stats_queries(cluster, video_text):
    servers, block = cluster
    request(servers[0].address, "POST", "/v1/specs", body=video_text)
    stats(servers[0])
    stats(servers[1])
    assert block.row(0)["served"] == 1
    assert block.row(1)["served"] == 0


def test_peer_row_counts_a_reply_the_client_already_holds(cluster, video_text):
    servers, block = cluster
    for count in range(1, 6):
        status, _, _ = request(
            servers[0].address, "POST", "/v1/specs", body=video_text
        )
        assert status == 200
        # read straight off the shared segment, no stats round trip
        assert block.row(0)["served"] == count


def test_counter_row_is_published_before_the_response_bytes(video_text):
    """The row a peer reads already counts the request being answered:
    the fake writer snapshots the shared row at the moment the response
    is written, so a publish that trails the write fails every time."""

    class SnapshotWriter:
        def __init__(self, block):
            self.block = block
            self.rows = []

        def write(self, data):
            self.rows.append(self.block.row(0))

    body = video_text.encode("utf-8")
    head = (
        "POST /v1/specs HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {len(body)}\r\n"
    ).encode("latin-1")

    async def exchange(block):
        server = ControlPlaneHTTPServer(
            ControlPlane(), counters=block, worker_index=0
        )
        writer = SnapshotWriter(block)
        for _ in range(2):
            reader = asyncio.StreamReader()
            reader.feed_data(body)
            assert await server._handle_request(head, reader, writer)
        server._executor.shutdown(wait=True)
        return writer.rows

    with CounterBlock(2) as block:
        rows = asyncio.run(exchange(block))
    assert [row["served"] for row in rows] == [1, 2]
    assert rows[-1]["specs"] == 1

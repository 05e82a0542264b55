"""Unit tests for servers, clusters and the whitelist loaning API."""

import pickle
import random

import pytest

from repro.cluster.cluster import (
    Cluster,
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.cluster.gpu import T4, V100
from repro.cluster.server import Server
from repro.market import ClusterSet

from tests.conftest import loan


class TestServer:
    def make(self, **kw):
        return Server(server_id="s1", gpu_type=V100, **kw)

    def test_initially_idle(self):
        server = self.make()
        assert server.idle
        assert server.free_gpus == 8
        assert server.job_count == 0

    def test_allocate_and_release(self):
        server = self.make()
        server.allocate(1, 3)
        server.allocate(2, 2)
        assert server.used_gpus == 5
        assert server.free_gpus == 3
        assert server.release(1) == 3
        assert server.free_gpus == 6

    def test_allocate_accumulates_per_job(self):
        server = self.make()
        server.allocate(1, 2)
        server.allocate(1, 2)
        assert server.allocations[1] == 4

    def test_allocate_over_capacity_raises(self):
        server = self.make()
        with pytest.raises(ValueError, match="only 8 free"):
            server.allocate(1, 9)

    def test_allocate_zero_raises(self):
        with pytest.raises(ValueError):
            self.make().allocate(1, 0)

    def test_partial_release(self):
        server = self.make()
        server.allocate(1, 6)
        assert server.release(1, 2) == 2
        assert server.allocations[1] == 4

    def test_release_more_than_held_releases_all(self):
        server = self.make()
        server.allocate(1, 4)
        assert server.release(1, 10) == 4
        assert 1 not in server.allocations

    def test_release_absent_job_is_noop(self):
        assert self.make().release(99) == 0

    def test_rejects_bad_home_cluster(self):
        # any non-empty cluster/region name is a valid home (the
        # capacity market names its member clusters freely) ...
        Server(server_id="x", gpu_type=V100, home_cluster="edge")
        # ... but a missing home is still rejected
        with pytest.raises(ValueError):
            Server(server_id="x", gpu_type=V100, home_cluster="")
        with pytest.raises(ValueError):
            Server(server_id="x", gpu_type=V100, home_cluster=None)

    def test_rejects_zero_gpus(self):
        with pytest.raises(ValueError):
            Server(server_id="x", gpu_type=V100, num_gpus=0)


class TestCluster:
    def test_factories_build_expected_sizes(self):
        training = make_training_cluster(4)
        inference = make_inference_cluster(3)
        assert training.total_gpus == 32
        assert inference.total_gpus == 24
        assert all(s.gpu_type is V100 for s in training.servers)
        assert all(s.gpu_type is T4 for s in inference.servers)

    def test_duplicate_server_rejected(self):
        cluster = make_training_cluster(1)
        with pytest.raises(ValueError, match="duplicate"):
            cluster.add_server(cluster.servers[0])

    def test_remove_requires_vacant(self):
        cluster = make_training_cluster(1)
        cluster.servers[0].allocate(1, 2)
        with pytest.raises(RuntimeError, match="still hosts"):
            cluster.remove_server(cluster.servers[0].server_id)

    def test_remove_unknown_raises(self):
        with pytest.raises(KeyError):
            make_training_cluster(1).remove_server("nope")

    def test_utilization(self):
        cluster = make_training_cluster(2)
        assert cluster.utilization() == 0.0
        cluster.servers[0].allocate(1, 8)
        assert cluster.utilization() == pytest.approx(0.5)

    def test_contains_and_len(self):
        cluster = make_training_cluster(3)
        assert len(cluster) == 3
        assert "train-0000" in cluster
        assert "nope" not in cluster

    def test_empty_cluster_utilization_zero(self):
        assert Cluster("empty").utilization() == 0.0


class TestClusterPair:
    def make_pair(self):
        return ClusterPair(make_training_cluster(2), make_inference_cluster(3))

    def test_loan_moves_idle_servers(self):
        pair = self.make_pair()
        moved = loan(pair, 2)
        assert len(moved) == 2
        assert pair.loaned_count == 2
        assert len(pair.inference) == 1
        assert all(s.on_loan for s in moved)
        assert all(s.server_id in pair.training for s in moved)

    def test_loan_skips_busy_servers(self):
        pair = self.make_pair()
        pair.inference.servers[0].allocate(1, 1)
        moved = loan(pair, 3)
        assert len(moved) == 2  # only the idle ones move

    def test_loan_more_than_available(self):
        pair = self.make_pair()
        assert len(loan(pair, 10)) == 3

    def test_return_server_round_trip(self):
        pair = self.make_pair()
        server = loan(pair, 1)[0]
        returned = pair.return_server(server.server_id)
        assert not returned.on_loan
        assert returned.group is None
        assert pair.loaned_count == 0
        assert len(pair.inference) == 3

    def test_return_requires_on_loan(self):
        pair = self.make_pair()
        with pytest.raises(ValueError, match="not on loan"):
            pair.return_server(pair.training.servers[0].server_id)

    def test_return_requires_vacant(self):
        pair = self.make_pair()
        server = loan(pair, 1)[0]
        server.allocate(1, 2)
        with pytest.raises(RuntimeError):
            pair.return_server(server.server_id)

    def test_training_views_split_loaned(self):
        pair = self.make_pair()
        loan(pair, 2)
        assert len(pair.training.on_loan_servers) == 2
        assert len(pair.training) == 4


def _market_2x2() -> ClusterPair:
    return ClusterSet(
        [make_training_cluster(3, name=f"train-r{k}", id_prefix=f"train-r{k}")
         for k in range(2)],
        [make_inference_cluster(4, name=f"infer-r{k}", id_prefix=f"infer-r{k}")
         for k in range(2)],
    )


class TestTotalGpusMemo:
    """``Cluster.total_gpus`` is answered from a memo; it must equal the
    scan at every moment, servers on loan included."""

    @pytest.mark.parametrize("make_pair", [
        lambda: ClusterPair(make_training_cluster(3), make_inference_cluster(5)),
        _market_2x2,
    ], ids=["pair", "2x2"])
    def test_equals_scan_after_random_membership_changes(self, make_pair):
        rng = random.Random(7)
        pair = make_pair()
        whitelists = [pair.training, pair.inference, *pair.inference.members]

        def check():
            for cluster in whitelists:
                assert cluster.total_gpus == sum(
                    s.num_gpus for s in cluster.servers
                ), cluster.name
        check()
        for step in range(300):
            now = float(step)
            op = rng.choice(("add", "remove", "loan", "return"))
            region = pair.training.servers[0].home_cluster
            lender = rng.choice(pair.inference.members)
            if op == "add":
                home, cluster = rng.choice(
                    [(region, pair.training), (lender.name, lender)]
                )
                cluster.add_server(Server(
                    server_id=f"extra-{step}", gpu_type=V100,
                    num_gpus=rng.choice((2, 4, 8)), home_cluster=home,
                ))
            elif op == "remove":
                cluster = rng.choice([pair.training, lender])
                owned = [s for s in cluster.servers if not s.on_loan]
                if len(owned) > 1:
                    cluster.remove_server(rng.choice(owned).server_id)
            elif op == "loan":
                loan(pair, rng.randint(1, 3), now=now)
            elif pair.training.on_loan_servers:
                pair.return_server(
                    rng.choice(pair.training.on_loan_servers).server_id,
                    now=now,
                )
            check()
        assert pair.loaned_count > 0  # the walk ends with loans open

    def test_memo_is_not_pickled(self):
        cluster = make_training_cluster(3)
        assert cluster.total_gpus == 24
        assert "_total_gpus" not in cluster.__getstate__()
        restored = pickle.loads(pickle.dumps(cluster))
        restored.add_server(Server(server_id="late", gpu_type=V100))
        assert restored.total_gpus == 32

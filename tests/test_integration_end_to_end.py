"""End-to-end integration tests crossing every subsystem.

These are the "does the whole paper hang together" checks: corpora flow
through communities into both search algorithms; gossip convergence and
search agree on directory contents; PFS rides on top of everything.
"""

import numpy as np
import pytest

from repro.constants import GossipConfig
from repro.core.community import InProcessCommunity
from repro.corpus.collections import make_collection
from repro.experiments.search_quality import build_testbed, evaluate_k
from repro.gossip.simulation import GossipSimulation
from repro.pfs.pfs import PFS
from repro.sim.metrics import ConvergenceTracker
from repro.sim.topology import lan_topology
from repro.text.document import Document


class TestSearchPipeline:
    @pytest.fixture(scope="class")
    def testbed(self):
        collection = make_collection("MED", scale=0.2, seed=21)
        return build_testbed(collection, num_peers=60, seed=21)

    def test_ipf_tracks_idf(self, testbed):
        """Figure 6(a)'s headline: TF×IPF recall/precision stays close to
        the centralized oracle."""
        point = evaluate_k(testbed, 40)
        assert point.recall_ipf >= point.recall_idf - 0.10
        assert point.precision_ipf >= point.precision_idf - 0.10

    def test_recall_grows_with_k(self, testbed):
        small = evaluate_k(testbed, 10)
        large = evaluate_k(testbed, 80)
        assert large.recall_ipf > small.recall_ipf

    def test_adaptive_beats_naive_recall(self, testbed):
        adaptive = evaluate_k(testbed, 20, stopping="adaptive")
        naive = evaluate_k(testbed, 20, stopping="first-k")
        assert adaptive.recall_ipf >= naive.recall_ipf
        # And the naive rule contacts no more peers than adaptive.
        assert naive.avg_peers_ipf <= adaptive.avg_peers_ipf

    def test_best_is_lower_bound(self, testbed):
        point = evaluate_k(testbed, 20)
        assert point.avg_peers_best <= point.avg_peers_ipf

    def test_peers_contacted_well_below_community(self, testbed):
        point = evaluate_k(testbed, 20)
        assert point.avg_peers_ipf < testbed.num_peers / 2


class TestGossipDirectoryAgreement:
    def test_converged_community_has_identical_directories(self):
        cfg = GossipConfig(base_interval_s=1.0)
        world = GossipSimulation(lan_topology(15), cfg, seed=33)
        tracker = ConvergenceTracker()
        world.trackers.append(tracker)
        world.establish(range(15))
        rumors = [world.peers[i].originate_update(200) for i in (0, 5, 9)]
        for rumor in rumors:
            world.tracked_register(rumor.rid, rumor.origin)
        world.sim.run(until=900.0, stop_when=tracker.all_converged)
        assert tracker.all_converged()
        digests = {p.core.digest for p in world.peers}
        assert len(digests) == 1

    def test_conservation_of_knowledge(self):
        """No peer ever knows a rumor that was never created, and the
        origin always knows its own rumor."""
        cfg = GossipConfig(base_interval_s=1.0)
        world = GossipSimulation(lan_topology(10), cfg, seed=34)
        world.establish(range(10))
        rumor = world.peers[3].originate_update(100)
        world.sim.run(until=120.0)
        valid_ids = {rumor.rid}
        for peer in world.peers:
            assert peer.core.known <= valid_ids
        assert world.peers[3].core.knowledge.knows(rumor.rid)


class TestPFSOverCommunity:
    def test_full_stack_share_and_find(self):
        clock = [0.0]
        community = InProcessCommunity(4, clock=lambda: clock[0])
        for pid in range(4):
            community.brokerage.add_member(pid)
        alice, bob = PFS(community, 0), PFS(community, 1)
        bob.publish_file("/thesis.txt", "gossip based replication of bloom filters")
        d = alice.make_directory("/replication")
        assert "thesis.txt" in d.links
        servers = {0: alice.files, 1: bob.files}
        content = alice.read_url(d.links["thesis.txt"], servers)
        assert "replication" in content

    def test_ranked_search_sees_pfs_files(self):
        community = InProcessCommunity(3)
        pfs = PFS(community, 2)
        pfs.publish_file("/ml.txt", "machine learning with gradient descent")
        community.publish(0, Document("d-noise", "completely unrelated"))
        result = community.ranked_search("gradient descent", k=2)
        assert result.doc_ids() == ["pfs:2:/ml.txt"]


class TestDeterminism:
    def test_search_experiment_reproducible(self):
        collection = make_collection("MED", scale=0.1, seed=5)
        a = build_testbed(collection, num_peers=30, seed=5)
        b = build_testbed(collection, num_peers=30, seed=5)
        pa = evaluate_k(a, 20)
        pb = evaluate_k(b, 20)
        assert pa.recall_ipf == pb.recall_ipf
        assert pa.avg_peers_ipf == pb.avg_peers_ipf

"""Tests for TF×IPF peer ranking and the distributed search loop."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom.filter import BloomFilter
from repro.bloom.matcher import FilterMatrix
from repro.ranking.stopping import AdaptiveStopping, FirstKStopping, NeverStop
from repro.ranking.tfidf import RankedDoc
from repro.ranking.tfipf import SearchRun, TFIPFSearch, compute_ipf, rank_peers


class StubBackend:
    """A hand-wired community: explicit filters and canned local results."""

    def __init__(self, peer_terms: dict[int, list[str]], peer_docs: dict[int, list[RankedDoc]]):
        self._filters = {}
        for pid, terms in peer_terms.items():
            bf = BloomFilter(8192, 2)
            bf.add_many(terms)
            self._filters[pid] = bf
        self._docs = peer_docs
        self.queries: list[int] = []

    def online_peer_ids(self):
        return sorted(self._filters)

    def filter_hit_matrix(self, terms):
        matrix = FilterMatrix()
        matrix.sync(self._filters.items())
        return matrix.hit_matrix(terms)

    def query_peer(self, pid, terms, ipf, k):
        self.queries.append(pid)
        return self._docs.get(pid, [])[:k]


@pytest.fixture
def backend() -> StubBackend:
    return StubBackend(
        peer_terms={
            0: ["gossip", "bloom"],
            1: ["gossip"],
            2: ["bloom"],
            3: ["unrelated"],
        },
        peer_docs={
            0: [RankedDoc("a0", 3.0), RankedDoc("b0", 2.0)],
            1: [RankedDoc("a1", 2.5)],
            2: [RankedDoc("a2", 1.0)],
        },
    )


class TestIPFComputation:
    def test_ipf_counts_filters(self, backend):
        ipf, hits = compute_ipf(["gossip", "bloom", "absent"], backend)
        # gossip on 2 of 4 peers, bloom on 2 of 4, absent on none.
        assert ipf["gossip"] == pytest.approx(math.log(1 + 4 / 2))
        assert ipf["bloom"] == pytest.approx(math.log(1 + 4 / 2))
        assert ipf["absent"] == 0.0
        assert set(hits) == {0, 1, 2}

    def test_rank_peers_equation3(self, backend):
        ranking, ipf = rank_peers(["gossip", "bloom"], backend)
        # Peer 0 has both terms: top rank; 1 and 2 tie, break on id.
        assert [pid for pid, _ in ranking] == [0, 1, 2]
        assert ranking[0][1] == pytest.approx(ipf["gossip"] + ipf["bloom"])

    def test_peers_without_terms_excluded(self, backend):
        ranking, _ = rank_peers(["gossip"], backend)
        assert all(pid in (0, 1) for pid, _ in ranking)


class TestSearchLoop:
    def test_search_returns_merged_topk(self, backend):
        search = TFIPFSearch(backend, stopping=NeverStop())
        result = search.search(["gossip", "bloom"], k=3)
        assert result.doc_ids() == ["a0", "a1", "b0"]
        assert result.peers_contacted == [0, 1, 2]

    def test_adaptive_stopping_prunes_contacts(self):
        # 30 peers hold the term; only the first holds good documents and
        # every later peer returns nothing. With p=2, the search should
        # stop after ~k retrieved + 2 unproductive peers.
        peer_terms = {pid: ["tt"] for pid in range(30)}
        peer_docs = {0: [RankedDoc(f"d{i}", 10.0 - i) for i in range(5)]}
        backend = StubBackend(peer_terms, peer_docs)
        search = TFIPFSearch(backend, stopping=AdaptiveStopping())
        result = search.search(["tt"], k=3)
        assert result.num_peers_contacted < 10

    def test_first_k_stops_immediately(self, backend):
        search = TFIPFSearch(backend, stopping=FirstKStopping())
        result = search.search(["gossip", "bloom"], k=2)
        assert result.num_peers_contacted == 1  # peer 0 returned 2 docs

    def test_group_size_contacts_in_parallel(self, backend):
        search = TFIPFSearch(backend, stopping=FirstKStopping(), group_size=3)
        result = search.search(["gossip", "bloom"], k=2)
        # The whole first group is contacted even though peer 0 sufficed.
        assert result.num_peers_contacted == 3

    def test_duplicate_docs_keep_best_score(self):
        backend = StubBackend(
            peer_terms={0: ["tt"], 1: ["tt"]},
            peer_docs={
                0: [RankedDoc("shared", 1.0)],
                1: [RankedDoc("shared", 2.0)],
            },
        )
        search = TFIPFSearch(backend, stopping=NeverStop())
        result = search.search(["tt"], k=1)
        assert result.results == [RankedDoc("shared", 2.0)]

    def test_k_validation(self, backend):
        search = TFIPFSearch(backend)
        with pytest.raises(ValueError):
            search.search(["gossip"], k=0)

    def test_group_size_validation(self, backend):
        with pytest.raises(ValueError):
            TFIPFSearch(backend, group_size=0)

    def test_no_matching_peers(self, backend):
        search = TFIPFSearch(backend)
        result = search.search(["nothing-has-this"], k=5)
        assert result.results == []
        assert result.peers_contacted == []


def sequential_reference(ranking, answers, k, state):
    """Section 5.2 one peer at a time — the loop as it ran before waves,
    kept here as the reference the wave schedule must reproduce."""
    top: dict[str, float] = {}
    contacted = []
    for pid, _relevance in ranking:
        contacted.append(pid)
        returned = answers[pid]
        for doc in returned:
            if doc.doc_id not in top or doc.score > top[doc.doc_id]:
                top[doc.doc_id] = doc.score
        top = dict(sorted(top.items(), key=lambda kv: (-kv[1], kv[0]))[:k])
        state.observe(any(doc.doc_id in top for doc in returned), len(top))
        if state.should_stop():
            break
    return contacted, [RankedDoc(d, s) for d, s in top.items()]


POLICIES = {
    "adaptive": AdaptiveStopping,
    "first-k": FirstKStopping,
    "never": NeverStop,
}

#: few doc ids and few scores, so peers return duplicates and ties.
_answers = st.lists(
    st.builds(
        RankedDoc,
        st.integers(0, 30).map("d{}".format),
        st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
    ),
    max_size=6,
    unique_by=lambda doc: doc.doc_id,
)


class TestWaveSchedule:
    @given(
        answers=st.lists(_answers, max_size=40),
        k=st.integers(1, 12),
        community_size=st.integers(0, 2000),
        policy=st.sampled_from(sorted(POLICIES)),
    )
    @settings(max_examples=300, deadline=None)
    def test_waves_reproduce_the_sequential_search(
        self, answers, k, community_size, policy
    ):
        ranking = [(pid, float(len(answers) - pid)) for pid in range(len(answers))]
        expected_contacts, expected_results = sequential_reference(
            ranking, answers, k, POLICIES[policy]().begin(community_size, k)
        )
        run = SearchRun(ranking, k, POLICIES[policy]().begin(community_size, k))
        sizes = []
        while wave := run.next_wave():
            # Checked when the wave is handed out — before any answer
            # could excuse it: no message the reference did not send.
            assert set(wave) <= set(expected_contacts)
            sizes.append(len(wave))
            run.feed([answers[pid] for pid in wave])
        assert run.contacted == expected_contacts
        assert run.results() == expected_results
        assert sum(sizes) == len(expected_contacts)
        assert run.waves == len(sizes)
        assert run.stopped_early == (len(expected_contacts) < len(ranking))

    @given(
        answers=st.lists(_answers, max_size=40),
        k=st.integers(1, 12),
        group_size=st.integers(2, 8),
        policy=st.sampled_from(sorted(POLICIES)),
    )
    @settings(max_examples=100, deadline=None)
    def test_group_size_is_a_floor_under_the_wave(self, answers, k, group_size, policy):
        ranking = [(pid, float(len(answers) - pid)) for pid in range(len(answers))]
        sequential, _ = sequential_reference(
            ranking, answers, k, POLICIES[policy]().begin(0, k)
        )
        run = SearchRun(ranking, k, POLICIES[policy]().begin(0, k), group_size)
        while wave := run.next_wave():
            left = len(ranking) - len(run.contacted)
            assert len(wave) >= min(group_size, left)
            run.feed([answers[pid] for pid in wave])
        # Speculation may overshoot the stopping point, never fall short.
        assert run.contacted[: len(sequential)] == sequential

    def test_three_committed_contacts_cost_one_round(self):
        # p = 2 and nothing held yet: eq. 4 is committed to p + 1 peers —
        # the one that completes the k documents and a whole streak after.
        ranking = [(pid, 10.0 - pid) for pid in range(10)]
        answers = {0: [RankedDoc("a", 1.0), RankedDoc("b", 0.5)]}
        run = SearchRun(ranking, 2, AdaptiveStopping().begin(10, 2))
        waves = []
        while wave := run.next_wave():
            waves.append(wave)
            run.feed([answers.get(pid, []) for pid in wave])
        assert waves == [[0, 1, 2]]
        assert run.stopped_early

    def test_feed_wants_one_response_per_peer(self):
        run = SearchRun([(0, 1.0), (1, 0.5)], 1, NeverStop())
        assert run.next_wave() == [0, 1]
        with pytest.raises(ValueError):
            run.feed([[]])

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchRun([], 0, NeverStop())


class TestEvaluationMetrics:
    def test_recall_precision(self):
        from repro.ranking.evaluation import precision, recall

        relevant = {"a", "b", "c", "d"}
        presented = ["a", "b", "x"]
        assert recall(presented, relevant) == pytest.approx(0.5)
        assert precision(presented, relevant) == pytest.approx(2 / 3)

    def test_edge_cases(self):
        from repro.ranking.evaluation import precision, recall

        assert recall(["x"], set()) == 1.0
        assert precision([], {"a"}) == 1.0

    def test_averaging(self):
        from repro.corpus.queries import Query
        from repro.ranking.evaluation import average_recall_precision

        q1 = Query("q1", ("t",), frozenset({"a", "b"}))
        q2 = Query("q2", ("t",), frozenset({"c"}))
        avg_r, avg_p = average_recall_precision(
            [(q1, ["a"]), (q2, ["c", "x"])]
        )
        assert avg_r == pytest.approx((0.5 + 1.0) / 2)
        assert avg_p == pytest.approx((1.0 + 0.5) / 2)

    def test_empty_average_raises(self):
        from repro.ranking.evaluation import average_recall_precision

        with pytest.raises(ValueError):
            average_recall_precision([])

"""Tests for the navigation predictor and background prefetcher."""

import pytest

from repro.http import Request, URL
from repro.speedkit import NavigationPredictor, Prefetcher
from repro.speedkit import prefetch as prefetch_module
from repro.speedkit.prefetch import MAX_PREDICTIONS, url_for_state

from tests.speedkit.conftest import run


class TestNavigationPredictor:
    def test_no_history_no_predictions(self):
        predictor = NavigationPredictor()
        assert predictor.predict("home:") == []

    def test_transition_probabilities(self):
        predictor = NavigationPredictor()
        for _ in range(3):
            predictor.observe("home:", "category:shoes")
        predictor.observe("home:", "product:p1")
        predictions = dict(predictor.predict("home:"))
        assert predictions["category:shoes"] == pytest.approx(0.75)
        assert predictions["product:p1"] == pytest.approx(0.25)

    def test_first_navigation_has_no_previous(self):
        predictor = NavigationPredictor()
        predictor.observe(None, "home:")
        assert predictor.observations == 1
        assert predictor.predict("home:") == []

    def test_max_predictions_cap(self):
        predictor = NavigationPredictor()
        for target in ("a", "b", "c", "d"):
            predictor.observe("home:", f"product:{target}")
        assert len(predictor.predict("home:")) == MAX_PREDICTIONS == 3

    def test_max_predictions_is_read_at_use(self, monkeypatch):
        predictor = NavigationPredictor()
        for target in ("a", "b", "b", "c", "c", "c"):
            predictor.observe("home:", f"product:{target}")
        monkeypatch.setattr(prefetch_module, "MAX_PREDICTIONS", 2)
        assert predictor.predict("home:") == [
            ("product:c", pytest.approx(0.5)),
            ("product:b", pytest.approx(1 / 3)),
        ]


class TestUrlForState:
    def test_known_states(self):
        assert url_for_state("home:").path == "/"
        assert url_for_state("category:shoes").path == "/category/shoes"
        assert url_for_state("product:p7").path == "/product/p7"

    def test_unknown_states(self):
        assert url_for_state("mystery:x") is None
        assert url_for_state("category:") is None


class TestPrefetcher:
    def test_prefetch_warms_sw_cache(self, env, make_worker):
        worker = make_worker()
        predictor = NavigationPredictor()
        # Train: from product p1 people overwhelmingly go to p2.
        for _ in range(5):
            predictor.observe("product:1", "product:2")
        prefetcher = Prefetcher(worker, predictor)

        prefetcher.on_navigation("product", "1")
        env.run(until=env.now + 5.0)  # let the background fetch finish
        assert prefetcher.prefetches_issued == 1
        # The predicted page is now served from the SW cache instantly.
        start = env.now
        response = run(env, worker.fetch(Request.get(URL.parse("/product/2"))))
        assert response.served_by == "sw:client"
        assert env.now == start

    def test_low_confidence_not_prefetched(self, env, make_worker):
        worker = make_worker()
        predictor = NavigationPredictor()
        # Six equally likely successors: 1/6 each, below MIN_CONFIDENCE.
        for target in ("2", "3", "4", "5", "6", "7"):
            predictor.observe("product:1", f"product:{target}")
        prefetcher = Prefetcher(worker, predictor)
        prefetcher.on_navigation("product", "1")
        assert prefetcher.prefetches_issued == 0

    def test_min_confidence_is_read_at_use(
        self, env, make_worker, monkeypatch
    ):
        monkeypatch.setattr(prefetch_module, "MIN_CONFIDENCE", 0.1)
        worker = make_worker()
        predictor = NavigationPredictor()
        for target in ("2", "3", "4", "5", "6", "7"):
            predictor.observe("product:1", f"product:{target}")
        prefetcher = Prefetcher(worker, predictor)
        prefetcher.on_navigation("product", "1")
        env.run(until=env.now + 5.0)
        # 1/6 now clears the bar; the predictor still offers only
        # MAX_PREDICTIONS successors.
        assert prefetcher.prefetches_issued == MAX_PREDICTIONS

    def test_navigation_chain_trains_model(self, env, make_worker):
        worker = make_worker()
        prefetcher = Prefetcher(worker, NavigationPredictor())
        prefetcher.on_navigation("home", "")
        prefetcher.on_navigation("category", "shoes")
        prefetcher.on_navigation("product", "1")
        env.run(until=env.now + 5.0)
        predictions = prefetcher.predictor.predict("home:")
        assert predictions[0][0] == "category:shoes"

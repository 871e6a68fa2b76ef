import pytest

from stats import summarize


def test_highest_percentile_with_ten_samples_beyond():
    s = summarize(range(1, 501))
    # p99 would leave 5 samples beyond it, p98 leaves exactly 10
    assert s["p_hi_pct"] == 98.0
    assert s["p_hi"] == 490
    assert s["p50"] == 250.5
    assert (s["n"], s["max"]) == (500, 500)


def test_median_is_the_highest_supported_percentile_at_twenty_samples():
    s = summarize(range(20, 0, -1))
    assert (s["p_hi_pct"], s["p_hi"]) == (50.0, 10)


def test_too_few_samples_report_median_and_max():
    s = summarize([0.5, 3.0, 1.0, 2.0, 9.0])
    assert s == {"n": 5, "p50": 2.0, "p_hi": 9.0, "p_hi_pct": 100.0, "max": 9.0}
    assert summarize(range(19))["p_hi_pct"] == 100.0


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        summarize([])

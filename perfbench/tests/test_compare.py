"""The compare tool's verdicts follow the rule in its docstring."""

from compare import verdict

PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]


def test_a_clear_win_is_improved():
    assert verdict(PARENT, [p * 0.8 for p in PARENT], "lower", 0.1) == "improved"
    assert verdict(PARENT, [p * 1.2 for p in PARENT], "higher", 0.1) == "improved"


def test_worse_by_more_than_the_bound_is_worse():
    assert verdict(PARENT, [p * 1.2 for p in PARENT], "lower", 0.1) == "worse"


def test_small_moves_are_unchanged():
    assert verdict(PARENT, [p * 1.03 for p in PARENT], "lower", 0.1) == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [1.0, 1.5, 0.8, 1.3, 0.9, 1.2, 0.7, 1.4, 1.0, 1.1]
    assert verdict(noisy, list(reversed(noisy)), "lower", 0.1) == "unresolved"


def test_metrics_without_a_bound_need_nine_tenths_of_the_pairs():
    assert verdict(PARENT, [p * 1.2 for p in PARENT], "lower", None) == "worse"
    mixed = [p * (1.2 if i % 2 else 0.8) for i, p in enumerate(PARENT)]
    assert verdict(PARENT, mixed, "lower", None) == "unchanged"

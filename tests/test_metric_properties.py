"""Property tests: auroc and auprc equal their brute-force oracles
exactly, on score vectors drawn with ties, constant scores and a
single positive."""

from hypothesis import given, settings
from hypothesis import strategies as st

from notemort.traineval import auprc, auroc

from oracles import auprc_sweep, auroc_pairwise

# deterministic and without an example database, like the rest of the suite
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def scored_labels(draw, min_pos=1, max_pos=None, max_levels=None):
    """(scores, labels) with at least one negative and min_pos positives.

    Scores are drawn from a few levels so that many of them tie."""
    n = draw(st.integers(min_value=min_pos + 1, max_value=40))
    levels = draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=1,
        max_size=max_levels or n,
    ))
    scores = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    n_pos = draw(st.integers(min_value=min_pos, max_value=min(max_pos or n - 1, n - 1)))
    labels = draw(st.permutations([1] * n_pos + [0] * (n - n_pos)))
    return scores, list(labels)


@PROPERTY
@given(scored_labels())
def test_auroc_equals_pairwise_oracle(case):
    scores, labels = case
    assert auroc(scores, labels) == auroc_pairwise(scores, labels)


@PROPERTY
@given(scored_labels())
def test_auprc_equals_sweep_oracle(case):
    scores, labels = case
    assert auprc(scores, labels) == auprc_sweep(scores, labels)


@PROPERTY
@given(scored_labels(max_levels=1))
def test_constant_scores(case):
    scores, labels = case
    assert auroc(scores, labels) == auroc_pairwise(scores, labels) == 0.5
    prevalence = sum(labels) / len(labels)
    assert auprc(scores, labels) == auprc_sweep(scores, labels) == prevalence


@PROPERTY
@given(scored_labels(max_pos=1))
def test_single_positive(case):
    scores, labels = case
    positive = scores[labels.index(1)]
    negatives = [s for s, y in zip(scores, labels) if y == 0]
    below = sum(s < positive for s in negatives)
    tied = sum(s == positive for s in negatives)
    assert auroc(scores, labels) == auroc_pairwise(scores, labels)
    assert auroc(scores, labels) == (below + 0.5 * tied) / len(negatives)
    # the positive is found once every score at or above its own is taken
    assert auprc(scores, labels) == auprc_sweep(scores, labels)
    assert auprc(scores, labels) == 1.0 / sum(s >= positive for s in scores)

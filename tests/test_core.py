"""Tests for similarity, prototype discovery, losses, and baselines."""

import math

import numpy as np
import pytest

from codiscover import (
    DiscoveryHead,
    OpenVocabClassifier,
    TextEmbeddingTable,
    baseline_max_size,
    baseline_region_word,
    head_forward,
    heuristic_picks,
    similarity_rows,
    text_guide_weights,
)
from codiscover.core import (
    concept_guide,
    head_backward,
    sigmoid,
    similarity_backward,
    softplus,
    sorted_blocks,
)

from oracles import image_text_loss, region_word_loss, text_guided_similarity, unit_rows


def single_query_rows(query, supports, w_bar):
    """Similarity rows (1, n, m*n) of one query against its supports."""
    _, rows = similarity_rows(unit_rows(np.asarray(query, dtype=float), "query")[None],
                              unit_rows(np.asarray(supports, dtype=float), "support")[None],
                              np.asarray(w_bar, dtype=float))
    return rows


# ------------------------------------------------------------ scalar helpers


def test_softplus_matches_reference_and_survives_extremes():
    xs = np.array([-1000.0, -5.0, 0.0, 5.0, 1000.0])
    out = softplus(xs)
    assert np.all(np.isfinite(out))
    assert out[2] == pytest.approx(math.log(2.0), abs=1e-15)
    assert out[4] == pytest.approx(1000.0, abs=1e-12)
    assert out[0] == pytest.approx(0.0, abs=1e-12)
    for x in (-3.0, -0.5, 0.7, 4.0):
        assert softplus(x) == pytest.approx(math.log1p(math.exp(x)), abs=1e-14)


def test_sigmoid_matches_reference_and_survives_extremes():
    xs = np.array([-1000.0, -2.0, 0.0, 2.0, 1000.0])
    out = sigmoid(xs)
    assert np.all((out >= 0.0) & (out <= 1.0))
    assert out[2] == 0.5
    for x, y in zip(xs[1:4], out[1:4]):
        assert y == pytest.approx(1.0 / (1.0 + math.exp(-x)), abs=1e-14)
    assert sigmoid(np.array([[1.0], [-1.0]])).shape == (2, 1)


# ------------------------------------------------------------- text guidance


def test_text_guide_weights_norm_and_uniform_case():
    rng = np.random.default_rng(0)
    for d in (2, 7, 33):
        w = rng.standard_normal(d)
        bar = text_guide_weights(w)
        assert np.all(bar >= 0.0)
        # [TRIVIAL] the profile is scaled to L2 norm sqrt(d) by construction.
        assert np.linalg.norm(bar) == pytest.approx(np.sqrt(d), abs=1e-12)
        assert np.allclose(bar, text_guide_weights(3.0 * w), rtol=1e-12, atol=0.0)
    # Uniform magnitudes collapse the profile to all-ones.
    assert np.allclose(text_guide_weights(np.array([0.5, -0.5, 0.5])), 1.0, atol=1e-15)
    with pytest.raises(ValueError, match="zero vector"):
        text_guide_weights(np.zeros(4))


def test_guides_work_along_the_last_axis():
    # A (3, d) block of embeddings gives the guides of its rows, bit for bit.
    rng = np.random.default_rng(6)
    w = rng.standard_normal((3, 33))
    for guided in (True, False):
        block = concept_guide(w, guided)
        assert block.shape == w.shape
        for r in range(3):
            assert np.array_equal(block[r], concept_guide(w[r], guided))
    for r in range(3):
        assert np.array_equal(text_guide_weights(w)[r], text_guide_weights(w[r]))
    # The similarity and its backward under a (Q, 1, d) guide per query equal
    # each query's own call under its (d,) guide.
    query = unit_rows(rng.standard_normal((3, 4, 33)), "query")
    support = unit_rows(rng.standard_normal((3, 2, 4, 33)), "support")
    drows = rng.standard_normal((3, 4, 8))
    guide = text_guide_weights(w)[:, None, :]
    qw, rows = similarity_rows(query, support, guide)
    dquery, dsupport = similarity_backward(drows, qw, support, guide)
    for q in range(3):
        one = slice(q, q + 1)
        qw_q, rows_q = similarity_rows(query[one], support[one], guide[q, 0])
        assert np.allclose(rows[q], rows_q[0], rtol=0.0, atol=1e-15)
        dq, ds = similarity_backward(drows[one], qw_q, support[one], guide[q, 0])
        assert np.allclose(dquery[q], dq[0], rtol=0.0, atol=1e-14)
        assert np.allclose(dsupport[q], ds[0], rtol=0.0, atol=1e-14)
    w[1] = 0.0
    for guide_of in (text_guide_weights, concept_guide):
        with pytest.raises(ValueError, match="zero vector"):
            guide_of(w)


def test_text_guided_similarity_hand_case():
    # [DERIVED] f_i normalizes to (0.6, 0.8); with w_bar = (1, 1) the result is
    # 0.6*1 + 0.8*0 = 0.6.
    f_i = np.array([3.0, 4.0])
    f_j = np.array([2.0, 0.0])
    w_bar = text_guide_weights(np.array([5.0, -5.0]))
    assert np.array_equal(w_bar, [1.0, 1.0])
    assert text_guided_similarity(f_i, f_j, w_bar) == pytest.approx(0.6, abs=1e-15)


def test_text_guided_similarity_bound_and_errors():
    rng = np.random.default_rng(1)
    for _ in range(200):
        d = int(rng.integers(2, 20))
        f_i = rng.standard_normal(d) + 0.01
        f_j = rng.standard_normal(d) + 0.01
        w_bar = text_guide_weights(rng.standard_normal(d))
        s = text_guided_similarity(f_i, f_j, w_bar)
        # [DERIVED] |s| <= ||w_bar||_2 * ||hadamard||_2 <= sqrt(d) by
        # Cauchy-Schwarz with unit-normalized inputs.
        assert abs(s) <= np.sqrt(d) + 1e-12
    with pytest.raises(ValueError, match="zero vector"):
        text_guided_similarity(np.zeros(3), np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        text_guided_similarity(np.ones(3), np.ones(3), np.ones(4))


def test_similarity_rows_layout_and_scalar_agreement():
    query = np.array([[2.0, 0.0], [0.0, 0.5]])
    support_a = np.array([[1.0, 0.0], [0.0, 1.0]])
    support_b = np.array([[0.0, 3.0], [4.0, 0.0]])
    rows = single_query_rows(query, [support_a, support_b], np.array([1.0, 1.0]))
    # [DERIVED] cosine layout: block k occupies columns [k*n, (k+1)*n).
    assert np.array_equal(rows, [[[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]]])
    # Entry-wise agreement with the scalar definition, for Q=2 queries with
    # their own supports in one call.
    rng = np.random.default_rng(2)
    query = rng.standard_normal((2, 3, 4)) + 0.1
    supports = rng.standard_normal((2, 2, 3, 4)) + 0.1
    w_bar = text_guide_weights(rng.standard_normal(4))
    qw, rows = similarity_rows(unit_rows(query, "query"), unit_rows(supports, "support"), w_bar)
    assert rows.shape == (2, 3, 6)
    assert np.allclose(qw, unit_rows(query, "query") * w_bar, rtol=0.0, atol=1e-15)
    for q in range(2):
        for i in range(3):
            for k in range(2):
                for j in range(3):
                    expect = text_guided_similarity(query[q, i], supports[q, k, j], w_bar)
                    assert rows[q, i, k * 3 + j] == pytest.approx(expect, abs=1e-12)


def test_similarity_rows_errors():
    w_bar = np.ones(2)
    with pytest.raises(ValueError, match="at least one support"):
        similarity_rows(np.ones((1, 2, 2)), np.ones((1, 0, 2, 2)), w_bar)
    with pytest.raises(ValueError, match="do not match queries"):
        similarity_rows(np.ones((1, 2, 2)), np.ones((1, 1, 3, 2)), w_bar)
    with pytest.raises(ValueError, match="do not match queries"):
        similarity_rows(np.ones((2, 2, 2)), np.ones((1, 1, 2, 2)), w_bar)
    with pytest.raises(ValueError, match="zero feature row"):
        single_query_rows(np.array([[1.0, 1.0], [0.0, 0.0]]), [np.ones((2, 2))], w_bar)


def test_similarity_matrix_validation():
    # head_forward takes (Q, n, m*n) rows and rejects a non-finite entry.
    head = DiscoveryHead.initialize(m=2, n=2, hidden=3, rng=np.random.default_rng(7))
    assert head_forward(np.zeros((3, 2, 4)), head).p.shape == (3, 2)
    with pytest.raises(ValueError, match="non-finite"):
        head_forward(np.array([[[np.nan, 0.0, 0.0, 0.0], [0.0] * 4]]), head)


# ---------------------------------------------------------------- discovery


def test_head_forward_hand_case():
    # One support (m=1), two proposals. With w1 = [[ln 3, 0]], zero biases,
    # and w2 = [1], rows S = [[1, 0], [0, 0]] give logits (ln 3, 0), hence
    # p = (3, 1)/4 exactly.  [DERIVED]
    head = DiscoveryHead(w1=[[math.log(3.0), 0.0]], b1=[0.0], w2=[1.0], b2=[0.0])
    features = np.array([[2.0, 0.0], [0.0, 4.0]])
    p = head_forward(np.array([[[1.0, 0.0], [0.0, 0.0]]]), head).p[0]
    assert p == pytest.approx([0.75, 0.25], abs=1e-15)
    assert p @ features == pytest.approx([1.5, 1.0], abs=1e-15)


def test_head_forward_weights_pool_raw_features():
    head = DiscoveryHead(w1=[[0.0, 0.0]], b1=[0.0], w2=[1.0], b2=[0.0])
    features = np.array([[10.0, 0.0], [0.0, 30.0]])
    # Two queries in one call; a zero head gives each uniform weights, which
    # pool the raw (not normalized) rows.
    p = head_forward(np.zeros((2, 2, 2)), head).p
    assert p == pytest.approx(np.full((2, 2), 0.5), abs=1e-15)
    assert p[1] @ features == pytest.approx([5.0, 15.0], abs=1e-15)


def test_prototype_simplex_and_hull_properties():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        head = DiscoveryHead.initialize(m, n, hidden=int(rng.integers(1, 9)), rng=rng)
        values = rng.standard_normal((n, m * n)) * rng.uniform(0.5, 3.0)
        features = rng.standard_normal((n, 4)) + 0.05
        p = head_forward(values[None], head).p[0]
        f_p = p @ features
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(p > 0.0)
        lo = features.min(axis=0) - 1e-9
        hi = features.max(axis=0) + 1e-9
        assert np.all(f_p >= lo) and np.all(f_p <= hi)


def test_head_forward_sorted_rows_orders_each_block():
    head = DiscoveryHead.initialize(m=2, n=3, hidden=4,
                                    rng=np.random.default_rng(4), sorted_rows=True)
    values = np.array([
        [3.0, 1.0, 2.0, 0.5, 0.6, 0.4],
        [1.0, 1.0, 1.0, 9.0, 7.0, 8.0],
        [2.0, 5.0, 4.0, 0.1, 0.3, 0.2],
    ])
    sorted_pass = head_forward(values[None], head)
    net, perm = sorted_pass.net, sorted_pass.perm
    assert np.array_equal(net[0], [3.0, 2.0, 1.0, 0.6, 0.5, 0.4])
    assert np.array_equal(net[1], [1.0, 1.0, 1.0, 9.0, 8.0, 7.0])
    assert np.array_equal(net[2], [5.0, 4.0, 2.0, 0.3, 0.2, 0.1])
    assert perm.shape == (1, 3, 2, 3)
    # Sorting is a per-row permutation: feeding pre-sorted rows through an
    # unsorted head of identical weights gives identical outputs.
    plain = DiscoveryHead(head.w1, head.b1, head.w2, head.b2, sorted_rows=False)
    plain_pass = head_forward(net[None], plain)
    assert np.array_equal(sorted_pass.p, plain_pass.p)


def test_sorted_head_matches_along_axis_reference():
    # Q=5 queries, m=3 supports of n=4 proposals, with tied entries.
    rng = np.random.default_rng(8)
    head = DiscoveryHead.initialize(m=3, n=4, hidden=6, rng=rng, sorted_rows=True)
    rows = np.round(rng.standard_normal((5, 4, 12)), 1)
    fwd = head_forward(rows, head)
    blocks = rows.reshape(5, 4, 3, 4)
    order = np.argsort(-blocks, axis=3)
    assert np.array_equal(fwd.net, np.take_along_axis(blocks, order, axis=3).reshape(20, 12))
    assert fwd.perm.shape == (5, 4, 3, 4)
    assert np.array_equal(rows.reshape(-1)[fwd.perm], fwd.net.reshape(fwd.perm.shape))
    dp = rng.standard_normal((5, 4))
    drows = head_backward(fwd, dp, head)[0]
    plain = DiscoveryHead(head.w1, head.b1, head.w2, head.b2, sorted_rows=False)
    dsorted = head_backward(head_forward(fwd.net.reshape(5, 4, 12), plain), dp, plain)[0]
    want = np.empty(blocks.shape)
    np.put_along_axis(want, order, dsorted.reshape(blocks.shape), axis=3)
    assert np.array_equal(drows, want.reshape(rows.shape))


def test_head_backward_refuses_a_sorted_pass_given_its_blocks():
    # Given sorted_blocks(rows), a sorted head's forward keeps no permutation,
    # so its gradients could only come back in sorted-block order.
    rng = np.random.default_rng(8)
    head = DiscoveryHead.initialize(m=3, n=4, hidden=6, rng=rng, sorted_rows=True)
    rows = rng.standard_normal((5, 4, 12))
    fwd = head_forward(rows, head, sorted_blocks(rows))
    assert np.array_equal(fwd.p, head_forward(rows, head).p)
    with pytest.raises(ValueError, match="^a sorted head's pass given sorted blocks cannot be "
                                         "reversed$"):
        head_backward(fwd, rng.standard_normal((5, 4)), head)


def test_head_forward_shape_and_finiteness_errors():
    head = DiscoveryHead.initialize(m=1, n=2, hidden=2, rng=np.random.default_rng(5))
    with pytest.raises(ValueError, match="head input"):
        head_forward(np.zeros((1, 2, 3)), head)
    with pytest.raises(ValueError, match=r"not \(Q, n, m\*n\)"):
        head_forward(np.zeros((2, 2)), head)
    sorted_head = DiscoveryHead.initialize(m=1, n=2, hidden=2,
                                           rng=np.random.default_rng(5),
                                           sorted_rows=True)
    with pytest.raises(ValueError, match="multiple"):
        head_forward(np.zeros((1, 3, 2)), sorted_head)
    big = DiscoveryHead(w1=np.full((1, 2), 1e200), b1=[0.0], w2=[1e200], b2=[0.0])
    with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                   match="non-finite prototype logits"):
        head_forward(np.full((1, 2, 2), 1e200), big)


@pytest.mark.parametrize("sorted_rows", [False, True])
def test_similarity_and_head_backward_match_central_differences(sorted_rows):
    # Scalar probe L = sum(c * p) over Q=3 queries, m=2 supports, n=4, d=5.
    rng = np.random.default_rng(12)
    head = DiscoveryHead.initialize(m=2, n=4, hidden=6, rng=rng, sorted_rows=sorted_rows)
    query = rng.standard_normal((3, 4, 5))
    support = rng.standard_normal((3, 2, 4, 5))
    guide = text_guide_weights(rng.standard_normal(5))
    c = rng.standard_normal((3, 4))

    def probe():
        return float(np.sum(c * head_forward(similarity_rows(query, support, guide)[1],
                                             head).p))

    qw, rows = similarity_rows(query, support, guide)
    fwd = head_forward(rows, head)
    drows, dw1, db1, dw2, db2 = head_backward(fwd, c, head)
    dquery, dsupport = similarity_backward(drows, qw, support, guide)
    for param, grad in ((query, dquery), (support, dsupport), (head.w1, dw1),
                        (head.b1, db1), (head.w2, dw2)):
        for flat in rng.choice(param.size, size=6, replace=False):
            original = param.flat[flat]
            param.flat[flat] = original + 1e-6
            plus = probe()
            param.flat[flat] = original - 1e-6
            minus = probe()
            param.flat[flat] = original
            assert grad.flat[flat] == pytest.approx((plus - minus) / 2e-6, abs=1e-7)
    # The softmax is shift-invariant, so the output bias gets no gradient.
    assert db2 == pytest.approx([0.0], abs=1e-12)


def test_discovery_head_validation_and_init_statistics():
    with pytest.raises(ValueError, match="shapes"):
        DiscoveryHead(w1=np.zeros((3, 4)), b1=np.zeros(2), w2=np.zeros(3), b2=[0.0])
    with pytest.raises(ValueError, match="finite"):
        DiscoveryHead(w1=[[np.inf]], b1=[0.0], w2=[1.0], b2=[0.0])
    with pytest.raises(ValueError, match=r"^head dimensions hidden=0, in_dim=4 must be >= 1$"):
        DiscoveryHead(w1=np.zeros((0, 4)), b1=np.zeros(0), w2=np.zeros(0), b2=[0.0])
    with pytest.raises(ValueError, match=r"^head dimensions hidden=3, in_dim=0 must be >= 1$"):
        DiscoveryHead(w1=np.zeros((3, 0)), b1=np.zeros(3), w2=np.zeros(3), b2=[0.0])
    head = DiscoveryHead.initialize(m=4, n=8, hidden=256, rng=np.random.default_rng(6))
    assert (head.hidden, head.in_dim) == (256, 32)
    assert np.array_equal(head.b1, np.zeros(256))
    assert np.array_equal(head.b2, np.zeros(1))
    # He scaling: sample std within 10% of sqrt(2/fan_in) at this size.
    assert head.w1.std() == pytest.approx(np.sqrt(2.0 / 32), rel=0.1)
    assert head.w2.std() == pytest.approx(np.sqrt(2.0 / 256), rel=0.1)


# ------------------------------------------------------------------- losses


def test_open_vocab_classifier_validation():
    eye = np.eye(3)
    clf = OpenVocabClassifier(eye, [4, 7, 9])
    assert clf.row_of == {4: 0, 7: 1, 9: 2}
    with pytest.raises(ValueError, match="one row per concept"):
        OpenVocabClassifier(eye, [4, 7])
    with pytest.raises(ValueError, match="unit-normalized"):
        OpenVocabClassifier(2.0 * eye, [4, 7, 9])
    with pytest.raises(ValueError, match="unit-normalized"):
        OpenVocabClassifier(np.where(eye == 1.0, np.nan, eye), [4, 7, 9])
    with pytest.raises(ValueError, match="duplicate"):
        OpenVocabClassifier(eye, [4, 4, 9])
    table = TextEmbeddingTable({0: np.array([3.0, 4.0]), 1: np.array([0.0, 2.0])})
    from_table = OpenVocabClassifier.from_table(table, [0, 1])
    assert np.allclose(from_table.weights, [[0.6, 0.8], [0.0, 1.0]], atol=1e-15)


def test_region_word_loss_matches_naive_bce():
    # Identity classifier makes the logit vector equal f_p, so arbitrary
    # logits are injectable. [DERIVED] oracle: -log(sig(s_c)) - sum log(1-sig).
    k = 9
    clf = OpenVocabClassifier(np.eye(k), list(range(k)))
    rng = np.random.default_rng(8)
    for _ in range(300):
        logits = rng.uniform(-10.0, 10.0, size=k)
        cid = int(rng.integers(k))
        naive = -math.log(1.0 / (1.0 + math.exp(-logits[cid])))
        for j in range(k):
            if j != cid:
                naive -= math.log(1.0 - 1.0 / (1.0 + math.exp(-logits[j])))
        assert region_word_loss(logits, clf, cid) == pytest.approx(naive, abs=1e-9)


def test_region_word_loss_zero_logits_equals_k_ln2():
    k = 6
    clf = OpenVocabClassifier(np.eye(k), list(range(k)))
    # [DERIVED] all-zero logits: softplus(0) per vocabulary entry = K ln 2.
    assert region_word_loss(np.zeros(k), clf, 2) == pytest.approx(
        k * math.log(2.0), abs=1e-12
    )
    with pytest.raises(ValueError, match="not in classifier"):
        region_word_loss(np.zeros(k), clf, 99)


def test_region_word_loss_extreme_logits_stay_finite():
    clf = OpenVocabClassifier(np.eye(2), [0, 1])
    # [DERIVED] s = (+40, -40): loss = softplus(-40) + softplus(-40), each
    # ~4.25e-18. Folding through the softplus(40) = 40.0 sum may absorb the
    # tiny terms entirely, so the stable evaluation lands in [0, 1e-15].
    loss = region_word_loss(np.array([40.0, -40.0]), clf, 0)
    assert 0.0 <= loss < 1e-15
    assert math.isfinite(loss)


def test_image_text_loss_hand_case_and_errors():
    v = np.array([[1.0, 0.0], [0.0, 5.0]])
    t = np.array([[2.0, 0.0], [0.0, 1.0]])
    # [DERIVED] orthonormal pairs at temperature tau: logits = tau*I; each row
    # contributes softplus(-tau) + softplus(0), averaged over B=2 rows.
    tau = 3.0
    expect = softplus(-tau) + math.log(2.0)
    assert image_text_loss(v, t, temperature=tau) == pytest.approx(expect, abs=1e-12)
    # Single pair accepts 1-D input; cos = 1 so loss = softplus(-tau).
    assert image_text_loss(np.array([2.0, 0.0]), np.array([1.0, 0.0]),
                           temperature=tau) == pytest.approx(float(softplus(-tau)),
                                                             abs=1e-15)
    with pytest.raises(ValueError, match="matching shapes"):
        image_text_loss(np.ones((2, 3)), np.ones((2, 2)))
    with pytest.raises(ValueError, match="zero feature row"):
        image_text_loss(np.zeros((1, 2)), np.ones((1, 2)))


def test_image_text_loss_matches_naive_reference():
    rng = np.random.default_rng(9)
    for _ in range(50):
        b, d = int(rng.integers(1, 6)), int(rng.integers(2, 5))
        v = rng.standard_normal((b, d)) + 0.05
        t = rng.standard_normal((b, d)) + 0.05
        tau = float(rng.uniform(0.5, 12.0))
        vn = v / np.linalg.norm(v, axis=1, keepdims=True)
        tn = t / np.linalg.norm(t, axis=1, keepdims=True)
        total = 0.0
        for a in range(b):
            for c in range(b):
                logit = tau * float(vn[a] @ tn[c])
                if a == c:
                    total += math.log(1.0 + math.exp(-logit))
                else:
                    total += math.log(1.0 + math.exp(logit))
        assert image_text_loss(v, t, tau) == pytest.approx(total / b, abs=1e-9)


# ---------------------------------------------------------------- baselines


def test_heuristic_picks_hand_case_and_ties():
    # [DERIVED] row maxima per support: row0 -> (4, 0), row1 -> (1, 2);
    # means (2.0, 1.5) so region 0 wins. The second query has region 1 win.
    values = np.array([[[4.0, -1.0, 0.0, -2.0], [1.0, 0.0, 2.0, 1.0]],
                       [[0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]])
    assert np.array_equal(heuristic_picks(values), [0, 1])
    tie = np.array([[[1.0, 0.0], [1.0, 0.0]]])
    assert np.array_equal(heuristic_picks(tie), [0])  # lowest index wins ties


def test_heuristic_from_sorted_blocks_matches_brute_force_with_ties():
    # Small integer similarities make exact ties between regions common; the
    # lowest index must win, from rows or from the shared sorted blocks.
    rng = np.random.default_rng(12)
    for _ in range(50):
        q, n, m = (int(v) for v in rng.integers(1, 6, size=3))
        rows = rng.integers(-2, 3, size=(q, n, m * n)).astype(np.float64)
        blocks = sorted_blocks(rows)
        assert np.array_equal(blocks, -np.sort(-rows.reshape(q, n, m, n), axis=3))
        want = []
        for query in rows:
            best, best_score = 0, -math.inf
            for i in range(n):
                score = sum(max(query[i, k * n:(k + 1) * n]) for k in range(m)) / m
                if score > best_score:
                    best, best_score = i, score
            want.append(best)
        assert np.array_equal(heuristic_picks(rows), want)
        assert np.array_equal(heuristic_picks(rows, blocks), want)
    # Regions 1 and 2 tie on the mean of their support maxima (2.0).
    tie = np.array([[[0.0, 1.0, 0.0, 1.0, 0.0, 0.0],
                     [3.0, 1.0, 0.0, 1.0, 0.0, 0.0],
                     [0.0, 2.0, 0.0, 0.0, 0.0, 2.0]]])
    assert np.array_equal(heuristic_picks(tie, sorted_blocks(tie)), [1])


def test_head_forward_reads_given_sorted_blocks():
    # A sorted head given the blocks skips argsort, gather and perm and gives
    # the training path's pass byte for byte; an unsorted head ignores them.
    rng = np.random.default_rng(13)
    rows = np.round(rng.standard_normal((6, 4, 12)), 1)
    for sorted_rows in (True, False):
        head = DiscoveryHead.initialize(m=3, n=4, hidden=8, rng=rng, sorted_rows=sorted_rows)
        full, given = head_forward(rows, head), head_forward(rows, head, sorted_blocks(rows))
        assert given.perm is None
        assert (full.perm is not None) == sorted_rows
        for a, b in zip(full[:-1], given[:-1]):  # every field but perm
            assert a.tobytes() == b.tobytes()


def test_baseline_region_word_picks_most_aligned_region():
    features = np.array([[[1.0, 1.0], [0.0, 2.0], [3.0, 0.1]],
                         [[1.0, 1.0], [0.0, -2.0], [3.0, 0.1]]])
    w_c = np.array([0.0, 7.0])
    assert np.array_equal(baseline_region_word(unit_rows(features, "query"), w_c), [1, 0])
    with pytest.raises(ValueError, match="zero vector"):
        baseline_region_word(unit_rows(features, "query"), np.zeros(2))


def test_baseline_region_word_takes_one_embedding_per_query():
    # A (Q, d) block of embeddings, one per query, picks what each query's
    # own call under its (d,) embedding picks.
    rng = np.random.default_rng(11)
    query = unit_rows(rng.standard_normal((40, 6, 9)), "query")
    w = rng.standard_normal((40, 9))
    picks = baseline_region_word(query, w)
    assert picks.shape == (40,)
    assert np.array_equal(picks, [baseline_region_word(query[q:q + 1], w[q])[0]
                                  for q in range(40)])
    # Ties break toward the lowest index within each query: regions 1 and 3
    # of query 0 and regions 0 and 2 of query 1 align equally well.
    e = np.eye(3)
    tied = np.stack([e[[2, 0, 1, 0]], e[[1, 2, 1, 0]]])
    w_tied = np.array([[5.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    assert np.array_equal(baseline_region_word(tied, w_tied), [1, 0])
    with pytest.raises(ValueError, match="zero vector"):
        baseline_region_word(query[:2], np.stack([w[0], np.zeros(9)]))


def test_baseline_max_size():
    areas = np.array([[1.0, 5.0, 2.0], [2.0, 2.0, 1.0]])
    assert np.array_equal(baseline_max_size(areas), [1, 0])  # lowest index wins ties
    with pytest.raises(ValueError, match="non-empty"):
        baseline_max_size(np.array([1.0, 5.0]))
    with pytest.raises(ValueError, match="non-empty"):
        baseline_max_size(np.ones((2, 0)))

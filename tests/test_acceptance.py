"""End-to-end acceptance checks, one test per release criterion.

Each test states its thresholds inline. The Shapley checks compare the
lattice engine against an independently coded permutation-average
oracle whose coalition values are obtained by masking and querying the
black box directly, bypassing the engine entirely.
"""

import itertools
import statistics
import sys
import time

import pytest

from motifshap import (
    BlackBox,
    ExternalBlackBox,
    Graph,
    GroundTruthScorer,
    LabeledDataset,
    LinearSurrogate,
    MaskingStrategy,
    Motif,
    MinerConfig,
    RankerConfig,
    SynthConfig,
    approx_explain,
    exact_explain,
    expected_scores,
    generate,
    is_connected,
    mine,
    pearson,
    query_budget,
    rank_and_select,
    save_motifs,
    separability,
    spearman,
    support,
)
from motifshap.graphs import edge_set_jaccard

from conftest import (
    injection_marginals,
    philox,
    random_graph,
    random_motif_set,
    scan_support,
)

RHO6 = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
RHO8 = (0.25,) * 8


def permutation_shapley(values, m):
    """Average marginal contribution over all m! unmasking orders.

    values maps each masked-set bitmask to the black-box output of the
    correspondingly masked graph; this never touches the lattice code.
    """
    totals = [0.0] * m
    full = (1 << m) - 1
    count = 0
    for perm in itertools.permutations(range(m)):
        mask = full
        for i in perm:
            before = values[mask]
            mask &= ~(1 << i)
            totals[i] += values[mask] - before
        count += 1
    return [t / count for t in totals]


class CountingScorer(BlackBox):
    """Deterministic black box that counts its evaluate() calls."""

    def __init__(self):
        self.calls = 0

    def evaluate(self, g: Graph) -> float:
        self.calls += 1
        return (g.edge_bits % 9973) / 9973.0


def _background(n, rng):
    graphs = tuple(random_graph(n, 0.3, philox(int(rng.integers(2**32))))
                   for _ in range(8))
    return LabeledDataset(n, graphs, tuple(j % 2 for j in range(8)))


def _build_instance(idx, m):
    n = 20
    rng = philox(1000 + idx)
    g = random_graph(n, 0.2 + 0.3 * float(rng.random()), rng)
    motifs = random_motif_set(n, m, 1 + idx % 3, rng)
    if idx % 2 == 0:
        bb = GroundTruthScorer(n, motifs, importances=rng.random(m))
    else:
        bb = LinearSurrogate(n, rng.normal(0.0, 0.6, n * (n - 1) // 2),
                             float(rng.normal()))
    kind = idx % 3
    if kind == 0:
        strategy = MaskingStrategy.remove()
    elif kind == 1:
        strategy = MaskingStrategy.toggle()
    else:
        strategy = MaskingStrategy.average(_background(n, rng))
    return g, motifs, bb, strategy


@pytest.fixture(scope="module")
def shapley_instances():
    """500 random instances explained by the engine and by the oracle."""
    sizes = [2] * 80 + [3] * 80 + [4] * 80 + [5] * 80 + [6] * 80 \
        + [7] * 50 + [8] * 50
    records = []
    started = time.monotonic()
    for idx, m in enumerate(sizes):
        g, motifs, bb, strategy = _build_instance(idx, m)
        exp = exact_explain(g, bb, motifs, strategy)
        values = {}
        for mask in range(1 << m):
            subset = [motifs[i] for i in range(m) if mask >> i & 1]
            values[mask] = bb.evaluate(strategy.mask(g, subset))
        oracle = permutation_shapley(values, m)
        records.append((g, motifs, bb, strategy, exp, oracle))
    elapsed = time.monotonic() - started
    return records, elapsed


def test_criterion_01_exact_scores_match_permutation_oracle(shapley_instances):
    records, elapsed = shapley_instances
    assert len(records) == 500
    worst = 0.0
    for _, _, _, _, exp, oracle in records:
        for got, want in zip(exp.scores, oracle):
            worst = max(worst, abs(got - want))
    assert worst <= 1e-9, f"largest oracle deviation {worst:.3e}"
    assert elapsed < 60.0, f"500 instances took {elapsed:.1f}s"


def test_criterion_02_scores_sum_to_the_masking_gap(shapley_instances):
    records, _ = shapley_instances
    for g, motifs, bb, strategy, exp, _ in records:
        total = sum(exp.scores)
        gap = bb.evaluate(g) - bb.evaluate(strategy.mask(g, motifs))
        assert abs(total - gap) <= 1e-9
        assert abs(total) <= 1.0 + 1e-12


def test_criterion_03_mean_scores_track_injection_strength():
    """Mean score per motif alternates sign with the class parity and
    grows in magnitude with the injection probability; the never-used
    zero-probability motif scores smallest. Checked on 30 generator
    seeds; at least 28 must show the full pattern."""
    started = time.monotonic()
    good = 0
    for seed in range(30):
        cfg = SynthConfig(n=100, n_graphs=200, density=0.2,
                          motif_spec=(6, 10), rho=RHO6, seed=seed)
        dataset, _, motifs = generate(cfg)
        bb = GroundTruthScorer(100, motifs, importances=RHO6, beta=1.0)
        strategy = MaskingStrategy.remove()
        sums = [0.0] * 6
        for g in dataset.graphs:
            for i, s in enumerate(exact_explain(g, bb, motifs, strategy).scores):
                sums[i] += s
        means = [s / len(dataset.graphs) for s in sums]
        alternates = all((means[k] > 0) == (k % 2 == 1) for k in range(1, 6))
        monotone = all(abs(means[k]) <= abs(means[k + 1]) for k in range(1, 5))
        control_smallest = all(abs(means[0]) <= abs(means[k])
                               for k in range(1, 6))
        good += alternates and monotone and control_smallest
    elapsed = time.monotonic() - started
    assert good >= 28, f"pattern held on only {good}/30 seeds"
    assert elapsed < 600.0, f"30 seeds took {elapsed:.1f}s"


def test_criterion_04_toggle_tracks_expected_scores_best():
    """Rank agreement between exact scores and the injection-derived
    expected scores: toggle reaches 0.8 and beats remove, by median
    over 10 generator seeds."""
    toggles, removes = [], []
    for seed in range(10):
        cfg = SynthConfig(n=100, n_graphs=200, density=0.2,
                          motif_spec=(6, 10), rho=RHO6, seed=seed)
        dataset, record, motifs = generate(cfg)
        bb = GroundTruthScorer(100, motifs, importances=RHO6, beta=1.0)
        table = expected_scores(record, motifs, RHO6)
        for strategy, sink in ((MaskingStrategy.toggle(), toggles),
                               (MaskingStrategy.remove(), removes)):
            xi, flat = [], []
            for j, g in enumerate(dataset.graphs):
                xi.extend(exact_explain(g, bb, motifs, strategy).scores)
                flat.extend(table.matrix[j])
            sink.append(spearman(xi, flat))
    med_toggle = statistics.median(toggles)
    med_remove = statistics.median(removes)
    assert med_toggle >= 0.8, f"toggle median {med_toggle:.4f}"
    assert med_toggle >= med_remove, \
        f"toggle {med_toggle:.4f} < remove {med_remove:.4f}"


def _correlation_matrix(pairs, v):
    m = [[1.0 if i == j else 0.0 for j in range(8)] for i in range(8)]
    for i, j in pairs:
        m[i][j] = m[j][i] = v
    return tuple(tuple(row) for row in m)


def _depth_medians(correlation, depths, memo, rho=RHO8):
    """Median and lower quartile, per depth, of the per-graph Pearson
    between depth-limited and exact scores, plus whether depth 8 equals
    the exact scores bit for bit.

    Every dataset here uses seed 0, so they share the motifs, the black
    box and the ER backgrounds, and a graph whose injections come out the
    same recurs across datasets. Explanations are deterministic in the
    graph, black box, motifs and mask, so memo caches their scores keyed
    by motifs, graph edges and depth.
    """
    cfg = SynthConfig(n=100, n_graphs=200, density=0.2, motif_spec=(8, 10),
                      rho=rho, correlation=correlation, seed=0)
    dataset, _, motifs = generate(cfg)
    bb = GroundTruthScorer(100, motifs, importances=RHO8)
    strategy = MaskingStrategy.toggle()

    def scores(g, depth):
        key = (motifs, g.edges, depth)
        if key not in memo:
            if depth == "exact":
                exp = exact_explain(g, bb, motifs, strategy)
            else:
                exp = approx_explain(g, bb, motifs, strategy, depth=depth)
            memo[key] = list(exp.scores)
        return memo[key]

    per_depth = {d: [] for d in depths}
    exact_match = True
    for g in dataset.graphs:
        exact = scores(g, "exact")
        for d in depths:
            approx = scores(g, d)
            if d == 8 and approx != exact:
                exact_match = False
            per_depth[d].append(pearson(approx, exact))
    out = {}
    for d in depths:
        vals = sorted(per_depth[d])
        out[d] = (statistics.median(vals), vals[len(vals) // 4])
    return out, exact_match


def test_criterion_05_depth_one_quality_and_correlated_variants():
    """Depth-1 scores track the exact scores closely on an 8-motif
    dataset; deepening strictly helps; the full depth is bit-identical.
    Finally, correlated motif injections must not make depth-1 scores
    converge faster than independent injections at the same rates.

    The generator injects motif k when C_k . R_j <= rho_k, so off-diagonal
    correlation mass also lowers each correlated motif's marginal rate,
    4x to 96x here. Fewer motifs per graph alone raises the depth-1
    median, so a comparison against the rho = 0.25 dataset would measure
    rate, not correlation. Each variant is therefore compared with a
    rate-matched control: an independent dataset with the same seed,
    motifs, graph count and R matrix whose rho_k is the exact marginal
    P(C_k . R <= rho_k), so the two differ only in how injections depend
    on each other.
    """
    memo = {}
    uncorr, d8_ok = _depth_medians(None, (1, 4, 8), memo)
    med1, q1 = uncorr[1]
    assert med1 >= 0.9, f"depth-1 median {med1:.4f}"
    assert q1 >= 0.8, f"depth-1 lower quartile {q1:.4f}"
    assert uncorr[4][0] > uncorr[1][0], \
        f"depth-4 median {uncorr[4][0]:.6f} vs depth-1 {uncorr[1][0]:.6f}"
    assert d8_ok, "full-depth scores must equal exact scores bit for bit"

    variants = {
        "pair-partial": _correlation_matrix([(0, 2)], 0.5),
        "pair-strong": _correlation_matrix([(0, 2)], 1.0),
        "triplet-partial": _correlation_matrix([(0, 2), (0, 4), (2, 4)], 0.5),
        "triplet-strong": _correlation_matrix([(0, 2), (0, 4), (2, 4)], 1.0),
    }
    offenders = []
    for name, corr in variants.items():
        meds, _ = _depth_medians(corr, (1,), memo)
        control, _ = _depth_medians(None, (1,), memo,
                                    rho=injection_marginals(RHO8, corr))
        if meds[1][0] > control[1][0]:
            offenders.append(f"{name} median {meds[1][0]:.6f} vs "
                             f"rate-matched {control[1][0]:.6f}")
    assert not offenders, (
        "correlated variants converged faster at depth 1 than independent "
        "datasets with the same injection rates: " + "; ".join(offenders))


def test_criterion_06_query_counts_equal_the_published_budget():
    n = 24
    all_motifs = [Motif(k, frozenset({(2 * k, 2 * k + 1)}), [-1, 1][k % 2])
                  for k in range(12)]
    g = Graph(n, [(2 * k, 2 * k + 1) for k in range(12)])
    strategy = MaskingStrategy.toggle()
    for m in (4, 8, 12):
        motifs = all_motifs[:m]
        bb = CountingScorer()
        exp = exact_explain(g, bb, motifs, strategy)
        assert bb.calls == query_budget(m, "exact") == 2 ** m
        assert exp.query_count == bb.calls
        bb = CountingScorer()
        exp = approx_explain(g, bb, motifs, strategy, depth=1)
        assert bb.calls == query_budget(m, 1) == 1 + m
        assert exp.query_count == bb.calls


def test_criterion_07_separability_grows_with_injection_probability():
    started = time.monotonic()
    for n_m, m_e in ((3, 5), (3, 10), (6, 5), (6, 10)):
        medians = []
        for rho in (0.2, 0.6, 1.0):
            ks = []
            for seed in range(30):
                cfg = SynthConfig(n=100, n_graphs=60, density=0.2,
                                  motif_spec=(n_m, m_e), rho=(rho,) * n_m,
                                  seed=seed)
                dataset, _, _ = generate(cfg)
                ks.append(separability(dataset).ks_statistic)
            medians.append(statistics.median(ks))
        assert medians[0] <= medians[1] <= medians[2], \
            f"{n_m} motifs x {m_e} edges: medians {medians}"
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"sweep took {elapsed:.1f}s"


def _mining_dataset(seed):
    rng = philox(seed)
    n = 7
    graphs = tuple(random_graph(n, 0.4, philox(int(rng.integers(2**32))))
                   for _ in range(8))
    return LabeledDataset(n, graphs, tuple(j % 2 for j in range(8)))


def _brute_force_frequent(d, threshold, max_size):
    pool = [(u, v) for u in range(d.n) for v in range(u + 1, d.n)
            if scan_support(d, [(u, v)]) >= threshold]
    found = set()
    for size in range(2, max_size + 1):
        for combo in itertools.combinations(pool, size):
            edges = frozenset(combo)
            if is_connected(edges) and scan_support(d, edges) >= threshold:
                found.add(edges)
    return found


def test_criterion_08_miner_matches_brute_force_and_selects_diverse_sets():
    threshold, max_size = 4, 4
    checked = ranked_checked = 0
    seed = 0
    while checked < 100:
        assert seed < 200, "ran out of candidate datasets"
        d = _mining_dataset(seed)
        seed += 1
        pool = [(u, v) for u in range(d.n) for v in range(u + 1, d.n)
                if support([(u, v)], d) >= threshold]
        if not 1 <= len(pool) <= 12:
            continue
        mined = mine(d, MinerConfig(support_threshold=threshold,
                                    max_size=max_size))
        assert {m.edges for m in mined} == \
            _brute_force_frequent(d, threshold, max_size)
        checked += 1
        if len(mined) < 2:
            continue
        cfg = RankerConfig(dt=0.3, st=2, k=5)
        selected = rank_and_select(mined, d, cfg)
        for m in selected:
            assert len(m.edges) >= cfg.st
        for a, b in itertools.combinations(selected, 2):
            assert edge_set_jaccard(a.edges, b.edges) >= cfg.dt
        ranked_checked += 1
    assert checked == 100
    assert ranked_checked > 20


def test_criterion_09_masking_algebra_on_random_pairs():
    strategies = (MaskingStrategy.toggle(), MaskingStrategy.remove())
    for i in range(10_000):
        rng = philox(50_000 + i)
        g = random_graph(14, 0.3, rng)
        motifs = random_motif_set(14, 1 + i % 3, 1 + i % 2, rng)
        toggled = strategies[0].mask(g, motifs)
        assert strategies[0].mask(toggled, motifs) == g
        removed = strategies[1].mask(g, motifs)
        assert strategies[1].mask(removed, motifs) == removed


def test_criterion_10_served_black_box_reproduces_explanations(tmp_path):
    n = 20
    motifs = random_motif_set(n, 3, 2, philox(77))
    rho = (0.7, 0.4, 0.9)
    path = tmp_path / "motifs.json"
    save_motifs(n, motifs, path)
    local = GroundTruthScorer(n, motifs, importances=rho)
    cmd = [sys.executable, "-m", "motifshap", "blackbox-serve",
           "--motifs", str(path), "--rho", ",".join(map(str, rho))]
    strategy = MaskingStrategy.toggle()
    with ExternalBlackBox(cmd, timeout=30.0) as remote:
        for seed in range(50):
            g = random_graph(n, 0.35, philox(300 + seed))
            want = exact_explain(g, local, motifs, strategy).scores
            got = exact_explain(g, remote, motifs, strategy).scores
            for a, b in zip(got, want):
                assert abs(a - b) <= 1e-9

import hashlib
import math

import numpy as np
import pytest

from motifshap import (
    InjectionRecord,
    MinerConfig,
    Motif,
    ParameterError,
    SynthConfig,
    erdos_renyi,
    generate,
    is_connected,
    mine,
    sample_motifs,
)
from motifshap.files import dataset_to_json, motifs_to_json

from conftest import injection_marginals, philox


def test_config_validation():
    ok = dict(n=20, n_graphs=10, density=0.2, motif_spec=(2, 3), rho=(0.5, 0.5))
    SynthConfig(**ok)
    with pytest.raises(ParameterError):
        SynthConfig(**{**ok, "n_graphs": 9})  # odd: classes would unbalance
    with pytest.raises(ParameterError):
        SynthConfig(**{**ok, "density": 0.0})
    with pytest.raises(ParameterError):
        SynthConfig(**{**ok, "density": 1.0})
    with pytest.raises(ParameterError):
        SynthConfig(**{**ok, "rho": (0.5,)})
    with pytest.raises(ParameterError):
        SynthConfig(**{**ok, "rho": (0.5, 1.5)})
    with pytest.raises(ParameterError):
        SynthConfig(**{**ok, "correlation": ((1.0,),)})
    with pytest.raises(ParameterError):
        SynthConfig(**{**ok, "correlation": ((1.0, 0.5), (0.5, 0.9))})
    with pytest.raises(ParameterError):
        SynthConfig(**{**ok, "correlation": ((1.0, 2.0), (2.0, 1.0))})
    for seed in (-1, 1.5, True, "7"):
        with pytest.raises(ParameterError, match="seed"):
            SynthConfig(**{**ok, "seed": seed})
    SynthConfig(**{**ok, "seed": np.int64(3)})
    for field, value in (("n", 10.0), ("n", True), ("n_graphs", 4.0), ("n_graphs", "4")):
        with pytest.raises(ParameterError, match="must be an integer"):
            SynthConfig(**{**ok, field: value})
    SynthConfig(**{**ok, "n": np.int64(20), "n_graphs": np.int32(10)})
    for spec in ((True, 3), (2, True), (np.bool_(True), 3)):
        with pytest.raises(ParameterError, match="must be an integer"):
            SynthConfig(**{**ok, "motif_spec": spec})


def test_a_numpy_integer_motif_spec_is_sampled():
    cfg = _cfg(motif_spec=(np.int64(3), np.int32(3)))
    assert cfg.n_motifs == 3 and type(cfg.n_motifs) is int
    assert generate(cfg) == generate(_cfg())


def test_injection_record_validation():
    InjectionRecord(((1, 0), (-1, 1)))
    with pytest.raises(ParameterError):
        InjectionRecord(((1, 0), (1,)))
    with pytest.raises(ParameterError):
        InjectionRecord(((2, 0),))


def test_erdos_renyi_is_deterministic():
    a = erdos_renyi(30, 0.3, philox(5))
    b = erdos_renyi(30, 0.3, philox(5))
    assert a == b
    c = erdos_renyi(30, 0.3, philox(6))
    assert a != c


def test_erdos_renyi_density_bounds():
    with pytest.raises(ParameterError):
        erdos_renyi(10, 0.0, philox(0))


def test_erdos_renyi_edge_count_statistics():
    # n=100, d=0.2: mean 990, sigma = sqrt(4950 * 0.2 * 0.8) ~ 28.1;
    # the mean of 100 draws should sit within 3 sigma/sqrt(100)
    rng = philox(123)
    counts = [len(erdos_renyi(100, 0.2, rng).edges) for _ in range(100)]
    mean = sum(counts) / len(counts)
    sigma = math.sqrt(4950 * 0.2 * 0.8)
    assert abs(mean - 990) <= 3 * sigma / 10


def test_erdos_renyi_single_pair_frequency():
    rng = philox(321)
    hits = sum(len(erdos_renyi(2, 0.5, rng).edges) for _ in range(10_000))
    assert abs(hits / 10_000 - 0.5) <= 0.015  # 3 sigma for p=0.5


def test_sample_motifs_connected_exact_size_disjoint():
    for seed in range(100):
        motifs = sample_motifs(40, 3, 4, seed)
        nodes_seen: set[int] = set()
        for k, m in enumerate(motifs):
            assert len(m.edges) == 4
            assert is_connected(m.edges)
            assert m.class_sign == (1 if k % 2 == 1 else -1)
            nodes = {v for e in m.edges for v in e}
            assert not nodes & nodes_seen
            nodes_seen |= nodes


def test_sample_motifs_overlapping_mode():
    motifs = sample_motifs(8, 3, 4, seed=5, disjoint=False)
    for m in motifs:
        assert len(m.edges) == 4
        assert is_connected(m.edges)


def test_sample_motifs_infeasible_disjointness():
    with pytest.raises(ParameterError):
        sample_motifs(10, 3, 4, seed=0)  # needs 15 nodes
    with pytest.raises(ParameterError):
        sample_motifs(10, 0, 4, seed=0)


def test_sample_motifs_overlapping_mode_refuses_a_motif_larger_than_the_universe():
    # 3 nodes have 3 pairs; 0 and 1 nodes have none
    for n, edges in ((3, 4), (1, 1), (0, 1), (-2, 1)):
        with pytest.raises(ParameterError, match="node pairs"):
            sample_motifs(n, 1, edges, disjoint=False)
    (motif,) = sample_motifs(3, 1, 3, disjoint=False)
    assert motif.edges == {(0, 1), (0, 2), (1, 2)}


def test_sample_motifs_arguments_must_be_integers():
    for args in ((20.0, 2, 3), (20, 1.5, 3), (20, True, 3), (20, 2, 2.0), (20, 2, "3")):
        with pytest.raises(ParameterError, match="must be an integer"):
            sample_motifs(*args)
    for seed in (1.5, True, "7", -1):
        with pytest.raises(ParameterError, match="seed"):
            sample_motifs(20, 2, 3, seed=seed)
    assert (sample_motifs(np.int64(20), np.int32(2), np.int64(3), seed=np.int64(4))
            == sample_motifs(20, 2, 3, seed=4))


def _cfg(**overrides):
    base = dict(n=30, n_graphs=20, density=0.2, motif_spec=(3, 3),
                rho=(0.5, 0.5, 0.5), seed=3)
    base.update(overrides)
    return SynthConfig(**base)


def test_generate_is_bit_deterministic():
    d1, r1, m1 = generate(_cfg())
    d2, r2, m2 = generate(_cfg())
    assert d1 == d2
    assert r1 == r2
    assert m1 == m2
    d3, _, _ = generate(_cfg(seed=4))
    assert d1 != d3


def test_generate_label_balance_and_parity():
    d, _, _ = generate(_cfg(n_graphs=40))
    assert sum(d.labels) == 20
    assert d.labels == tuple(j % 2 for j in range(40))


def test_generate_embeds_injections():
    d, rec, _ = generate(_cfg())
    assert d.injections == rec.matrix
    assert rec.n_graphs == 20 and rec.n_motifs == 3


def test_rho_zero_never_injects():
    d, rec, _ = generate(_cfg(rho=(0.0, 0.0, 0.0)))
    assert all(x == 0 for row in rec.matrix for x in row)


def test_rho_zero_graphs_are_pure_er():
    """With no injections the graphs must equal the documented ER
    substreams: SeedSequence(seed).spawn(3)[1] spawned per graph."""
    cfg = _cfg(rho=(0.0, 0.0, 0.0), seed=9)
    d, _, _ = generate(cfg)
    _, seq_er, _ = np.random.SeedSequence(9).spawn(3)
    for j, child in enumerate(seq_er.spawn(cfg.n_graphs)):
        rng = np.random.Generator(np.random.Philox(child))
        assert d.graphs[j] == erdos_renyi(cfg.n, cfg.density, rng)


def test_rho_one_always_injects_with_parity():
    d, rec, motifs = generate(_cfg(rho=(1.0, 1.0, 1.0)))
    for j, row in enumerate(rec.matrix):
        for k, entry in enumerate(row):
            assert entry == (1 if j % 2 == k % 2 else -1)
    # disjoint motifs: added edges survive to the final graph, removed
    # edges are gone
    for j, g in enumerate(d.graphs):
        for k, m in enumerate(motifs):
            if rec.matrix[j][k] == 1:
                assert m.edges <= g.edges
            else:
                assert not (m.edges & g.edges)


def test_generate_with_explicit_motifs_matches_sampled_run():
    d1, r1, motifs = generate(_cfg())
    d2, r2, motifs2 = generate(_cfg(motif_spec=motifs))
    assert motifs2 == motifs
    assert d1 == d2
    assert r1 == r2


def test_explicit_motif_outside_universe_rejected():
    bad = Motif(0, frozenset({(40, 41)}), 1)
    with pytest.raises(ParameterError):
        generate(_cfg(motif_spec=[bad], rho=(0.5,)))


def test_injection_rates_track_rho():
    # spec-shaped run: rates within +-0.07 of rho at n_g = 200
    for seed in (0, 1, 7):
        cfg = SynthConfig(n=100, n_graphs=200, density=0.2, motif_spec=(6, 10),
                          rho=(0, 0.2, 0.4, 0.6, 0.8, 1), seed=seed)
        _, rec, _ = generate(cfg)
        for rate, target in zip(rec.rates(), cfg.rho):
            assert abs(rate - target) <= 0.07


def _chi2_pair(rec, a, b):
    n = rec.n_graphs
    obs = [[0, 0], [0, 0]]
    for row in rec.matrix:
        obs[int(row[a] != 0)][int(row[b] != 0)] += 1
    rows = [obs[0][0] + obs[0][1], obs[1][0] + obs[1][1]]
    cols = [obs[0][0] + obs[1][0], obs[0][1] + obs[1][1]]
    stat = 0.0
    for i in range(2):
        for j in range(2):
            expected = rows[i] * cols[j] / n
            if expected > 0:
                stat += (obs[i][j] - expected) ** 2 / expected
    return stat


def test_identity_correlation_gives_independent_injections():
    # pairwise chi-square at 1 dof; 6.635 is the alpha=0.01 critical value
    cfg = SynthConfig(n=40, n_graphs=10_000, density=0.2, motif_spec=(3, 3),
                      rho=(0.5, 0.5, 0.5), seed=0)
    _, rec, _ = generate(cfg)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        assert _chi2_pair(rec, a, b) < 6.635


def test_offdiagonal_correlation_suppresses_injections():
    # with C_k.R_j summing two uniforms, the literal threshold fires less
    # often than rho
    full = ((1.0, 1.0), (1.0, 1.0))
    cfg = SynthConfig(n=30, n_graphs=2000, density=0.2, motif_spec=(2, 3),
                      rho=(0.5, 0.5), correlation=full, seed=2)
    _, rec, _ = generate(cfg)
    for rate in rec.rates():
        assert rate < 0.5
    # the rate is the closed-form P(U_1 + U_2 <= 0.5) = 0.125, within four
    # binomial standard errors
    for rate, p in zip(rec.rates(), injection_marginals(cfg.rho, full)):
        assert abs(rate - p) <= 4 * math.sqrt(p * (1 - p) / cfg.n_graphs)
    # and perfectly correlated motifs fire together
    for row in rec.matrix:
        assert (row[0] != 0) == (row[1] != 0)


@pytest.mark.parametrize("cfg, miner, dataset_digest, mined_digest", [
    (SynthConfig(n=30, n_graphs=40, density=0.2, motif_spec=(3, 4),
                 rho=(0.5, 0.8, 1.0), seed=11),
     MinerConfig(support_threshold=6, max_size=4),
     "d8c62bc601421af28224083298782a21e19e843f39264ff0343cd322d5254321",
     "8553f14ab3bcf90ed018071874d46780094ea85d25614d481ef6f9c5cff9dfc6"),
    (SynthConfig(n=24, n_graphs=30, density=0.25, motif_spec=(3, 3),
                 rho=(0.6, 0.7, 0.9),
                 correlation=((1.0, 0.5, 0.0), (0.5, 1.0, 0.3), (0.0, 0.3, 1.0)),
                 seed=5),
     MinerConfig(support_threshold=5, max_size=4, label=1),
     "953fb2f405b88e1e3c9cd0676f6a123ee2f696997ac1abcdd7c6dcb959b62a81",
     "e54cbbe745c042fb759d1995eacaca98457ed39942d7164e12e9e2c14ab53a22"),
], ids=["independent", "correlated"])
def test_generate_and_mine_golden_bytes(cfg, miner, dataset_digest, mined_digest):
    """Generator and miner output pinned to fixed bytes, so that a slip in
    the bit order of generated edges shows even when it is consistent.
    The outputs hold only integers, so the digests do not depend on libm
    or BLAS."""
    data, _, _ = generate(cfg)
    mined = mine(data, miner)
    assert hashlib.sha256(dataset_to_json(data).encode()).hexdigest() == dataset_digest
    assert hashlib.sha256(motifs_to_json(data.n, mined).encode()).hexdigest() == mined_digest

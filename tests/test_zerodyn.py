import dataclasses
import itertools
import random
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipherobs import cli
from cipherobs.modring import ModMatrix, Modulus
from cipherobs.zerodyn import (
    ChannelMaps,
    RelativeDegreeUndefined,
    all_channel_maps,
    channel_maps,
)
from .helpers import UNEVEN_BLOCKS, build_fbar, build_transform, \
    cancellation_init, cancellation_step, dense_normal_form, \
    per_row_channel_maps, random_channel, random_mod_matrix, sigma_dag, \
    simulate_channel, uneven_gain

Q101 = Modulus(101)
Q5 = Modulus(5)


def _shift_system(q):
    F = ModMatrix([[0, 0], [1, 0]], q)
    return F


class TestRelativeDegree:
    def test_direct_feedthrough_path(self):
        F = _shift_system(Q101)
        G = ModMatrix([[1], [0]], Q101)
        H = ModMatrix([[1, 0]], Q101)
        assert channel_maps(H, F, G).nu == 1

    def test_one_step_delay(self):
        F = _shift_system(Q101)
        G = ModMatrix([[1], [0]], Q101)
        H = ModMatrix([[0, 1]], Q101)
        assert channel_maps(H, F, G).nu == 2

    def test_other_input_column(self):
        F = _shift_system(Q101)
        G = ModMatrix([[0], [1]], Q101)
        H = ModMatrix([[0, 1]], Q101)
        assert channel_maps(H, F, G).nu == 1

    def test_undefined_when_input_never_reaches(self):
        F = _shift_system(Q101)
        G = ModMatrix.zeros(2, 1, Q101)
        H = ModMatrix([[1, 0]], Q101)
        with pytest.raises(RelativeDegreeUndefined):
            channel_maps(H, F, G)

    def test_markov_parameters_vanish_below_degree(self):
        rng = random.Random(0)
        for _ in range(30):
            H, F, G = random_channel(rng, Q101, 4, 2)
            try:
                nu = channel_maps(H, F, G).nu
            except RelativeDegreeUndefined:
                continue
            row = H
            for h in range(nu - 1):
                assert (row @ G).is_zero()
                row = row @ F
            assert not (row @ G).is_zero()


class TestBuildTransform:
    def test_transform_is_a_bijection(self):
        rng = random.Random(1)
        for _ in range(20):
            H, F, G = random_channel(rng, Q101, 4, 2)
            try:
                ct = build_transform(H, F, G)
            except RelativeDegreeUndefined:
                continue
            T = ct.T1.vstack(ct.T2)
            V = ModMatrix(map(add, ct.V1.rows, ct.V2.rows), Q101)
            eye = ModMatrix.identity(4, Q101)
            assert T @ V == eye
            assert V @ T == eye
            assert (ct.Sigma @ ct.SigmaDag).rows == ((1,),)

    def test_degenerate_full_degree(self):
        # T2 square invertible: no internal dynamics, pure chain
        F = _shift_system(Q101)
        G = ModMatrix([[1], [0]], Q101)
        H = ModMatrix([[0, 1]], Q101)
        ct = build_transform(H, F, G)
        assert ct.nu == 2
        assert ct.T1.nrows == 0
        assert ct.S1.shape == (0, 0)
        assert ct.S3.shape == (0, 1)
        assert ct.Psi.shape == (1, 0)
        # chain property: output now is the top chain coordinate
        rng = random.Random(2)
        b_ini = ModMatrix.column([rng.randrange(101) for _ in range(2)], Q101)
        b_vs = [ModMatrix.column([rng.randrange(101)], Q101) for _ in range(6)]
        outs = simulate_channel(H, F, G, b_ini, b_vs)
        state = b_ini
        for t in range(6):
            w = ct.T2 @ state
            assert w.rows[0][0] == outs[t]
            state = F @ state + G @ b_vs[t]

    def test_normal_form_equations_on_random_trajectories(self):
        rng = random.Random(3)
        done = 0
        while done < 15:
            H, F, G = random_channel(rng, Q101, 4, 2)
            try:
                ct = build_transform(H, F, G)
            except RelativeDegreeUndefined:
                continue
            if ct.nu == 4:
                continue
            done += 1
            state = random_mod_matrix(rng, 4, 1, Q101)
            for _ in range(8):
                v = random_mod_matrix(rng, 2, 1, Q101)
                xi, w = ct.T1 @ state, ct.T2 @ state
                nxt = F @ state + G @ v
                xi2, w2 = ct.T1 @ nxt, ct.T2 @ nxt
                assert xi2 == ct.S1 @ xi + ct.S2 @ w + ct.S3 @ v
                # chain shifts up, bottom row mixes all three terms
                for h in range(ct.nu - 1):
                    assert w2.rows[h][0] == w.rows[h + 1][0]
                bottom = (ct.Psi @ xi + ct.Gamma @ w + ct.Sigma @ v).rows[0][0]
                assert w2.rows[ct.nu - 1][0] == bottom
                assert (H @ state).rows[0][0] == w.rows[0][0]
                state = nxt

    def test_benchmark_channel_invariants(self, bench_setup):
        maps = bench_setup.mod_maps
        q = bench_setup.params.q
        Fbar = build_fbar(maps.block_sizes, q)
        ct = build_transform(maps.Hbar.row(0), Fbar, maps.Gbar)
        T = ct.T1.vstack(ct.T2)
        V = ModMatrix(map(add, ct.V1.rows, ct.V2.rows), q)
        assert T @ V == ModMatrix.identity(24, q)
        assert (ct.Sigma @ ct.SigmaDag).rows == ((1,),)
        row = maps.Hbar.row(0)
        for _ in range(ct.nu - 1):
            assert (row @ maps.Gbar).is_zero()
            row = row @ Fbar
        assert not (row @ maps.Gbar).is_zero()


MODULI = (Modulus(13), Modulus(2 ** 61 - 1), Modulus(2 ** 109 - 31))
MAP_FIELDS = ("nu", "T2", "V2", "Sigma")
TRANSFORM_FIELDS = ("nu", "T1", "T2", "V1", "V2", "Sigma", "SigmaDag")


@st.composite
def observer_channels(draw):
    """(Fbar, Gbar, H) over a random block structure; Gbar reaches only a
    random subset of the state and H is sparse, so the output often needs
    several steps to see the input (or never sees it)."""
    q = draw(st.sampled_from(MODULI))
    blocks = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    l = sum(blocks)
    h = draw(st.integers(1, 3))
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, q.q - 1))
    live = draw(st.sets(st.integers(0, l - 1), max_size=l))
    G = [draw(st.lists(entry, min_size=h, max_size=h)) if i in live
         else [0] * h for i in range(l)]
    H = [draw(st.lists(st.one_of(st.just(0), entry), min_size=l,
                       max_size=l))]
    return build_fbar(blocks, q), ModMatrix(G, q), ModMatrix(H, q)


def _assert_matches_dense(H, F, G):
    dense = dense_normal_form(H, F, G)
    maps = channel_maps(H, F, G)
    for name in MAP_FIELDS:
        assert getattr(maps, name) == dense[name], name
    assert sigma_dag(maps) == dense["SigmaDag"]
    ct = build_transform(H, F, G)
    for name in TRANSFORM_FIELDS:
        assert getattr(ct, name) == dense[name], name
    return dense["nu"]


class TestClosedFormMaps:
    @settings(max_examples=300, deadline=None)
    @given(observer_channels())
    def test_equal_dense_oracle(self, channel):
        F, G, H = channel
        try:
            dense_normal_form(H, F, G)
        except RelativeDegreeUndefined:
            for build in (channel_maps, build_transform):
                with pytest.raises(RelativeDegreeUndefined):
                    build(H, F, G)
            return
        _assert_matches_dense(H, F, G)

    @pytest.mark.parametrize("q", MODULI)
    def test_higher_degrees_on_every_modulus(self, q):
        # Gbar reaches the top of a block of 5; H reads further down it
        rng = random.Random(q.q)
        F = build_fbar((5, 2), q)
        for nu in (1, 2, 3, 4, 5):
            G = ModMatrix([[rng.randrange(1, q.q), 0]] + [[0, 0]] * 4
                          + [[0, 1], [0, 0]], q)
            H = ModMatrix([[0] * (nu - 1)
                           + [rng.randrange(1, q.q) for _ in range(6 - nu)]
                           + [0, 0]], q)
            assert _assert_matches_dense(H, F, G) == nu

    @pytest.mark.parametrize("q", MODULI)
    def test_no_relative_degree_raises(self, q):
        F = build_fbar((3, 2), q)
        G = ModMatrix([[0], [0], [0], [1], [0]], q)
        H = ModMatrix([[1, 1, 1, 0, 0]], q)
        for build in (channel_maps, build_transform):
            with pytest.raises(RelativeDegreeUndefined):
                build(H, F, G)


def assert_equal_per_row_oracle(H, F, G):
    """`all_channel_maps` of every row of H equals the per-row oracle,
    field for field; returns the maps."""
    got = all_channel_maps(H, F, G)
    assert len(got) == H.nrows
    for j, maps in enumerate(got):
        want = per_row_channel_maps(H.row(j), F, G)
        for field in dataclasses.fields(ChannelMaps):
            assert getattr(maps, field.name) == getattr(want, field.name), \
                (j, field.name)
    return got


def test_channel_maps_oracle_on_the_benchmark(bench_setup):
    maps = bench_setup.mod_maps
    got = assert_equal_per_row_oracle(maps.Hbar, maps.gain.Fbar,
                                      maps.gain.Gbar)
    assert len(got) == 60


@pytest.mark.parametrize("sizes", UNEVEN_BLOCKS)
def test_channel_maps_oracle_on_uneven_gains(bench_setup, sizes):
    # every unit row and three random rows of small entries
    q = bench_setup.params.q
    rng = random.Random(repr(sizes))
    l = sum(sizes)
    H = ModMatrix(ModMatrix.identity(l, q).rows
                  + tuple(tuple(rng.randint(-9, 9) for _ in range(l))
                          for _ in range(3)), q)
    assert_equal_per_row_oracle(H, build_fbar(sizes, q),
                                uneven_gain(q, sizes, rng))


def test_channel_maps_oracle_on_random_q101_banks():
    # the zeroing suite's draws with a channel of nu > 1: the rows with a
    # relative degree against the oracle, and all rows raising when one
    # has none
    rng = random.Random(23)
    done, undefined = 0, 0
    while done < 20:
        blocks, G, H = cli._zeroing_draw(rng, Q101)
        F = build_fbar(blocks, Q101)
        degrees = {}
        for j in range(H.nrows):
            try:
                degrees[j] = per_row_channel_maps(H.row(j), F, G).nu
            except RelativeDegreeUndefined:
                pass
        if max(degrees.values(), default=0) < 2:
            continue
        if len(degrees) < H.nrows:
            undefined += 1
            with pytest.raises(RelativeDegreeUndefined):
                all_channel_maps(H, F, G)
        assert_equal_per_row_oracle(
            ModMatrix([H.rows[j] for j in degrees], Q101), F, G)
        done += 1
    assert undefined > 0


class TestSimulateChannel:
    def test_zero_everything(self):
        F = _shift_system(Q101)
        G = ModMatrix([[1], [0]], Q101)
        H = ModMatrix([[1, 0]], Q101)
        outs = simulate_channel(H, F, G, ModMatrix.zeros(2, 1, Q101),
                                [ModMatrix.zeros(1, 1, Q101)] * 5)
        assert all(o == 0 for o in outs)

    def test_nilpotent_free_response_dies(self):
        rng = random.Random(4)
        F = ModMatrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]], Q101)
        G = ModMatrix.zeros(3, 1, Q101)
        H = random_mod_matrix(rng, 1, 3, Q101)
        b_ini = random_mod_matrix(rng, 3, 1, Q101)
        outs = simulate_channel(H, F, G, b_ini,
                                [ModMatrix.zeros(1, 1, Q101)] * 6)
        assert all(o == 0 for o in outs[3:])

    def test_matches_normal_form_simulation(self):
        rng = random.Random(5)
        done = 0
        while done < 10:
            H, F, G = random_channel(rng, Q101, 4, 2)
            try:
                ct = build_transform(H, F, G)
            except RelativeDegreeUndefined:
                continue
            done += 1
            b_ini = random_mod_matrix(rng, 4, 1, Q101)
            b_vs = [random_mod_matrix(rng, 2, 1, Q101) for _ in range(8)]
            outs = simulate_channel(H, F, G, b_ini, b_vs)
            # simulate in transformed coordinates and compare the output
            xi, w = ct.T1 @ b_ini, ct.T2 @ b_ini
            for t in range(8):
                assert outs[t] == w.rows[0][0]
                v = b_vs[t]
                xi_next = ct.S1 @ xi + ct.S2 @ w + ct.S3 @ v
                new_bottom = (ct.Psi @ xi + ct.Gamma @ w
                              + ct.Sigma @ v).rows[0][0]
                w_rows = [w.rows[h][0] for h in range(1, ct.nu)] + [new_bottom]
                xi, w = xi_next, ModMatrix.column(w_rows, Q101)


class TestCancellation:
    def test_zero_inputs_zero_terms(self):
        F = _shift_system(Q101)
        G = ModMatrix([[1], [0]], Q101)
        H = ModMatrix([[1, 0]], Q101)
        ct = build_transform(H, F, G)
        tilde_ini, state = cancellation_init(ct, ModMatrix.zeros(2, 1, Q101))
        assert tilde_ini.is_zero()
        for _ in range(4):
            tilde, state = cancellation_step(ct, state,
                                             ModMatrix.zeros(1, 1, Q101))
            assert tilde == 0

    def test_chain_image_initial_condition(self):
        rng = random.Random(6)
        done = 0
        while done < 10:
            H, F, G = random_channel(rng, Q101, 4, 2)
            try:
                ct = build_transform(H, F, G)
            except RelativeDegreeUndefined:
                continue
            done += 1
            w = random_mod_matrix(rng, ct.nu, 1, Q101)
            tilde_ini, _ = cancellation_init(ct, ct.V2 @ w)
            assert tilde_ini == w

    def test_initial_cancellation_zeroes_prefix(self):
        rng = random.Random(7)
        done = 0
        while done < 10:
            H, F, G = random_channel(rng, Q101, 5, 2)
            try:
                ct = build_transform(H, F, G)
            except RelativeDegreeUndefined:
                continue
            done += 1
            b_ini = random_mod_matrix(rng, 5, 1, Q101)
            b_vs = [random_mod_matrix(rng, 2, 1, Q101) for _ in range(8)]
            tilde_ini, _ = cancellation_init(ct, b_ini)
            outs = simulate_channel(H, F, G, b_ini - ct.V2 @ tilde_ini, b_vs)
            # before any input reaches the output the response is zeroed
            assert all(o == 0 for o in outs[:ct.nu])

    @pytest.mark.parametrize("l,mp", [(2, 2), (4, 2), (6, 3)])
    def test_full_cancellation_random_channels(self, l, mp):
        rng = random.Random(100 + l + mp)
        done = 0
        while done < 12:
            H, F, G = random_channel(rng, Q101, l, mp)
            try:
                ct = build_transform(H, F, G)
            except RelativeDegreeUndefined:
                continue
            done += 1
            b_ini = random_mod_matrix(rng, l, 1, Q101)
            b_vs = [random_mod_matrix(rng, mp, 1, Q101) for _ in range(4 * l)]
            tilde_ini, state = cancellation_init(ct, b_ini)
            mod_vs = []
            for v in b_vs:
                tilde, state = cancellation_step(ct, state, v)
                mod_vs.append(v - ct.SigmaDag.scale(tilde))
            outs = simulate_channel(H, F, G, b_ini - ct.V2 @ tilde_ini, mod_vs)
            assert all(o == 0 for o in outs)

    def test_cancellation_uniqueness_small_field(self):
        # flipping any coordinate of the initial cancellation breaks the
        # zeroing within the first nu steps (exhaustively over Z_5)
        rng = random.Random(8)
        done = 0
        while done < 6:
            H, F, G = random_channel(rng, Q5, 3, 1)
            try:
                ct = build_transform(H, F, G)
            except RelativeDegreeUndefined:
                continue
            done += 1
            b_ini = random_mod_matrix(rng, 3, 1, Q5)
            b_vs = [random_mod_matrix(rng, 1, 1, Q5) for _ in range(3 + 2)]
            tilde_ini, state = cancellation_init(ct, b_ini)
            mod_vs = []
            for v in b_vs:
                tilde, state = cancellation_step(ct, state, v)
                mod_vs.append(v - ct.SigmaDag.scale(tilde))
            for coord in range(ct.nu):
                for wrong in range(-2, 3):
                    if Q5.cmod(wrong) == tilde_ini.rows[coord][0]:
                        continue
                    bad = [list(r) for r in tilde_ini.rows]
                    bad[coord][0] = wrong
                    bad_ini = b_ini - ct.V2 @ ModMatrix(bad, Q5)
                    outs = simulate_channel(H, F, G, bad_ini, mod_vs)
                    assert any(o != 0 for o in outs[:ct.nu])


class TestZeroingCharacterization:
    def test_forward_direction_structured_inputs(self):
        # inputs of the admissible form with a zero chain start produce an
        # identically zero output
        rng = random.Random(9)
        done = 0
        while done < 10:
            H, F, G = random_channel(rng, Q101, 4, 2)
            try:
                ct = build_transform(H, F, G)
            except RelativeDegreeUndefined:
                continue
            if ct.nu == 4:
                continue
            done += 1
            xi = random_mod_matrix(rng, 4 - ct.nu, 1, Q101)
            b_ini = ct.V1 @ xi
            state = b_ini
            for _ in range(10):
                mu = random_mod_matrix(rng, 2, 1, Q101)
                xi_t = ct.T1 @ state
                v = (-(ct.SigmaDag @ ct.Psi @ xi_t)
                     + ct.input_projector @ mu)
                assert (H @ state).rows[0][0] == 0
                state = F @ state + G @ v

    def test_converse_exhaustive_small_field(self):
        # over Z_5 with scalar input, enumerate every initial condition and
        # input sequence.  A finite window of outputs 0..horizon constrains
        # the inputs v(0..horizon-nu) only, so the exact characterization is:
        # output zero on the window  <=>  chain start zero and the
        # admissibility identity holds for every constrained input step.
        configs = [
            (2, ((0, 0), (1, 0)), ((1,), (2,)), (1, 1)),
            (2, ((0, 0), (1, 0)), ((1,), (0,)), (0, 1)),  # nu = l = 2
            (3, ((0, 0, 0), (1, 0, 0), (0, 1, 0)), ((1,), (0,), (2,)),
             (0, 1, 3)),
            (3, ((1, 2, 0), (0, 1, 1), (3, 0, 2)), ((1,), (2,), (0,)),
             (2, 0, 1)),
        ]
        for l, Fr, Gr, Hr in configs:
            F = ModMatrix(Fr, Q5)
            G = ModMatrix([list(r) for r in Gr], Q5)
            H = ModMatrix([list(Hr)], Q5)
            try:
                ct = build_transform(H, F, G)
            except RelativeDegreeUndefined:
                continue
            nu = ct.nu
            horizon = l + 2
            # plain-int copies for the exhaustive sweep
            Frows = tuple(tuple(v % 5 for v in row) for row in F.rows)
            Gcol = tuple(row[0] % 5 for row in G.rows)
            Hrow = tuple(v % 5 for v in H.rows[0])
            T2rows = tuple(tuple(v % 5 for v in row) for row in ct.T2.rows)
            T1rows = tuple(tuple(v % 5 for v in row) for row in ct.T1.rows)
            sigma = ct.Sigma.rows[0][0] % 5
            psi = tuple(v % 5 for v in ct.Psi.rows[0])

            def out(state):
                return sum(h * s for h, s in zip(Hrow, state)) % 5

            def advance(state, v):
                return tuple(
                    (sum(f * s for f, s in zip(frow, state)) + g * v) % 5
                    for frow, g in zip(Frows, Gcol))

            zero_pairs = 0
            for ini_vals in itertools.product(range(5), repeat=l):
                chain_zero = all(
                    sum(a * b for a, b in zip(row, ini_vals)) % 5 == 0
                    for row in T2rows)
                if not chain_zero:
                    # outputs before step nu depend only on the initial
                    # condition, so nothing with a nonzero chain start zeroes
                    state = ini_vals
                    hit = False
                    for _ in range(nu):
                        if out(state):
                            hit = True
                            break
                        state = advance(state, 0)
                    assert hit
                    continue
                for v_vals in itertools.product(range(5), repeat=horizon):
                    state = ini_vals
                    zeroed = True
                    form_ok = True
                    for t in range(horizon):
                        if out(state):
                            zeroed = False
                            break
                        if t <= horizon - nu:
                            xi = tuple(
                                sum(a * b for a, b in zip(row, state)) % 5
                                for row in T1rows)
                            gate = (sigma * v_vals[t]
                                    + sum(p * x for p, x in zip(psi, xi))) % 5
                            if gate != 0:
                                form_ok = False
                        state = advance(state, v_vals[t])
                    if zeroed and out(state):
                        zeroed = False
                    if zeroed:
                        zero_pairs += 1
                    assert zeroed == form_ok
            # chain-zero starts x one forced input per constrained step
            # x free trailing inputs
            expected = 5 ** (l - nu) * 5 ** (nu - 1)
            assert zero_pairs == expected

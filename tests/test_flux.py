import math
import re
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamtrace import FluxError, flux
from streamtrace.flux import accumulate, locate, offset, phi_inverse
from streamtrace.stream_mesh import IN, OUT, TF, TB, StreamMesh

from conftest import TANGENTS, decode, phi, phi_signed, random_facets, wound_config
from conftest import constant_samples, right_triangle
from conftest import oracle_accumulate, oracle_cross_facet, oracle_locate, oracle_offset
from conftest import oracle_phi_inverse
from streamtrace.stream_mesh import BorderTable, decompose
from streamtrace.tracer import Tracer


def as_rows(pieces, runs=None):
    """A StreamMesh of no facet whose rows are edge pieces on [0, 1].

    Each piece is ``(length, b0, b1, behavior)``, and a flow piece's total
    is its flux.  By default every row is in run 0.
    """
    lengths, b0s, b1s, behaviors = (list(column) for column in zip(*pieces))
    codes = [8 * behavior + 32 for behavior in behaviors]
    totals = [
        0.0 if behavior in TANGENTS else abs(flux._flow(False, 0, *piece[1:3], piece[0], 1.0))
        for *piece, behavior in pieces
    ]
    n = len(pieces)
    columns = [[0.0] * n, [1.0] * n, b0s, b1s, lengths, totals]
    if runs is None:
        runs = [list(range(n))]
    return StreamMesh(None, None, codes, columns, [0] * 7, runs)


def make_piece(length, b0, b1, behavior):
    """A stream mesh whose one row, row 0, is the given edge piece."""
    return as_rows([(length, b0, b1, behavior)])


def inverse(sm, x, total):
    """``phi_inverse`` of row 0 of a one-row stream mesh."""
    return phi_inverse(sm, 0, x, total)


# frozen adaptive-quadrature values of -L * integral of sin(B(t)) dt
QUAD_FROZEN = [
    (1.0, 30.0, 150.0, 1.0, -0.8269933431326881),
    (0.73, 200.0, 340.0, 0.6, 0.3530150936014879),
    (2.5, 10.0, 10.0 + 1e-13, 1.0, -0.434120444167328),
    (1.2, 180.0, 360.0, 0.25, 0.11187696857341695),
    (0.4, 359.0, 361.0, 0.8, 0.001116972158800561),
]


@pytest.mark.parametrize("L,b0,b1,c,want", QUAD_FROZEN)
def test_phi_signed_matches_frozen_quadrature(L, b0, b1, c, want):
    beh = IN if math.sin(math.radians((b0 + b1) / 2)) > 0 else OUT
    sm = make_piece(L, b0, b1, beh)
    assert abs(phi_signed(sm, 0, c) - want) < 1e-12


def test_phi_signed_sign_convention():
    inflow = make_piece(1.0, 30.0, 150.0, IN)
    outflow = make_piece(1.0, 210.0, 330.0, OUT)
    assert phi_signed(inflow, 0, 1.0) < 0.0
    assert phi_signed(outflow, 0, 1.0) > 0.0
    assert phi(inflow, 0, 1.0) == -phi_signed(inflow, 0, 1.0)
    assert phi(outflow, 0, 1.0) == phi_signed(outflow, 0, 1.0)


def test_phi_rejects_tangent_pieces_and_bad_c():
    t = make_piece(1.0, 0.0, 0.0, TF)
    with pytest.raises(FluxError, match="tangent stream-halfedges carry no flux"):
        phi_inverse(t, 0, 0.5, 1.0)
    sm = make_piece(1.0, 30.0, 60.0, IN)
    with pytest.raises(FluxError, match="piece parameter 1.5 outside"):
        offset(sm, 0, 1.5)
    # a tangent holds no flux: its offset is 0.0 at any c, and accumulate
    # clamps an offset on it to 0.0
    assert offset(t, 0, 0.5) == 0.0 and offset(t, 0, 1.5) == 0.0
    assert accumulate(t, 0, 0.5) == 0.0


def test_radians_multiply_is_math_radians_bit_for_bit():
    # the crossing path multiplies by flux._RAD where math.radians was
    # called, and phi_totals calls np.radians: all three must agree
    rng = np.random.default_rng(28)
    tiny = math.ulp(0.0)
    angles = np.concatenate([
        rng.uniform(-1e4, 1e4, 100_000),
        rng.uniform(-1.0, 1.0, 10_000) * 360.0 * 2.0**62,
        [360.0 * 2.0**62, -360.0 * 2.0**62, 0.0, -0.0],
        [tiny, -tiny, 1e3 * tiny, 2.0**-1022 - tiny, -(2.0**-1022), 2.0**-1022],
    ])
    want = [math.radians(a).hex() for a in angles.tolist()]
    assert [(a * flux._RAD).hex() for a in angles.tolist()] == want
    assert [r.hex() for r in np.radians(angles).tolist()] == want


def test_live_quadrature_agreement():
    from scipy.integrate import quad

    rng = np.random.default_rng(3)
    for _ in range(300):
        L = float(rng.uniform(0.05, 3.0))
        b0 = float(rng.uniform(0.0, 360.0))
        db = float(rng.uniform(-170.0, 170.0))
        if abs(db) < 1e-6:
            continue
        b1 = b0 + db
        mid = math.sin(math.radians(b0 + db / 2))
        if abs(mid) < 1e-6:
            continue
        beh = IN if mid > 0 else OUT
        # keep the whole sweep inside one polarity band
        lo, hi = (0.0, 180.0) if beh == IN else (180.0, 360.0)
        s0 = (b0 - lo) % 360.0
        s1 = (b1 - lo) % 360.0
        if not (s0 <= 180.0 and s1 <= 180.0):
            continue
        c = float(rng.uniform(0.0, 1.0))
        sm = make_piece(L, b0, b1, beh)
        want, _ = quad(lambda t: math.sin(math.radians(b0 + t * db)), 0.0, c,
                       epsabs=1e-14, epsrel=1e-13)
        assert abs(phi_signed(sm, 0, c) - (-L * want)) < 1e-9


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=4.0),
    st.floats(min_value=0.5, max_value=179.5),
    st.floats(min_value=1.0, max_value=178.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_phi_inverse_is_a_left_inverse(L, b0, sweep, c):
    b1 = min(b0 + sweep, 179.999)
    sm = make_piece(L, b0, b1, IN)
    x = phi(sm, 0, c)
    c2 = inverse(sm, x, phi(sm, 0, 1.0))
    # compare through phi: c itself may be ambiguous where density hits zero
    assert abs(phi(sm, 0, c2) - x) < 1e-9 * max(1.0, phi(sm, 0, 1.0))


def test_phi_inverse_endpoints_are_exact():
    sm = make_piece(1.3, 20.0, 160.0, IN)
    assert inverse(sm, 0.0, phi(sm, 0, 1.0)) == 0.0
    assert inverse(sm, phi(sm, 0, 1.0), phi(sm, 0, 1.0)) == 1.0
    with pytest.raises(FluxError):
        inverse(sm, phi(sm, 0, 1.0) * 1.1, phi(sm, 0, 1.0))


def test_phi_inverse_across_band_copies():
    # same geometry, shifted by whole turns: identical mapping
    a = make_piece(1.0, 30.0, 150.0, IN)
    b = make_piece(1.0, 30.0 + 720.0, 150.0 + 720.0, IN)
    for x in np.linspace(0.0, phi(a, 0, 1.0), 17):
        assert abs(
            inverse(a, float(x), phi(a, 0, 1.0)) - inverse(b, float(x), phi(b, 0, 1.0))
        ) < 1e-12


def test_phi_monotone_in_c():
    sm = make_piece(0.9, 200.0, 340.0, OUT)
    vals = [phi(sm, 0, c) for c in np.linspace(0.0, 1.0, 33)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[0] == 0.0


def corner_sink_by_neighbours(sm, r):
    """+1 on an OUT corner between Tf and Tb, -1 on an IN one between Tb and Tf.

    The neighbours are the rows before and after r round the border.
    """
    n = sm.elements[6]
    behavior = decode(sm, r)[1]
    pair = (decode(sm, (r - 1) % n)[1], decode(sm, (r + 1) % n)[1])
    if behavior == OUT and pair == (TF, TB):
        return 1
    if behavior == IN and pair == (TB, TF):
        return -1
    return 0


def corner_flow_pieces():
    """(stream mesh, row) of each corner flow row of the decomposition corpus."""
    from test_stream_mesh import decomposition_corpus

    for sm in decomposition_corpus():
        for r in range(len(sm.code)):
            kind, behavior, _, _ = decode(sm, r)
            if kind == "corner" and behavior not in TANGENTS:
                yield sm, r


def test_corner_sink_flux_is_linear_in_c():
    # corners that absorb or emit the flow head-on carry flux c on [0, c]
    sinks = [(sm, r) for sm, r in corner_flow_pieces() if corner_sink_by_neighbours(sm, r)]
    assert sinks
    for sm, r in sinks:
        s = corner_sink_by_neighbours(sm, r)
        for c in (0.0, 0.25, 1.0):
            assert phi_signed(sm, r, c) == s * c
            assert phi(sm, r, c) == c
            assert phi_inverse(sm, r, c, phi(sm, r, 1.0)) == c


def test_corner_carries_flux_exactly_between_opposite_tangents():
    # the rule reads the decomposed border's order: splits never change it
    absorbing = emitting = 0
    for sm, r in corner_flow_pieces():
        s = corner_sink_by_neighbours(sm, r)
        assert phi_signed(sm, r, 1.0) == s
        absorbing += s == 1
        emitting += s == -1
    # 722 and 709 of them in the random facets, 6 and 6 in the two fans
    assert (absorbing, emitting) == (728, 715)


def linear_scan_locate(sm, x):
    rows = sm.run_rows[0]
    x = min(max(x, 0.0), sm.run_prefix[0][-1])
    acc = 0.0
    last = None
    for r in rows:
        t = float(sm.total[r])
        if t > 0.0:
            last = r
            if x <= acc + t:
                rem = min(max(x - acc, 0.0), t)
                return r, phi_inverse(sm, r, rem, t), rem
        acc += t
    if last is None:
        raise FluxError("no flux")
    return last, 1.0, sm.total[last]


def random_pieces(rng, n):
    """n random ``as_rows`` pieces: inflow pieces and forward tangents."""
    pieces = []
    for _ in range(n):
        if rng.random() < 0.3:
            pieces.append((1.0, 0.0, 0.0, TF))
        else:
            b0 = float(rng.uniform(1.0, 179.0))
            b1 = float(rng.uniform(1.0, 179.0))
            pieces.append((float(rng.uniform(0.01, 2.0)), b0, b1, IN))
    return pieces


def random_run(rng, n):
    """Rows of n random pieces, all in run 0."""
    return as_rows(random_pieces(rng, n))


def test_locate_matches_linear_scan_everywhere():
    rng = np.random.default_rng(8)
    zero_tails = 0
    for _ in range(200):
        sm = random_run(rng, int(rng.integers(1, 9)))
        total = sm.run_prefix[0][-1]
        if total <= 0.0:
            continue
        zero_tails += sm.total[-1] == 0.0
        probes = list(rng.uniform(0.0, total, 20))
        probes += [0.0, total]
        # piece boundaries are the tie cases
        acc = 0.0
        for t in sm.total:
            acc += float(t)
            probes.append(acc)
        for x in probes:
            a_r, a_c, a_x = locate(sm, 0, float(x))
            b_r, b_c, b_x = linear_scan_locate(sm, float(x))
            assert a_r == b_r, f"x={x}"
            assert abs(a_c - b_c) < 1e-12
            assert abs(a_x - b_x) < 1e-12
    # x == total on a run ending in zero-flux pieces is among the probes
    assert zero_tails >= 10


def test_accumulate_then_locate_round_trips():
    rng = np.random.default_rng(9)
    for _ in range(100):
        sm = random_run(rng, int(rng.integers(2, 7)))
        if sm.run_prefix[0][-1] <= 0.0:
            continue
        for r in sm.run_rows[0]:
            if decode(sm, r)[1] in TANGENTS:
                continue
            c = float(rng.uniform(0.0, 1.0))
            x = accumulate(sm, r, offset(sm, r, c))
            r2, c2, x2 = locate(sm, 0, x)
            assert abs(accumulate(sm, r2, offset(sm, r2, c2)) - x) < 1e-9
            assert abs(accumulate(sm, r2, x2) - x) < 1e-9


def test_accumulate_rejects_foreign_piece():
    rng = np.random.default_rng(10)
    pieces = random_pieces(rng, 3)
    stranger = (1.0, 30.0, 60.0, IN)
    sm = as_rows(pieces + [stranger], [[0, 1, 2]])
    with pytest.raises(FluxError):
        accumulate(sm, 3, 0.5)


def test_decomposed_faces_phi_agrees_with_quadrature():
    # criterion-style check on real stream-mesh pieces
    from scipy.integrate import quad

    rng = np.random.default_rng(12)
    checked = 0
    while checked < 1000:
        mesh, fs = wound_config(rng)
        sm = decompose(BorderTable(mesh, fs), 0)
        for rows in sm.run_rows:
            for r in rows:
                if decode(sm, r)[1] in TANGENTS or sm.length[r] == 0.0:
                    continue
                b0 = sm.b0[r]
                db = sm.b1[r] - b0
                c = float(rng.uniform(0.1, 1.0))
                want, _ = quad(
                    lambda t: math.sin(math.radians(b0 + t * db)),
                    0.0,
                    c,
                    epsabs=1e-14,
                    epsrel=1e-13,
                )
                got = phi_signed(sm, r, c)
                assert abs(got - (-sm.length[r] * want)) < 1e-9
                checked += 1
    assert checked >= 1000


# -- the lean crossing path against its min/max oracles ------------------------


def hexed(value):
    """A float as ``float.hex``, a (row, c, offset) triple as (row, hexes)."""
    if isinstance(value, tuple):
        return value[0], *(float(v).hex() for v in value[1:])
    return float(value).hex()


def assert_same_bits(fn, oracle, *args):
    """fn returns the oracle's result bit for bit, or raises the oracle's error."""
    try:
        want = oracle(*args)
    except Exception as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            fn(*args)
        return
    assert hexed(fn(*args)) == hexed(want), args


def crossing_oracles(tracer):
    """(function, oracle) pairs of the crossing path; ``tracer`` crosses facets."""
    return {
        "offset": (offset, oracle_offset),
        "accumulate": (accumulate, oracle_accumulate),
        "locate": (locate, oracle_locate),
        "phi_inverse": (phi_inverse, oracle_phi_inverse),
        "cross_facet": (tracer.cross_facet, oracle_cross_facet),
    }


def test_crossing_path_matches_its_oracles_on_random_facets():
    # the 3000 wound facets of rng seed 5, whose first 300 are the
    # decomposition corpus.  Per facet: every run at -0.0, 0.0, its total
    # and a random flux; two random run rows at x = 0, their total and a
    # random x, the offsets at c = -0.0, 0.0, 1.0 and a random c, and the
    # crossings from the offsets -0.0, 0.0, the total and a random one
    rng = np.random.default_rng(5)
    mesh, fs = random_facets(rng, 3000)
    tracer = Tracer(mesh, fs)
    paths = crossing_oracles(tracer)
    checked = 0
    for f in range(mesh.n_facets):
        sm = tracer.stream_mesh(f)
        for run, prefix in enumerate(sm.run_prefix):
            for x in (-0.0, 0.0, prefix[-1], float(rng.uniform(0.0, prefix[-1]))):
                assert_same_bits(*paths["locate"], sm, run, x)
        rows = [r for rows in sm.run_rows for r in rows]
        for r in rng.choice(rows, 2).tolist():
            total = sm.total[r]
            for x in (0.0, total, float(rng.uniform(0.0, total))):
                assert_same_bits(*paths["phi_inverse"], sm, r, x, total)
            for c, x in zip(
                (-0.0, 0.0, 1.0, float(rng.uniform())),
                (-0.0, 0.0, total, float(rng.uniform(0.0, total))),
            ):
                assert_same_bits(*paths["offset"], sm, r, c)
                assert_same_bits(*paths["accumulate"], sm, r, x)
                assert_same_bits(*paths["cross_facet"], sm, r, x)
                checked += 1
    assert checked == 8 * mesh.n_facets


def test_crossing_path_clamps_match_min_max_out_of_range_and_on_nan():
    nan = float("nan")
    mesh = right_triangle()
    paths = crossing_oracles(Tracer(mesh, constant_samples(mesh, 45.0)))
    accumulate_pair, locate_pair = paths["accumulate"], paths["locate"]
    phi_inverse_pair, cross_pair = paths["phi_inverse"], paths["cross_facet"]
    inflow = (1.0, 30.0, 150.0, IN)
    outflow = (1.0, 210.0, 330.0, OUT)
    sm = as_rows([inflow, outflow, (1.0, 40.0, 40.0, IN)], [[0, 2], [1]])
    for r in range(3):
        # a total past the row's own flux drives u below -1 or above 1, and
        # c past 1; a negative length drives c below 0
        for x in (0.5, 1.5, 3.0, nan):
            assert_same_bits(*phi_inverse_pair, sm, r, x, 4.0)
    assert_same_bits(*phi_inverse_pair, as_rows([(-1.0, *inflow[1:])]), 0, 1.5, 4.0)
    # a head-on sink corner inverts linearly, its clamp sees x itself
    corner = as_rows([outflow])
    corner.code[0] = 1 + 8 * OUT + 64
    for x in (0.25, 1.5, nan):
        assert_same_bits(*phi_inverse_pair, corner, 0, x, 2.0)
    for x in (nan, -1.0, 10.0):
        assert_same_bits(*locate_pair, sm, 0, x)
    # accumulate clamps an offset into [0, total] of its row, 0.0 for a nan
    inf = float("inf")
    for r in range(3):
        t = sm.total[r]
        for x in (-inf, -1.0, -0.0, 0.0, 0.5 * t, t, 2.0 * t, 10.0, inf, nan):
            assert_same_bits(*accumulate_pair, sm, r, x)
    assert accumulate(sm, 2, nan) == sm.start[2]
    assert accumulate(sm, 2, 10.0) == sm.start[2] + sm.total[2]
    # a nan flux before a row makes accumulate nan, and the ratio clamp
    # maps it to 0.0; a shrunk run total pushes the ratio past 1
    poisoned = as_rows([(1.0, nan, 90.0, IN), inflow, outflow], [[0, 1], [2]])
    for x in (0.0, 0.5, nan):
        assert_same_bits(*accumulate_pair, poisoned, 1, x)
        assert_same_bits(*cross_pair, poisoned, 1, x)
    sm.run_prefix[0][-1] *= 0.5
    for x in (0.5 * sm.total[2], sm.total[2]):
        assert_same_bits(*cross_pair, sm, 2, x)
    sm.run_prefix[0][-1] = -1.0
    assert_same_bits(*cross_pair, sm, 0, 0.5)

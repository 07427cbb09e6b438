"""Loop and cylinder connections: holonomy, curvature, gauge and twists."""

import tracemalloc

import numpy as np
import pytest

from sl2rotor import connections as cx
from sl2rotor import cover
from sl2rotor.core import (
    GroupElement,
    _cs_funcs,
    mat_inv,
    mul2,
    planes,
    psl_dist,
    rotation,
    sl2_exp,
    sl2_log,
)
from sl2rotor.paths import GroupPath, spiral_path

GAMMA_H = np.diag([0.1, -0.1])


def exp_family(gamma, g0, n_steps=48, mt=128):
    """Nonpositive path exp(-s gamma) g0 with its matching start loop."""
    svals = np.linspace(0.0, 1.0, n_steps + 1)
    nodes = sl2_exp(-svals[:, None, None] * np.asarray(gamma, float)) @ g0.m
    rep = g0.m if g0.trace >= 0 else -g0.m
    return GroupPath(nodes), cx.constant_loop(sl2_log(rep), mt)


def cone_gamma():
    # alpha = 0.15, inside the nonnegative cone with margin 0.15
    return np.array([[0.0, -0.15], [0.15, 0.0]])


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def exp_reference(x):
    """sl2_exp assembled with a broadcast identity."""
    q = x[..., 0, 0] * x[..., 1, 1] - x[..., 0, 1] * x[..., 1, 0]
    c, s = _cs_funcs(q)
    return c[..., None, None] * np.eye(2) + s[..., None, None] * x


def project_reference(a):
    tr = a[..., 0, 0] + a[..., 1, 1]
    return a - 0.5 * tr[..., None, None] * np.eye(2)


# ---------------------------------------------------------------------------
# loops


def test_winding_loop_rot_and_holonomy():
    for r in (1, 2, 3):
        a = cx.winding_loop(r, GAMMA_H, 256)
        assert a.rot() == float(r)
        # step-exponential transport is second order in the sampling
        coarse = psl_dist(a.holonomy().m, sl2_exp(GAMMA_H))
        fine = psl_dist(cx.winding_loop(r, GAMMA_H, 512).holonomy().m,
                        sl2_exp(GAMMA_H))
        assert coarse < 2e-4
        assert fine < 0.3 * coarse


def test_constant_loop_is_rot_free():
    a = cx.constant_loop(GAMMA_H, 128)
    assert a.rot() == 0.0
    assert np.abs(a.holonomy().m - sl2_exp(GAMMA_H)).max() < 1e-12


def test_connections_reject_non_finite_values():
    base = cx.winding_loop(1, GAMMA_H, 16).samples
    for bad in (np.nan, np.inf, -np.inf):
        a = base.copy()
        a[5, 1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            cx.LoopConnection(a)
        grid = np.broadcast_to(base, (4,) + base.shape).copy()
        grid[2, 7, 0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            cx.CylinderConnection(grid)
        frame = np.broadcast_to(np.eye(2), grid.shape).copy()
        frame[1, 3, 0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            cx.CylinderConnection(np.broadcast_to(base, grid.shape),
                                  s_frame=frame)


def test_cylinder_needs_three_rows():
    base = cx.winding_loop(1, GAMMA_H, 16).samples
    with pytest.raises(ValueError, match="Ns >= 3"):
        cx.CylinderConnection(np.broadcast_to(base, (2,) + base.shape))
    conn = cx.CylinderConnection(np.broadcast_to(base, (3,) + base.shape))
    assert conn.is_flat()


def test_loop_from_function_matches_samples():
    fn = lambda t: np.cos(2 * np.pi * t) * GAMMA_H
    a = cx.loop_from_function(fn, 64)
    assert a.m == 64
    assert np.abs(a.samples[16] - fn(0.25)).max() < 1e-12


def test_cover_multiplies_rot():
    base = cx.winding_loop(1, GAMMA_H, 360)
    for mu in (-2, 2, 3):
        assert cx.cover(base, mu).rot() == mu * base.rot()


# ---------------------------------------------------------------------------
# flat cylinders


def test_pullback_flat_is_flat():
    conn = cx.pullback_flat(cx.winding_loop(2, GAMMA_H, 128), 48)
    assert conn.is_flat()
    assert conn.rot_boundary() == 0.0
    assert psl_dist(conn.holonomy_loop(0).m,
                    conn.holonomy_loop(conn.ns - 1).m) < 1e-12


def test_cylinder_from_function_grid():
    fn = lambda s, t: (1.0 + s) * np.sin(2 * np.pi * t) * GAMMA_H
    conn = cx.cylinder_from_function(fn, ns=17, mt=32)
    assert conn.ns == 17 and conn.mt == 32
    assert np.abs(conn.grid[8, 8] - fn(0.5, 0.25)).max() < 1e-12


def test_boundary_loops():
    conn = cx.pullback_flat(cx.winding_loop(1, GAMMA_H, 96), 24)
    ell0, ell1 = conn.boundary_loop(0), conn.boundary_loop(1)
    assert ell0.rot() == ell1.rot() == 1.0


@pytest.mark.parametrize("end", [5, -3, 0.5, 2, -1])
def test_boundary_loop_takes_only_the_two_ends(end):
    conn = cx.pullback_flat(cx.winding_loop(1, GAMMA_H, 16), 5)
    with pytest.raises(ValueError, match="0 or 1"):
        conn.boundary_loop(end)


# ---------------------------------------------------------------------------
# the nonpositive-path constructor


def test_constructor_round_trip_and_curvature():
    g0 = GroupElement.diagonal(1.8)
    p, a0 = exp_family(cone_gamma(), g0)
    conn = cx.from_nonpositive_path(p, a0)
    # recomputing loop holonomies from grid samples is second order in mt
    devs = [psl_dist(conn.holonomy_loop(i).m, p.nodes[i])
            for i in range(0, conn.ns, 7)]
    assert max(devs) < 1e-5
    assert conn.curvature_margins().min() > -1e-8
    assert not conn.is_flat()


def test_constructor_rejects_nonnegative_paths():
    p = spiral_path(1, np.diag([0.05, -0.05]), n=200)
    a0 = cx.constant_loop(sl2_log(np.asarray(p.nodes[0])), 32)
    with pytest.raises(cx.NotNonpositive):
        cx.from_nonpositive_path(p, a0)


def test_constructor_rejects_wrong_start_holonomy():
    p, _ = exp_family(cone_gamma(), GroupElement.diagonal(1.8))
    bad = cx.constant_loop(np.diag([0.9, -0.9]), 48)
    with pytest.raises(cx.HolonomyMismatch):
        cx.from_nonpositive_path(p, bad)


def test_constructor_takes_only_loop_starts():
    p, a0 = exp_family(cone_gamma(), GroupElement.diagonal(1.8))
    with pytest.raises(TypeError):
        cx.from_nonpositive_path(p, a0.samples)


def test_constructor_refines_to_requested_ns():
    p, a0 = exp_family(cone_gamma(), GroupElement.diagonal(1.8), n_steps=24)
    conn = cx.from_nonpositive_path(p, a0, ns=49)
    assert conn.ns == 49
    with pytest.raises(ValueError):
        cx.from_nonpositive_path(p, a0, ns=50)  # 49 steps not a multiple of 24


def constructor_reference(path, a0, ns=None, mul=mul2):
    """The cylinder constructor stepped one s-row at a time, with the
    exponentials and the trace projection assembled from broadcast
    identities and the grid products formed by mul.  The increment takes
    no half step: Ad of pi exp(h/2 W gamma_i) is Ad of pi on gamma_i,
    because exp(c gamma_i) commutes with gamma_i."""
    if ns is not None and ns != path.n_steps + 1:
        path = path.refine((ns - 1) // path.n_steps)
    gammas = path.left_cocycles()
    a_start, p_start, t_nodes = a0.samples, a0.transports[:-1], a0.times
    hw = path.h * cx.bump_weight(t_nodes)[:, None, None]
    big_w = cx.bump_cumulative(t_nodes)
    grid = np.empty((path.n_steps + 1, len(t_nodes), 2, 2))
    grid[0] = a_start
    pi = np.array(p_start, dtype=float)
    for i in range(path.n_steps):
        xi = big_w[:, None, None] * gammas[i]
        grid[i + 1] = grid[i] + mul(mul(pi, gammas[i]), mat_inv(pi)) * hw
        pi = pi @ exp_reference(path.h * xi)
    return project_reference(grid)


def constructor_reference_matmul(path, a0, ns=None):
    """The per-row reference as it stood with the half step and @."""
    if ns is not None and ns != path.n_steps + 1:
        path = path.refine((ns - 1) // path.n_steps)
    gammas = path.left_cocycles()
    a_start, p_start, t_nodes = a0.samples, a0.transports[:-1], a0.times
    w = cx.bump_weight(t_nodes)
    big_w = cx.bump_cumulative(t_nodes)
    h = path.h
    grid = np.empty((path.n_steps + 1, len(t_nodes), 2, 2))
    grid[0] = a_start
    pi = np.array(p_start, dtype=float)
    for i in range(path.n_steps):
        xi = big_w[:, None, None] * gammas[i]
        half = pi @ exp_reference(0.5 * h * xi)
        grid[i + 1] = grid[i] + h * (
            half @ (w[:, None, None] * gammas[i]) @ mat_inv(half))
        pi = pi @ exp_reference(h * xi)
    return project_reference(grid)


# step counts below, at and one above the constructor's row block, and
# one that is no multiple of it; the last two refine a 24-step path.  The
# "-True" in the ids is the periodic flag these cases carried while rows
# could also be square; it keeps each case under its name
@pytest.mark.parametrize("n_steps,ns", [(31, None), (32, None), (33, None),
                                        (45, None), (24, 73), (24, 97)])
@pytest.mark.parametrize("start", ["hyperbolic", "elliptic"],
                         ids=["hyperbolic-True", "elliptic-True"])
def test_constructor_matches_per_row_reference(n_steps, ns, start):
    g0 = (GroupElement.diagonal(1.8) if start == "hyperbolic"
          else GroupElement(rotation(1.1)))
    p, a0 = exp_family(cone_gamma(), g0, n_steps=n_steps, mt=40)
    samples = a0.samples.copy()
    if start == "hyperbolic":  # log of a diagonal: zeros, here signed
        samples[:, 0, 1] = samples[:, 1, 0] = -0.0
    a0 = cx.LoopConnection(samples)
    got = cx.from_nonpositive_path(p, a0, ns=ns)
    want = constructor_reference(p, a0, ns=ns)
    assert got.ns == (n_steps + 1 if ns is None else ns)
    assert_bits_equal(got.grid, want)


# The grid products round entry by entry, as a_i0 b_0j + a_i1 b_1j, where
# np.matmul rounds differently, the constructor takes no half step and the
# re-gauge forms one product, not two.  Against the @ references these
# cases differ by at most 3.0e-16 of the largest |entry| (constructor
# 3.0e-16, twist 2.7e-16, gauge 2.0e-16); the bound leaves about 3x room
MATMUL_BOUND = 1e-15


def assert_near(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= MATMUL_BOUND * np.abs(want).max()


@pytest.mark.parametrize("n_steps,ns", [(31, None), (32, None), (33, None),
                                        (45, None), (24, 73), (24, 97)])
@pytest.mark.parametrize("start", ["hyperbolic", "elliptic"])
def test_constructor_is_near_the_matmul_reference(n_steps, ns, start):
    g0 = (GroupElement.diagonal(1.8) if start == "hyperbolic"
          else GroupElement(rotation(1.1)))
    p, a0 = exp_family(cone_gamma(), g0, n_steps=n_steps, mt=40)
    assert_near(cx.from_nonpositive_path(p, a0, ns=ns).grid,
                constructor_reference_matmul(p, a0, ns=ns))


@pytest.mark.parametrize("mt", [24, 96, 192, 256])
def test_rows_and_loops_share_one_step_rule(mt):
    # one midpoint step rule: a row's holonomy is its loop's, bit for bit
    p, a0 = exp_family(cone_gamma(), GroupElement.diagonal(1.8), n_steps=24,
                       mt=mt)
    conn = cx.from_nonpositive_path(p, a0)
    for i in range(conn.ns):
        assert_bits_equal(conn.holonomy_loop(i).m,
                          cx.LoopConnection(conn.grid[i]).holonomy().m)


@pytest.mark.parametrize("mt", [40], ids=["True"])  # the id keeps the name
def test_constructor_tracks_no_lift(mt, monkeypatch):
    # the start transports are products of step exponentials alone
    p, a0 = exp_family(cone_gamma(), GroupElement.diagonal(1.8), n_steps=24,
                       mt=mt)
    calls = []
    monkeypatch.setattr(cover, "track_lift_along",
                        lambda nodes, real=cover.track_lift_along:
                        calls.append(len(nodes)) or real(nodes))
    cx.from_nonpositive_path(p, a0)
    assert calls == []


# ---------------------------------------------------------------------------
# gauge action


def rotation_gauge(n, ns, mt):
    eta = cx.smoothstep(np.linspace(0.0, 1.0, ns))
    ang = n * np.pi * eta
    phi = np.zeros((ns, mt, 2, 2))
    phi[..., 0, 0] = np.cos(ang)[:, None]
    phi[..., 1, 1] = np.cos(ang)[:, None]
    phi[..., 0, 1] = -np.sin(ang)[:, None]
    phi[..., 1, 0] = np.sin(ang)[:, None]
    return phi


def test_gauge_crossing_class():
    phi = rotation_gauge(3, 33, 16)
    assert cx.gauge_crossing_class(phi) == 3
    assert cx.gauge_crossing_class(rotation_gauge(-2, 33, 16)) == -2


def test_gauge_shifts_rot_c_by_crossing_class():
    conn = cx.pullback_flat(cx.winding_loop(1, GAMMA_H, 128), 64)
    before = cx.rot_c(conn, 1.0)
    for n in (1, -2):
        gauged = cx.gauge(conn, rotation_gauge(n, conn.ns, conn.mt))
        assert cx.rot_c(gauged, 1.0) - before == float(n)


def gauge_reference(conn, phi, mul=mul2):
    """Gauge grid and frame with the products formed by mul, and with a
    broadcast identity for no frame."""
    phi0 = phi[0]
    dphi0 = cx._dt_of_grid(phi0, conn.dt, True)
    grid = project_reference(mul(mul(phi0, conn.grid) + dphi0, mat_inv(phi0)))
    old = conn.s_frame if conn.s_frame is not None else np.broadcast_to(
        np.eye(2), conn.grid.shape)
    return grid, mul(mul(phi0[None], old), mat_inv(phi))


def gauge_reference_matmul(conn, phi):
    """The gauge reference as it stood, with @ and two regauge products."""
    phi0 = phi[0]
    dphi0 = cx._dt_of_grid(phi0, conn.dt, True)
    inv0 = mat_inv(phi0)
    grid = project_reference(phi0 @ conn.grid @ inv0 + (dphi0 @ inv0)[None])
    old = conn.s_frame if conn.s_frame is not None else np.broadcast_to(
        np.eye(2), conn.grid.shape)
    return grid, phi0[None] @ old @ mat_inv(phi)


@pytest.mark.parametrize("n", [-3, 2])
def test_gauge_matches_broadcast_reference(n):
    conn = cx.pullback_flat(cx.cover(cx.winding_loop(1, GAMMA_H, 32), 2), 24)
    phi = rotation_gauge(n, 24, 32)
    for c in (conn, cx.dehn_twist(conn)):  # without and with a frame
        got = cx.gauge(c, phi)
        grid, frame = gauge_reference(c, phi)
        assert_bits_equal(got.grid, grid)
        assert_bits_equal(got.s_frame, frame)


@pytest.mark.parametrize("n", [-3, 2])
def test_gauge_is_near_the_matmul_reference(n):
    conn = cx.pullback_flat(cx.cover(cx.winding_loop(1, GAMMA_H, 32), 2), 24)
    phi = rotation_gauge(n, 24, 32)
    for c in (conn, cx.dehn_twist(conn)):
        got = cx.gauge(c, phi)
        grid, frame = gauge_reference_matmul(c, phi)
        assert_near(got.grid, grid)
        assert_near(got.s_frame, frame)


def test_gauge_preserves_curvature_margins():
    p, a0 = exp_family(cone_gamma(), GroupElement.diagonal(1.8))
    conn = cx.from_nonpositive_path(p, a0)
    gauged = cx.gauge(conn, rotation_gauge(2, conn.ns, conn.mt))
    assert np.abs(gauged.curvature_margins()
                  - conn.curvature_margins()).max() < 1e-7
    assert gauged.rot_boundary() == conn.rot_boundary()


# rot_c of a gauged winding cylinder across every sheet end k/r + d: the
# shift must equal the gauge's crossing class n.  At 16 nodes the frame
# and the transport turn so far between nodes that a node path of their
# product takes the wrong log branch in 25 of these cases
CROSSINGS = [(r, n, k, d) for r in (1, 2, 3)
             for n in (-4, -3, -2, -1, 1, 2, 3, 4)
             for k in range(r + 1) for d in (-1, 0, 1)]


def crossing_misses(size, cases):
    """The cases whose gauge shift or crossing class is not n half-turns."""
    misses = []
    flats = {}
    for r, n, k, d in cases:
        if r not in flats:
            flats[r] = cx.pullback_flat(
                cx.cover(cx.winding_loop(1, GAMMA_H, size), r), size)
        conn = flats[r]
        phi = rotation_gauge(n, size, size)
        tau = k / r + d
        shift = cx.rot_c(cx.gauge(conn, phi), tau) - cx.rot_c(conn, tau)
        cls = cx.gauge_crossing_class(phi, np.linspace(0.0, tau, size))
        if not shift == cls == n:
            misses.append((r, n, k, d, shift, cls))
    return misses


@pytest.mark.parametrize("size", [16, 24, 32])
def test_gauge_shift_is_crossing_class(size):
    assert crossing_misses(size, CROSSINGS) == []


def test_rot_c_needs_hyperbolic_ends_in_integer_mode():
    ell = cx.winding_loop(1, np.array([[0.0, -0.12], [0.12, 0.0]]), 128)
    conn = cx.pullback_flat(ell, 32)
    with pytest.raises(cx.NonHyperbolicBoundary):
        cx.rot_c(conn, 0.5)


# ---------------------------------------------------------------------------
# row sampling


def interp_reference(row, t, group):
    """One sample of one row, as the per-sample samplers computed it."""
    m = len(row)
    x = t * m if group else t / (1.0 / m)
    j = int(np.floor(x))
    frac = x - j
    j0, j1 = j % m, (j + 1) % m
    a, b = row[j0], row[j1]
    if group and np.sum(a * b) < 0:
        b = -b
    return (1.0 - frac) * a + frac * b


# ids as for the constructor cases: group, then the periodic flag
@pytest.mark.parametrize("group", [False, True],
                         ids=["False-True", "True-True"])
def test_interp_rows_matches_per_sample_reference(group):
    rng = np.random.default_rng([5, 1, group])
    rows = rng.normal(size=(4, 12, 2, 2))
    m = rows.shape[1]
    special = [0.0, 1.0, 3.0 / m, 7.0 / m, np.nextafter(1.0, 0.0),
               1.0 + 1e-13, -1e-13, -0.3, 1.7,
               -1.0, -2.0 + 0.25, 2.0, 2.5, 1e6 + 0.3]
    t = np.concatenate([np.tile(special, (4, 1)),
                        rng.uniform(-1.5, 2.5, size=(4, 30))], axis=1)
    got = cx._interp_rows(rows, t, group=group)
    assert got.shape == t.shape + (2, 2)
    for i in range(len(rows)):
        for k in range(t.shape[1]):
            want = interp_reference(rows[i], t[i, k], group)
            assert np.array_equal(got[i, k], want), (i, t[i, k])


def test_interp_rows_rejects_nonfinite_times():
    rows = np.zeros((2, 8, 2, 2))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            cx._interp_rows(rows, np.array([[0.5], [bad]]))


# ---------------------------------------------------------------------------
# storage


def plane_major(a):
    return all(a[..., i, j].flags.c_contiguous for i in (0, 1) for j in (0, 1))


def test_grids_and_frames_are_plane_major():
    p, a0 = exp_family(cone_gamma(), GroupElement.diagonal(1.8), n_steps=24,
                       mt=32)
    flat = cx.pullback_flat(cx.cover(cx.winding_loop(1, GAMMA_H, 32), 2), 24)
    twisted = cx.dehn_twist(flat)
    gauged = cx.gauge(flat, rotation_gauge(2, 24, 32))
    made = [cx.from_nonpositive_path(p, a0), flat, twisted, gauged,
            cx.gauge(twisted, rotation_gauge(-1, 24, 32)),
            cx.dehn_twist(gauged)]
    for conn in made:
        assert conn.grid.shape == (conn.ns, conn.mt, 2, 2)
        assert plane_major(conn.grid)
    for conn in made[2:]:
        assert plane_major(conn.s_frame)


def test_crossings_read_samples_without_copying_the_grid():
    size = 128
    conn = cx.dehn_twist(cx.pullback_flat(
        cx.cover(cx.winding_loop(1, GAMMA_H, size), 2), size))
    phi = planes((size, size, 2, 2))
    phi[...] = rotation_gauge(2, size, size)
    for read in (lambda: cx.rot_c(conn, 0.5),
                 lambda: cx.gauge_crossing_class(
                     phi, np.linspace(0.0, 1.0, size))):
        read()
        tracemalloc.start()
        try:
            read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < conn.grid.nbytes


# ---------------------------------------------------------------------------
# Dehn twist


def twist_pieces(conn):
    """The pullback twist computed one sample and one step at a time: the
    twisted grid, the frame psi, its t-derivative and the old frame at the
    twisted times (a broadcast identity when there is none)."""
    ns = conn.ns
    svals = np.linspace(0.0, 1.0, ns)
    beta = cx.smoothstep(svals)
    u = np.clip((svals - 0.25) * 2.0, 0.0, 1.0)
    dbeta = 60.0 * u ** 2 * (1.0 - u) ** 2
    times = [[float((tj - beta[i]) % 1.0) for tj in conn.t_nodes]
             for i in range(ns)]
    a_tw = np.array([[interp_reference(conn.grid[i], t, False)
                      for t in times[i]] for i in range(ns)])
    a_s = -dbeta[:, None, None, None] * a_tw
    psi = np.empty_like(a_tw)
    psi[0] = np.eye(2)
    for i in range(ns - 1):
        psi[i + 1] = psi[i] @ sl2_exp(-conn.ds * (0.5 * (a_s[i] + a_s[i + 1])))
    dpsi = np.stack([(np.roll(p, -1, axis=0) - np.roll(p, 1, axis=0))
                     / (2 * conn.dt) for p in psi])
    if conn.s_frame is None:
        old = np.broadcast_to(np.eye(2), a_tw.shape)
    else:
        old = np.array([[interp_reference(conn.s_frame[i], t, True)
                         for t in times[i]] for i in range(ns)])
    return a_tw, psi, dpsi, old


def twist_reference(conn, mul=mul2):
    """The twist with its grid products formed by mul."""
    a_tw, psi, dpsi, old = twist_pieces(conn)
    grid = mul(mul(psi, a_tw) + dpsi, mat_inv(psi))
    return cx.CylinderConnection(project_reference(grid),
                                 s_frame=mul(psi, old))


def twist_reference_matmul(conn):
    """The twist reference as it stood, with @ and two regauge products."""
    a_tw, psi, dpsi, old = twist_pieces(conn)
    inv_psi = mat_inv(psi)
    grid = psi @ a_tw @ inv_psi + dpsi @ inv_psi
    tr = grid[..., 0, 0] + grid[..., 1, 1]
    grid = grid - 0.5 * tr[..., None, None] * np.eye(2)
    return cx.CylinderConnection(grid, s_frame=psi @ old)


@pytest.mark.parametrize("size", [16, 24])
@pytest.mark.parametrize("gauged", [False, True])
def test_dehn_twist_matches_per_sample_reference(size, gauged):
    conn = cx.pullback_flat(cx.cover(cx.winding_loop(1, GAMMA_H, size), 2),
                            size)
    if gauged:
        conn = cx.gauge(conn, rotation_gauge(3, size, size))
    got, want = cx.dehn_twist(conn), twist_reference(conn)
    assert np.array_equal(got.grid, want.grid)
    assert np.array_equal(got.s_frame, want.s_frame)


@pytest.mark.parametrize("size", [16, 24])
@pytest.mark.parametrize("gauged", [False, True])
def test_dehn_twist_is_near_the_matmul_reference(size, gauged):
    conn = cx.pullback_flat(cx.cover(cx.winding_loop(1, GAMMA_H, size), 2),
                            size)
    if gauged:
        conn = cx.gauge(conn, rotation_gauge(3, size, size))
    got, want = cx.dehn_twist(conn), twist_reference_matmul(conn)
    assert_near(got.grid, want.grid)
    assert_near(got.s_frame, want.s_frame)


def test_dehn_twist_shifts_crossing_rot():
    base = cx.cover(cx.winding_loop(1, GAMMA_H, 192), 2)
    conn = cx.pullback_flat(base, 96)
    before = cx.rot_c(conn, 0.5)
    tw = cx.dehn_twist(conn)
    assert cx.rot_c(tw, 0.5) - before == -2.0
    assert tw.rot_boundary() == conn.rot_boundary()


@pytest.mark.parametrize("r", [1, 2, 3])
def test_twice_twisted_shift_is_minus_two_r(r):
    conn = cx.pullback_flat(cx.cover(cx.winding_loop(1, GAMMA_H, 96), r), 48)
    twice = cx.dehn_twist(cx.dehn_twist(conn))
    assert cx.rot_c(twice, 1.0 / r) - cx.rot_c(conn, 1.0 / r) == -2.0 * r
    assert twice.rot_boundary() == conn.rot_boundary()


def test_dehn_twist_curvature_vanishes_under_refinement():
    # twisting a flat connection is flat in the continuum; on the grid the
    # re-canonicalizing frame leaves second-order curvature residue
    norms = []
    for ns, mt in ((48, 96), (96, 192)):
        conn = cx.pullback_flat(cx.winding_loop(1, GAMMA_H, mt), ns)
        curv = cx.dehn_twist(conn).curvature_grid
        norms.append(np.linalg.norm(curv, axis=(2, 3)).max())
    assert norms[0] < 2e-2
    assert norms[1] < 0.35 * norms[0]


# ---------------------------------------------------------------------------
# the bound checker


def test_milnor_wood_report_shape():
    p, a0 = exp_family(cone_gamma(), GroupElement.diagonal(1.8))
    conn = cx.from_nonpositive_path(p, a0)
    rep = cx.milnor_wood_check(conn, flat=False, seed=7)
    for key in ("quantity", "value", "bound", "margin", "convention", "seed",
                "flat", "hypothesis_ok", "satisfied"):
        assert key in rep
    assert rep["satisfied"] and rep["hypothesis_ok"]
    assert rep["seed"] == 7


def test_milnor_wood_pants():
    from sl2rotor.cover import deck, lift_of

    l1 = lift_of(GroupElement.diagonal(2.0))
    l2 = deck(lift_of(GroupElement.rotation(1.1)), -1)
    data = cx.PantsHolonomyData(l1, l2)
    rep = cx.milnor_wood_check(data)
    assert rep["satisfied"]
    assert abs(rep["value"]) <= rep["bound"]

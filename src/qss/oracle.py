"""Dense state-vector oracle for qudit graph states.

Everything here works on explicit complex amplitude arrays, so it is slow.
The trace distances use no rank algebra; the decoders steer with the
witnesses that the rank machinery solves. A Weyl operator omega^p X^x Z^z on
m sites is one int64 row [x (m) | z (m) | p] of exponents read mod q, and a
stack of operators a stack of such rows; _weyl_product and _weyl_power hold
their algebra, and phases only turn into floats when an operator hits a state.

Every projective measurement is a Weyl measurement under one label rule,
_collapse, sampled by _draw_rows on one uniform: the dealer's X^t Z and the
players' X^{x_i} Z^{z_i} in a round and the appendix E1 Bell measurement's
two Z and E2 dealer's X, each on its one site (_measure_site), and the Bell
decode's syndromes, through full-register powers (_measure_rows); the sweep
decodes each set with both witnesses once.

Site ordering: states are flat amplitude rows (S, q^m), a StateVector
being the record of one row; site j is the j-th digit of the flat index,
most significant first. States on the player subsystem order the players
by ascending vertex index. _on_site applies a (k, q) matrix to one site of
every row: the Fourier steps, the projections, the Bell decode's
correction and the collapse of every one-site measurement.
"""

from __future__ import annotations

import hashlib
from dataclasses import InitVar, dataclass
from functools import cache
from itertools import combinations, groupby

import numpy as np

from .fqlinalg import as_integers, inv_mod, inverses_mod, require_prime
from .multigraph import Multigraph, delete_vertex, serialize_graph
from .access import QUANTUM_VERDICT, _check_b, _index_array, _members, _vector_pair, batch_indicators
from .access import verify_witness_pairs, witness_rows

AMPLITUDE_BUDGET = 2_000_000
# amplitudes in one stack of rows, a measurement's q powers counted
STACK_CAP = 2**15
ATOL = 1e-9


class BudgetExceeded(ValueError):
    """A state vector or density matrix would exceed the amplitude budget."""


def _admit(dim: int, budget: int) -> None:
    if dim > budget:
        raise BudgetExceeded(f"{dim} amplitudes exceed the budget of {budget}")


def _norms(rows: np.ndarray) -> np.ndarray:
    """The norm of each row of a stack (S, dim), reduced along that row alone."""
    return np.sqrt(np.vecdot(rows, rows).real)


def _check_norms(rows: np.ndarray) -> np.ndarray:
    """The stack itself, once every row's norm is within ATOL of 1."""
    drifted = (norms := _norms(rows))[abs(norms - 1.0) > ATOL]
    if drifted.size:
        raise AssertionError(f"state norm {drifted[0]} drifted beyond {ATOL}")
    return rows


@dataclass(frozen=True, eq=False)
class StateVector:
    """Dense pure state of n qudits of prime dimension q: one flat row of q^n amplitudes."""

    q: int
    n: int
    amplitudes: np.ndarray
    budget: InitVar[int] = AMPLITUDE_BUDGET

    def __post_init__(self, budget: int):
        require_prime(self.q)
        _admit(self.q**self.n, budget)
        object.__setattr__(self, "amplitudes", np.asarray(self.amplitudes, dtype=np.complex128).reshape(self.q**self.n))


def state_fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for pure states."""
    return abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2


@cache
def omega_table(q: int) -> np.ndarray:
    """omega^j for j in 0..q-1, built once per q and read-only."""
    table = np.exp(2j * np.pi * np.arange(q) / q)
    table.flags.writeable = False
    return table


def _split(ops: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x rows, z rows and phases of [x | z | phase] exponent rows."""
    m = ops.shape[-1] // 2
    return ops[..., :m], ops[..., m:-1], ops[..., -1]


def _join(x: np.ndarray, z: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """The [x | z | phase] rows of exponent rows x, z (..., m) and phases (...)."""
    return np.concatenate([x, z, phase[..., None]], axis=-1)


def _keep_sites(ops: np.ndarray, sites) -> np.ndarray:
    """[x | z | phase] rows on the given sites alone, in that order, the phase kept."""
    m, sites = ops.shape[-1] // 2, np.asarray(sites, dtype=np.int64)
    return ops[..., np.concatenate([sites, m + sites, [2 * m]])]


def _weyl_product(q: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """W_a W_b for [x | z | phase] rows a and b, broadcast, reduced mod q.
    Moving Z^{z_a} past X^{x_b} costs omega^{z_a.x_b}, as Z^b X^a =
    omega^{ab} X^a Z^b per site: the exponents add and the phase gains
    z_a.x_b. Each factor is reduced first, so every term stays below m q^2."""
    (xa, za, pa), (xb, zb, pb) = _split(a % q), _split(b % q)
    return _join((xa + xb) % q, (za + zb) % q, (pa + pb + (za * xb).sum(axis=-1)) % q)


def _weyl_power(q: int, ops: np.ndarray, m) -> np.ndarray:
    """W^m for [x | z | phase] rows and any integer m, or an integer array
    broadcast against the rows' leading axes, reduced mod q: m x, m z and
    m p + C(m, 2) z.x, each of the C(m, 2) reorderings costing z.x; m = -1
    gives the inverse, phase -p + z.x. W^q = omega^{C(q, 2) z.x}, I for odd
    q but -I for XZ at q = 2, so W's order divides 2q and m is reduced mod 2q
    before C(m, 2) is taken; with the factors reduced mod q every entry
    stays below 3q^2."""
    ops, m = ops % q, np.asarray(m, dtype=np.int64) % (2 * q)
    x, z, _ = _split(ops)
    out = m[..., None] * ops
    out[..., -1] += m * (m - 1) // 2 % q * ((z * x).sum(axis=-1) % q)
    return out % q


def _operator(q: int, ops, sites: int) -> np.ndarray:
    """A public operator's [x | z | phase] row as residues mod q; ValueError
    unless its entries are integers within int64 and it spans the sites."""
    row = as_integers(ops, "operator exponents")
    if row.shape != (2 * sites + 1,):
        raise ValueError("operator does not match the state register")
    return row % q


def _weyl_powers(q: int, psi: np.ndarray, ops: np.ndarray, top: int) -> list[np.ndarray]:
    """[psi, W psi, ..., W^top psi] for rows psi (S, q^m), row s mapped by
    its [x | z | phase] row W_s of ops (S, 2m + 1): W|y> = omega^{phase +
    z.y} |y + x>. Each power is one phase multiply and one gather by a flat
    index into the whole stack."""
    x, z, phase = _split(ops)
    rows, m = x.shape
    d = np.arange(q)
    # phase + z.y (each term mod q) and the flat stack index of y - x, summed
    # from per-axis tables from the last axis on, so each inner loop is long
    ztab, xtab = z[:, :, None] * d % q, (d - x[:, :, None]) % q * q ** np.arange(m - 1, -1, -1)[:, None]
    exp, src = phase[:, None] % q, np.arange(rows)[:, None] * q**m
    for v in reversed(range(m)):
        exp = (ztab[:, v, :, None] + exp[:, None]).reshape(rows, -1)
        src = (xtab[:, v, :, None] + src[:, None]).reshape(rows, -1)
    ph, out = np.resize(omega_table(q), q * (m + 1))[exp], [psi]
    for _ in range(top):
        out.append((out[-1] * ph).reshape(-1)[src])
    return out


def apply_weyl(state: StateVector, w) -> StateVector:
    """W|y> = omega^{phase + z.y} |y + x> for the [x | z | phase] row w,
    applied over the whole register."""
    out = _check_norms(_weyl_powers(state.q, state.amplitudes[None], _operator(state.q, w, state.n)[None], 1)[1])[0]
    return StateVector(state.q, state.n, out, budget=out.size)  # a map does not grow the register


def stabilizer_generator(g: Multigraph, u: int) -> np.ndarray:
    """K_u = X_u Z_{Gamma.{u}} on the full vertex register, as its [x | z | phase] row."""
    return _stabilizer_rows(g, np.arange(g.n) == u)


def _stabilizer_rows(g: Multigraph, w: np.ndarray) -> np.ndarray:
    """The [x | z | phase] rows of prod_u K_u^{w_u} = omega^{w.Gamma.w / 2}
    X^w Z^{Gamma w} for each weight row of w (..., n), on the full vertex
    register.

    Exact: K_u^q = I, so w mod q suffices. Multiplied out in any order, the
    reorderings cost omega^{w_u Gamma_uv w_v} once per pair u < v. Gamma is
    symmetric with a zero diagonal, so w.Gamma.w is twice that sum, even,
    and halves exactly once taken mod 2q, which keeps every product below
    2q^2 < 2^41 in int64. Reduced mod q before halving, Gamma w would lose
    the parity: at q = 2 the halved sum would be another phase.
    """
    x = np.asarray(w, dtype=np.int64) % g.q
    z = x @ g.gamma
    return _join(x, z % g.q, (x * (z % (2 * g.q))).sum(axis=-1) % (2 * g.q) // 2)


def graph_state(g: Multigraph, budget: int = AMPLITUDE_BUDGET) -> StateVector:
    """|G> with amplitude q^{-n/2} omega^{edge count of the induced
    sub-multigraph} at each basis label."""
    q, n = g.q, g.n
    _admit(q**n, budget)
    exp = np.zeros([q] * n, dtype=np.int64)
    # site v's digit, broadcast along axis v
    digit = [np.arange(q, dtype=np.int64).reshape([q if j == v else 1 for j in range(n)]) for v in range(n)]
    # one in-place add per lower vertex, not a full-size temporary per edge
    for u, group in groupby(g.edges(), key=lambda e: e[0]):
        exp += digit[u] * sum(w * digit[v] for _, v, w in group)
    amps = omega_table(q)[exp % q] * (q ** (-n / 2))
    return StateVector(q, n, _check_norms(amps.reshape(1, -1))[0], budget)


def _draw_rows(weights: np.ndarray, uniforms) -> tuple[np.ndarray, np.ndarray]:
    """(outcomes, probs) of weight rows (S, K), each clipped at zero, normalised
    and sampled by inverse CDF on its uniform: one per row, or drawn by a call
    uniforms(S) once every clipped total is finite and positive, else ValueError."""
    probs = np.maximum(weights, 0.0)
    total = probs.sum(axis=-1, keepdims=True)
    if (bad := ~(np.isfinite(total) & (total > 0))).any():
        raise ValueError(f"measurement weights sum to {total[bad][0]}")
    uniforms = uniforms(len(probs)) if callable(uniforms) else uniforms
    cdf = (probs := probs / total).cumsum(axis=-1)
    cdf /= cdf[:, -1:]
    # searchsorted(side="right") per row: the count of cdf entries <= u
    return (cdf <= np.asarray(uniforms)[:, None]).sum(axis=-1), probs


def measure_weyl(state: StateVector, w, rng: np.random.Generator):
    """Projective measurement of the Weyl operator of the [x | z | phase]
    row w; returns (label, state).

    For odd q every Weyl operator here satisfies W^q = I, the eigenvalues
    are omega^m and the projectors are the discrete Fourier sums of W^j.
    For q = 2 an operator with odd x.z = sum_v x_v z_v squares to -I; the
    measured observable is then -iW and the label m means eigenvalue
    i * (-1)^m of W itself. Even x.z keeps the plain (-1)^m convention. An
    operator on one site is measured there alone, others on the register.
    """
    ops = _operator(state.q, w, state.n)[None]
    x, z, _ = _split(ops)
    on = np.flatnonzero(x[0] | z[0])  # the sites w acts on
    args = (state.q, state.amplitudes[None], ops, rng.random)
    labels, out = _measure_site(*args, int(on[0])) if len(on) == 1 else _measure_rows(*args)
    return int(labels[0]), StateVector(state.q, state.n, out[0], budget=out.size)


def _measure_rows(q: int, psi: np.ndarray, ops: np.ndarray, uniforms) -> tuple[np.ndarray, np.ndarray]:
    """measure_weyl on each row of psi (S, q^m) with its own [x | z | phase]
    row of ops and its own uniform, through q - 1 full-register powers: the
    labels (S,) and the collapsed rows. Every reduction runs along one row,
    so a row's floats do not depend on the stack it sits in."""
    powers = _weyl_powers(q, psi, ops, q - 1)
    expect = np.stack([np.vecdot(psi, p) for p in powers], axis=-1)  # <psi|W^j|psi>
    return _collapse(q, ops, expect, uniforms, lambda c: sum(c[:, i, None] * p for i, p in enumerate(powers)) / q)


def _measure_site(q: int, psi: np.ndarray, ops: np.ndarray, uniforms, site: int) -> tuple[np.ndarray, np.ndarray]:
    """_measure_rows for operators on the given site alone: <psi|W^j|psi>
    from its q x q reduced state, the label's projector through _on_site."""
    wj = _site_powers(q, _keep_sites(ops, [site]))
    expect = np.einsum("sjab,sba->sj", wj, _site_density(q, psi, site))
    return _collapse(q, ops, expect, uniforms, lambda c: _on_site(q, psi, site, np.einsum("sj,sjab->sab", c / q, wj)))


def _collapse(q: int, ops: np.ndarray, expect: np.ndarray, uniforms, project) -> tuple[np.ndarray, np.ndarray]:
    """The labels _draw_rows draws from the expectations (S, q) of W^j, and
    project(c) for each label's coefficients c (S, q) of W^j, normalised."""
    j, (x, z, _) = np.arange(q), _split(ops)
    odd = (x * z).sum(axis=-1) % 2 if q == 2 else np.zeros(len(expect), dtype=np.int64)
    # the projector onto label m is sum_j coef[s, m, j] W_s^j / q; odd x.z measures -iW
    coef = omega_table(q)[-j[:, None] * j % q] * np.where(odd[:, None] & (j == 1), -1j, 1)[:, None]
    labels, _ = _draw_rows((coef * expect[:, None]).sum(axis=-1).real / q, uniforms)
    proj = project(coef[np.arange(len(expect)), labels])
    proj /= _norms(proj)[:, None]  # in place: one full-register allocation fewer per measurement
    return labels, _check_norms(proj)


def _site_powers(q: int, ops: np.ndarray) -> np.ndarray:
    """W^0, ..., W^{q-1} as q x q matrices on one site, for each one-site
    [x | z | phase] row of ops (S, 3): (S, q, q, q), indexed [s, j, row,
    column], W^j|c> = omega^{p_j + z_j c} |c + x_j> for W^j's row [x_j | z_j | p_j]."""
    r, c = np.arange(q)[:, None], np.arange(q)
    x, z, p = (e[..., None, None] for e in _weyl_power(q, ops, np.arange(q)[:, None]).T)
    return (r == (c + x) % q) * omega_table(q)[(p + z * c) % q]


def _site_density(q: int, rows: np.ndarray, site: int) -> np.ndarray:
    """The q x q reduced state rho[s, i, j] = sum psi_i psi_j^* of one site of each row (S, q^m)."""
    grid = np.ascontiguousarray(rows.reshape(len(rows), q**site, q, -1).transpose(0, 2, 1, 3)).reshape(len(rows), q, -1)
    return np.vecdot(grid[:, None], grid[:, :, None])


def _on_site(q: int, rows: np.ndarray, site: int, mat: np.ndarray) -> np.ndarray:
    """The (k, q) matrix mat, or one (S, k, q) per row, applied to one site
    of every row (S, q^m). With k = 1 the site is projected out, mat's row
    being the bra: each row is renormalised, and raises AssertionError
    unless its norm was within 1e-7 of 1, the site being in that state. The
    site's axis goes last (a copy unless it is the last site), so each row
    takes one product."""
    grid = rows.reshape(len(rows), q**site, q, -1).swapaxes(2, 3)
    out = grid.reshape(len(rows), -1, q) @ np.swapaxes(mat, -1, -2)
    out = out.reshape(*grid.shape[:3], -1).swapaxes(2, 3).reshape(len(rows), -1)
    if mat.shape[-2] == 1 and (bad := abs((norms := _norms(out)) - 1.0) > 1e-7).any():
        raise AssertionError(f"site {site} is not in the expected product state (residual norm {norms[bad][0]})")
    return out / norms[:, None] if mat.shape[-2] == 1 else out


# ---------------------------------------------------------------------------
# encodings


def _player_order(g: Multigraph, d: int) -> list[int]:
    return [v for v in range(g.n) if v != d]


def _codewords(g: Multigraph, d: int, values, budget: int) -> np.ndarray:
    """|s_L> for each s in values, one row each. The dealer-deleted graph
    state is built once and the codewords are its images under Xbar^s, Z^s
    on the dealer's neighbours, one stacked Weyl map. The budget admits the
    whole stack of len(values) q^(n - 1) amplitudes before any is built."""
    if g.degree(d) == 0:
        raise ValueError("isolated dealer: the encoding collapses")
    _admit(len(values) * g.q ** (g.n - 1), budget)
    base = graph_state(delete_vertex(g, d), budget=budget).amplitudes
    ops = _weyl_power(g.q, logical_x(g, d), list(values))
    return _check_norms(_weyl_powers(g.q, np.broadcast_to(base, (len(ops), len(base))), ops, 1)[1])


def cq_encode(g: Multigraph, d: int, s: int, budget: int = AMPLITUDE_BUDGET) -> StateVector:
    """Classical codeword |s_L> = Z^s on the dealer's neighbours applied to
    the dealer-deleted graph state. Lives on the n-1 players in vertex
    order."""
    return StateVector(g.q, g.n - 1, _codewords(g, d, [s], budget)[0], budget)


def _unit_secret(q: int, secret) -> np.ndarray:
    secret = np.asarray(secret, dtype=np.complex128).reshape(q)
    if abs(np.linalg.norm(secret) - 1.0) > 1e-7:
        raise ValueError("secret amplitudes must be normalized")
    return secret


def _superpose(words: np.ndarray, secrets: np.ndarray) -> np.ndarray:
    """sum_j secrets[:, j] words[j]: one encoded state per row of the
    secrets (S, len(words)). Checks the isometry of every row."""
    out = sum(secrets[:, j, None] * word for j, word in enumerate(words))
    if (abs(_norms(out) - 1.0) > 1e-7).any():
        raise AssertionError("encoding failed to be an isometry")
    return out


def qq_encode(g: Multigraph, d: int, secret, budget: int = AMPLITUDE_BUDGET) -> StateVector:
    """Quantum codeword sum_j secret[j] |j_L>. Checks the isometry."""
    secret = _unit_secret(g.q, secret)
    support = np.flatnonzero(secret).tolist()
    return StateVector(g.q, g.n - 1, _superpose(_codewords(g, d, support, budget), secret[None, support])[0], budget)


def _register_sites(state: StateVector, sites) -> list[int]:
    """Distinct site positions, ascending; any outside 0..n-1, negative too, raises."""
    keep = sorted(set(int(s) for s in sites))
    if keep and not (0 <= keep[0] and keep[-1] < state.n):
        raise ValueError("sites outside the register")
    return keep


def reduced_density(state: StateVector, sites, budget: int = AMPLITUDE_BUDGET) -> np.ndarray:
    """Partial trace down to the given site positions (sorted order)."""
    keep = _register_sites(state, sites)
    if state.q ** (2 * len(keep)) > budget:
        raise BudgetExceeded("reduced density matrix exceeds the amplitude budget")
    drop = [s for s in range(state.n) if s not in keep]
    grid = state.amplitudes.reshape([state.q] * state.n)
    rho = np.tensordot(grid, grid.conj(), axes=(drop, drop))
    return rho.reshape(2 * [state.q ** len(keep)])


def trace_distance(rho: np.ndarray, sigma: np.ndarray):
    """0.5 * sum |eigenvalues of rho - sigma|; for two stacks of matrices,
    an array of one distance per pair."""
    vals = np.abs(np.linalg.eigvalsh(rho - sigma))
    return 0.5 * float(vals.sum()) if vals.ndim == 1 else 0.5 * vals.sum(axis=-1)


def density_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    inner = root @ sigma @ root
    ivals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(np.sqrt(ivals).sum() ** 2)


def leak_profile(g: Multigraph, d: int, b_set, budget: int = AMPLITUDE_BUDGET) -> list[np.ndarray]:
    """The q reduced codeword states rho_s, s = 0..q-1, on the player
    positions of b_set."""
    players = _player_order(g, d)
    pos = [players.index(v) for v in _check_b(g, d, b_set)]
    words = _codewords(g, d, range(g.q), budget)
    return [reduced_density(StateVector(g.q, g.n - 1, word, budget), pos, budget=budget) for word in words]


def _set_trace_distances(words: np.ndarray, sets, budget: int) -> list[float]:
    """The largest trace distance between the q codewords (rows of words)
    reduced to each set of site positions. Codeword s is a q^|B| x r matrix
    A_s, r = q^(players - |B|), and rho_s = A_s A_s^dagger, so rho_s - rho_t
    has rank at most 2r. The sets of one size are stacked, STACK_CAP
    amplitudes at a time. Up to q^|B| = 2r the stack holds their reduced
    states, one matmul of a set's (q, q^|B|, r) factors, bit for bit
    reduced_density's product, and one trace_distance call takes every
    pair of every set, bit for bit the one-pair results. Above, it holds each
    pair's [A_s A_t], whose thin QR = Q R gives rho_s - rho_t = Q R J
    R^dagger Q^dagger, J = diag(I_r, -I_r): the same nonzero spectrum from
    the 2r x 2r matrix R J R^dagger, whose size the budget bounds as it
    bounds rho_s."""
    q, out, groups = len(words), {}, {}
    n = round(np.log(words.shape[1]) / np.log(q))
    grids = words.reshape([q] * (n + 1))
    # (q, q^|B|, r): axis 0 holds the codewords
    factors = lambda pos: np.moveaxis(grids, np.add(pos, 1), range(1, len(pos) + 1)).reshape(q, q ** len(pos), -1)
    s, t = np.array(list(combinations(range(q), 2))).T
    for i, pos in enumerate(sets):
        groups.setdefault(len(pos), []).append(i)
    for size, group in groups.items():
        dim, r = q**size, q ** (n - size)
        thin = dim > 2 * r  # [A_s A_t] is narrower than rho_s
        if min(dim, 2 * r) ** 2 > budget:
            raise BudgetExceeded(f"{'codeword Gram' if thin else 'reduced density'} matrices exceed the budget")
        shape = (len(s), dim, 2 * r) if thin else (q, dim, dim)
        step = max(1, STACK_CAP // int(np.prod(shape)))
        for chunk in (group[lo:lo + step] for lo in range(0, len(group), step)):
            stack = np.empty((len(chunk), *shape), dtype=np.complex128)
            for k, i in enumerate(chunk):
                f = factors(sets[i])
                if thin:
                    stack[k, ..., :r], stack[k, ..., r:] = f[s], f[t]
                else:
                    stack[k] = f @ np.ascontiguousarray(f.conj().swapaxes(-1, -2))
            if thin:
                rf = np.linalg.qr(stack, mode="r")
                gaps = np.linalg.eigvalsh(rf * np.repeat([1.0, -1.0], r) @ rf.conj().swapaxes(-1, -2))
                out.update(zip(chunk, 0.5 * abs(gaps).sum(axis=-1).max(axis=-1)))
            else:
                out.update(zip(chunk, trace_distance(stack[:, s], stack[:, t]).max(axis=-1)))
    return [float(out[i]) for i in range(len(sets))]


# ---------------------------------------------------------------------------
# protocol machinery


def decode_params(g: Multigraph, d: int, b_set, d_vec, c_vec, t: int) -> tuple[np.ndarray, int]:
    """The basis-t round operator and its decoding offset from the witness pair.

    The operator is V_B^t U_B^{-1} = K_C^t K_D^{1 - t*beta}, the code
    unitaries of _code_rows multiplied out, as its [x | z | phase] row on
    the full vertex register: vertex v measures X^{x[v]} Z^{z[v]}, the
    dealer X^t Z. The operator fixes |G>, so a round decodes the secret as
    offset - total, offset = -phase, plus half the operator's XZ weight at
    q = 2, where single Weyl factors square to -I. t = 0 works with c_vec =
    None (V_B is then the identity). q = 2 allows t in {0, 1}.
    """
    q = g.q
    t = int(t) % q
    b = _check_b(g, d, b_set)
    if t != 0 and c_vec is None:
        raise ValueError("basis t != 0 needs the hiding witness C")
    u, v = _code_rows(g, d, [b], *_vector_pair(g, d_vec, c_vec))[0]
    row = _weyl_product(q, _weyl_power(q, v, t), _weyl_power(q, u, -1))
    x, z, phase = (e.tolist() for e in _split(row))
    if (x[d], z[d]) != (t, 1):
        raise AssertionError("dealer factor of the stabilizer product is off")
    weight = sum(xv * zv for xv, zv in zip(x, z)) if q == 2 else 0  # the dealer's X^t Z adds t
    if weight % 2:
        raise AssertionError("total XZ weight of the round operator must be even")
    return row, (weight // 2 - phase) % q


def cq_round(
    g: Multigraph,
    d: int,
    b_set,
    t: int,
    rng: np.random.Generator,
    on_unauthorized: str = "raise",
    budget: int = AMPLITUDE_BUDGET,
) -> tuple[int, int]:
    """One round of the classical protocol in basis t.

    The dealer measures the Weyl operator X^t Z on their qudit of |G>,
    getting s(t); each player i in b_set measures X^{x_i} Z^{z_i}, both
    read from the round operator's [x | z | phase] row, and the players
    decode offset - total, the offset read from that row's phase (see
    decode_params). Returns (s, m); the contract for an authorized set is
    m = s. Each measurement draws one uniform, so a round draws 1 + |b_set|.

    A set without a round-t decoder raises by default: one that cannot read
    the basis-0 secret (no witness D), or, at t != 0, one without a hiding
    witness C. on_unauthorized="measure" makes the players of any such set
    measure Z and decode -total instead, modelling a best-effort attack.
    """
    if on_unauthorized not in ("raise", "measure"):
        raise ValueError("on_unauthorized must be 'raise' or 'measure'")
    q = g.q
    t = int(t) % q
    b = _check_b(g, d, b_set)
    comp = [v for v in range(g.n) if v != d and v not in b]
    # D (none iff pi = 0) and, at t != 0, C over B + {d}, from one solve
    d_rows, d_found, c_rows, c_found = witness_rows(g, d, [b], [comp] if t else [])
    if d_found[0] and (t == 0 or c_found[0]):
        row, offset = decode_params(g, d, b, d_rows[0], c_rows[0] if t else None, t)
    elif on_unauthorized == "raise":
        if d_found[0]:
            raise ValueError("basis t != 0 needs a quantum-accessible set (no hiding witness exists)")
        raise ValueError("player set cannot access the secret; protocol contract violated")
    else:  # X^t Z on the dealer, Z on every player, decoded as -total
        row, offset = np.r_[t * (np.arange(g.n) == d), [int(v not in comp) for v in range(g.n)], 0], 0

    on, state, outcomes = np.eye(g.n, dtype=np.int64), graph_state(g, budget=budget), []
    for v in (d, *b):  # the dealer first, then the players ascending
        m_v, state = measure_weyl(state, row * np.r_[on[v], on[v], 0], rng)
        outcomes.append(m_v)
    return outcomes[0], (offset - sum(outcomes[1:])) % q


# ---------------------------------------------------------------------------
# quantum decoding


def logical_x(g: Multigraph, d: int) -> np.ndarray:
    """Xbar = Z on the dealer's neighbour multiset, as its [x | z | phase]
    row on the player register; shifts |i_L> to |(i+1)_L>."""
    _check_b(g, d, ())
    z = g.gamma[d, _player_order(g, d)]
    return np.concatenate([0 * z, z, [0]])


def logical_z(g: Multigraph, d: int) -> np.ndarray:
    """Zbar = (X_u Z_{Gamma.{u}})^{-1/Gamma(u,d)} for the first player u
    adjacent to the dealer, as its [x | z | phase] row on the player
    register, the dealer's Z power dropped; phases |i_L> by omega^i."""
    _check_b(g, d, ())
    for u in _player_order(g, d):
        if g.gamma[u, d] % g.q:
            w = -inv_mod(int(g.gamma[u, d]), g.q) * (np.arange(g.n) == u)
            return _keep_sites(_stabilizer_rows(g, w), _player_order(g, d))
    raise ValueError("no player adjacent to the dealer; logical Z undefined")


def code_unitaries(g: Multigraph, d: int, b_set, d_vec, c_vec) -> np.ndarray:
    """(U_B, V_B) on the player register from a valid witness pair, as a
    (2, 2(n-1)+1) array of [x | z | phase] rows: U_B |s_L> = omega^s |s_L>
    and V_B |s_L> = |(s+1)_L>, both supported on b_set only. The stack of
    one of _code_rows, the dealer's site dropped."""
    b = _check_b(g, d, b_set)
    if d_vec is None or c_vec is None:
        raise ValueError("quantum decoding needs both witnesses")
    return _keep_sites(_code_rows(g, d, [b], *_vector_pair(g, d_vec, c_vec))[0], _player_order(g, d))


def _code_rows(g: Multigraph, d: int, sets, d_rows, c_rows) -> np.ndarray:
    """(U_B, V_B) of each checked player set from its witness rows (S, n),
    as (S, 2, 2n + 1) [x | z | phase] rows on the full vertex register:
    U_B = K_D^{-1} and V_B = K_C K_D^{-beta}, beta = Gamma_d.C, or I if C is
    None, D scaled to dealer multiplicity alpha = 1. ValueError unless each
    pair meets qss.access.verify_witness_pairs and each C has dealer
    coefficient 1."""
    if not verify_witness_pairs(g, d, sets, d_rows, c_rows).all():
        raise ValueError(f"witness {'D' if c_rows is None else 'pair'} fails the access conditions")
    q = g.q
    if c_rows is None:
        c_rows = 0 * d_rows
    elif ((c_rows := c_rows % q)[:, d] != 1).any():
        raise ValueError("witness C must have dealer coefficient 1")
    d_rows = d_rows * inverses_mod(d_rows @ g.gamma[d] % q, q)[:, None] % q
    beta = c_rows @ g.gamma[d] % q
    ops = _stabilizer_rows(g, np.stack([-d_rows, c_rows - beta[:, None] * d_rows], axis=1))
    (x, z, _), outside = _split(ops), ~_members(g.n, sets)
    outside[:, d] = False
    for k, name in enumerate(("U_B", "V_B")):
        if ((x[:, k] + z[:, k]) * outside).any():
            raise AssertionError(f"{name} acts outside the player set")
    return ops


@dataclass(frozen=True)
class BellDecodeResult:
    amplitudes: np.ndarray
    fidelity: float
    syndrome: tuple[int, int]
    used_fallback: bool


def qq_decode_bell(
    g: Multigraph,
    d: int,
    b_set,
    encoded: StateVector,
    rng: np.random.Generator,
    expected,
    budget: int = AMPLITUDE_BUDGET,
) -> BellDecodeResult:
    """Teleport the logical secret out of the encoded state via a Bell pair
    and report its fidelity to the expected secret amplitudes.

    Two ancillas join the player register in |00>+...+|q-1,q-1>. The set
    measures V_B^{-1} X_{a1}^{-1} (syndrome k) and U_B Z_{a1}^{-1}
    (syndrome l, recorded as minus the eigenvalue label), then applies
    Z^k X^{-l} on the second ancilla, which afterwards carries the secret.

    The witnesses D and C are solved here. When either does not exist the
    identity operators stand in (used_fallback = True); the measurements
    then fail to steer and the reported fidelity stays below 1. This
    simulated stand-in decode is the reference for the closed form that
    oracle_reports takes for such a set (_decode_fidelities). A set that
    holds the dealer or leaves the vertex range raises ValueError, as does
    an encoded register other than the graph's n - 1 players.
    """
    if (encoded.q, encoded.n) != (g.q, g.n - 1):
        raise ValueError("operator does not match the state register")
    steering, fallback = _steering(g, d, [_check_b(g, d, b_set)])
    rho, syndrome = _bell_decode(g.q, steering, encoded.amplitudes[None], rng.random((1, 2)), budget)
    return BellDecodeResult(_top_eigenvector(rho[0])[1], _fidelity(rho[0], expected), tuple(syndrome[0].tolist()),
                            bool(fallback[0]))


def _steering(g: Multigraph, d: int, sets) -> tuple[np.ndarray, np.ndarray]:
    """The _code_rows of each checked player set on the player register, for
    _bell_decode, and the mask of the sets without a witness D or C, whose
    rows are the identity stand-ins. One witness_rows call finds, for every
    set B, its D and its C over B + {d} (witness_C of V - B - {d})."""
    d_rows, d_found, c_rows, c_found = witness_rows(g, d, sets, [[v for v in range(g.n) if v != d and v not in b]
                                                                 for b in sets])
    ok = d_found & c_found
    rows = np.zeros((len(sets), 2, 2 * g.n - 1), dtype=np.int64)
    rows[ok] = _keep_sites(_code_rows(g, d, [b for b, found in zip(sets, ok) if found], d_rows[ok], c_rows[ok]),
                           _player_order(g, d))
    return rows, ~ok


def _top_eigenvector(rho: np.ndarray) -> tuple[float, np.ndarray]:
    """The largest eigenvalue of a density matrix and its unit eigenvector,
    phased so that its largest-magnitude entry is real and positive."""
    vals, vecs = np.linalg.eigh(rho)
    top = int(np.argmax(vals))
    vec = vecs[:, top]
    pivot = int(np.argmax(abs(vec)))
    return float(vals[top]), vec * (abs(vec[pivot]) / vec[pivot])


def _bell_decode(q: int, steering: np.ndarray, encoded: np.ndarray, uniforms: np.ndarray, budget: int):
    """qq_decode_bell's measurements and correction on a stack of encoded
    states (S, q^(n-1)), each steered by its (U_B, V_B) rows of _steering
    and measured on its row of uniforms (S, 2): the second ancilla's density
    matrices (S, q, q) and the syndromes (k, l) as an (S, 2) array."""
    _admit(encoded.shape[1] * q * q, budget)
    bell = np.eye(q, dtype=np.complex128).reshape(-1) / np.sqrt(q)
    full = (encoded[:, :, None] * bell).reshape(len(encoded), -1)
    # the ancillas a1, a2 follow the players: V_B^{-1} X_{a1}^{-1}, then U_B Z_{a1}^{-1}
    (vx, vz, vp), (ux, uz, up) = _split(_weyl_power(q, steering[:, 1], -1)), _split(steering[:, 0])
    pad = lambda e, a1: np.column_stack([e, np.full(len(e), a1), 0 * e[:, 0]])
    k, full = _measure_rows(q, full, _join(pad(vx, -1), pad(vz, 0), vp), uniforms[:, 0])
    l_label, full = _measure_rows(q, full, _join(pad(ux, 0), pad(uz, -1), up), uniforms[:, 1])
    l = -l_label % q
    # Z^k X^{-l} = omega^{-kl} X^{-l} Z^k on a2, the last site
    last = ux.shape[1] + 1
    full = _check_norms(_on_site(q, full, last, _site_powers(q, np.stack([-l, k, -k * l], axis=1))[:, 1]))
    return _site_density(q, full, last), np.stack([k, l], axis=1)


def _fidelity(rho: np.ndarray, expected) -> float:
    """<expected| rho |expected> for a decoded qudit density matrix."""
    expected = np.asarray(expected, dtype=np.complex128).reshape(len(rho))
    return float(np.real(expected.conj() @ rho @ expected))


# ---------------------------------------------------------------------------
# appendix encode/decode variants


def apply_controlled(state: StateVector, control: int, w) -> StateVector:
    """Apply W^j to the rest of the register for each digit j of the control
    site; digit 0 is left alone. The [x | z | phase] row w acts on the
    remaining sites in their order. A control outside 0..n-1 raises."""
    [control] = _register_sites(state, [control])
    q, w = state.q, _operator(state.q, w, state.n - 1)
    grid = np.moveaxis(state.amplitudes.reshape([q] * state.n), control, 0).reshape(q, -1)
    grid = _weyl_powers(q, grid, _weyl_power(q, w, np.arange(q)), 1)[1]
    out = np.moveaxis(grid.reshape([q] * state.n), 0, control).reshape(1, -1)
    return StateVector(q, state.n, _check_norms(out)[0], budget=out.size)


def _fourier_matrix(q: int) -> np.ndarray:
    j = np.arange(q)
    return omega_table(q)[np.outer(j, j) % q] / np.sqrt(q)


def encode_decode_variants(
    g: Multigraph,
    d: int,
    mode: str,
    secret,
    b_set=None,
    rng: np.random.Generator | None = None,
    budget: int = AMPLITUDE_BUDGET,
):
    """The appendix encoding and decoding circuits.

    E1: secret qudit + |G>, Bell measurement on (secret, dealer), made by
        undoing the Bell preparation and measuring Z on both sites; players
        correct with Zbar^k Xbar^{-l}. Returns the player state.
    E2: secret sits on the dealer wire over |0_L>, controlled-Xbar spreads
        it, the dealer measures in the X basis, players correct by
        Zbar^{-j}. Returns the player state.
    E3: unitary version: controlled-Xbar, Fourier on the dealer, then
        controlled-Zbar^{-1}; the dealer wire ends exactly in |+> and is
        factored out. Returns the player state. Deterministic.
    D2: decoding first stage on an authorized b_set (default: everyone):
        ancilla |+> controls V_B^{-1}. Returns the joint ancilla+players
        state (ancilla axis last).
    D3: full decode: D2 then Fourier on the ancilla, controlled-U_B,
        inverse Fourier. Returns the recovered secret amplitudes.

    E1 and E2 sample measurement outcomes (E1 two, E2 one, one uniform
    each) and need rng; the contract is that every outcome reproduces
    qq_encode(g, d, secret) exactly.
    """
    q = g.q
    secret = _unit_secret(q, secret)
    players = _player_order(g, d)
    if mode in ("E1", "E2") and rng is None:
        raise ValueError(f"mode {mode} simulates a measurement and needs rng")
    # m applied to site v of a register; a one-row m projects the site out
    on_site = lambda sv, v, m: StateVector(q, sv.n - (len(m) == 1), _on_site(q, sv.amplitudes[None], v, m)[0], budget)

    if mode == "E1":
        _admit(q ** (1 + g.n), budget)
        full = StateVector(q, 1 + g.n, np.kron(secret, graph_state(g, budget=budget).amplitudes), budget)
        # undo the Bell preparation on (secret, dealer), controlled-X^{-1} then
        # Fourier^dagger, which takes |beta_kl> = sum_i omega^{ki} |i, i+l> / sqrt(q)
        # to |k, l>, and measure Z on both sites
        on = np.eye(1 + g.n, dtype=np.int64)
        full = apply_controlled(full, 0, np.r_[-on[1 + d, 1:], 0 * on[0, 1:], 0])
        full = on_site(full, 0, _fourier_matrix(q).conj().T)
        k, full = measure_weyl(full, np.r_[0 * on[0], on[0], 0], rng)
        l, full = measure_weyl(full, np.r_[0 * on[0], on[1 + d], 0], rng)
        # remaining axes: the players in vertex order
        rest = on_site(on_site(full, 0, np.eye(q)[[k]]), d, np.eye(q)[[l]])
        correction = _weyl_product(q, _weyl_power(q, logical_z(g, d), k), _weyl_power(q, logical_x(g, d), -l))
        return apply_weyl(rest, correction)

    if mode == "E2" or mode == "E3":
        # register: dealer wire first, then players in vertex order
        zero_l = cq_encode(g, d, 0, budget=budget)
        _admit(q**g.n, budget)
        full = StateVector(q, g.n, np.kron(secret, zero_l.amplitudes), budget)
        xbar, zbar = logical_x(g, d), logical_z(g, d)
        full = apply_controlled(full, 0, xbar)
        if mode == "E2":
            # label j leaves the dealer wire in column j of the conjugate Fourier
            # matrix (whose bra is row j of the Fourier matrix), the X eigenvector of
            # eigenvalue omega^j, so Zbar^{-j} removes the leftover phase omega^{js}.
            on = np.eye(full.n, dtype=np.int64)
            j, full = measure_weyl(full, np.r_[on[0], 0 * on[0], 0], rng)
            full = on_site(full, 0, _fourier_matrix(q)[[j]])
            return apply_weyl(full, _weyl_power(q, zbar, -j))
        full = apply_controlled(on_site(full, 0, _fourier_matrix(q)), 0, _weyl_power(q, zbar, -1))
        return on_site(full, 0, np.ones((1, q)) / np.sqrt(q))

    if mode in ("D2", "D3"):
        steering, fallback = _steering(g, d, [_check_b(g, d, players if b_set is None else b_set)])
        if fallback[0]:
            raise ValueError("decoding variants need an authorized player set")
        u_op, v_op = steering[0]
        encoded = qq_encode(g, d, secret, budget=budget)
        # the ancilla |+> is the last site
        _admit(q**g.n, budget)
        full = StateVector(q, g.n, np.kron(encoded.amplitudes, np.ones(q) / np.sqrt(q)), budget)
        anc = full.n - 1
        full = apply_controlled(full, anc, _weyl_power(q, v_op, -1))
        if mode == "D2":
            return full
        fmat = _fourier_matrix(q)
        full = apply_controlled(on_site(full, anc, fmat), anc, u_op)
        full = on_site(full, anc, fmat.conj().T)
        val, top = _top_eigenvector(reduced_density(full, [anc], budget=budget))
        if val < 1.0 - 1e-7:
            raise AssertionError("ancilla failed to decouple; decoding is not exact here")
        return top

    raise ValueError(f"unknown mode {mode!r}; expected E1, E2, E3, D2 or D3")


# ---------------------------------------------------------------------------
# report


def graph_hash(g: Multigraph) -> str:
    return hashlib.sha256(serialize_graph(g).encode()).hexdigest()[:16]


def _decode_fidelities(g: Multigraph, words, steering, fallback, secrets: np.ndarray, uniforms, budget: int):
    """Each secret's Bell-decode fidelity: the steered rows decoded in stacks
    within STACK_CAP or of one decode, each fallback row's |sum_i s_i|^2 / q.
    With identity stand-ins the first syndrome measures X^{-1} on a1: label k
    leaves a2 in sum_i omega^{-ki} |i> / sqrt(q). The second measures Z^{-1}
    on a1 alone, now in product with a2, which does not change. The correction
    Z^k X^{-l} takes a2 to |+> = sum_i |i> / sqrt(q) whatever (k, l). Both
    operators have x.z = 0, so the q = 2 -iW convention does not apply."""
    fids, steered = abs(secrets.sum(axis=-1)) ** 2 / g.q, np.flatnonzero(~fallback)
    step = max(1, STACK_CAP // g.q ** (g.n + 2))
    for rows in (steered[lo:lo + step] for lo in range(0, len(steered), step)):
        rho = _bell_decode(g.q, steering[rows], _superpose(words, secrets[rows]), uniforms[rows], budget)[0]
        fids[rows] = [*map(_fidelity, rho, secrets[rows])]
    return fids.tolist()


def oracle_reports(
    g: Multigraph, d: int, sets, rng: np.random.Generator, budget: int = AMPLITUDE_BUDGET
) -> list[dict]:
    """Cross-check records for the player sets of one (graph, dealer), in order.

    verdict_graph comes from the rank algebra, one batch_indicators call for
    the sets of every size. verdict_oracle comes from the dense simulation:
    the trace distances between reduced codewords, and the Bell-decode
    fidelity of the set and its complement. The decode steers with
    witnesses solved in fqlinalg, so a fidelity of 1 certifies access; the
    no_info verdict rests on the trace distances. The codewords are built
    once, and the code unitaries of every decoded set come from one stacked
    witness solve. The decode's budget is checked before anything is built.
    Every draw comes next, in set-by-set order: a secret, two uniforms for
    the set's decode and two for a nonempty complement's. The trace
    distances follow. A set with every trace distance at most 1e-7 reads
    the decode of its nonempty complement: the complement's own row when it
    is swept, as with both witnesses it decodes with fidelity 1 for every
    secret, and without them its closed form nears 1 only near the uniform
    superposition; else a row of its own, on the set's secret and last two
    uniforms. One stacked pass Bell-decodes the rows with both witnesses,
    each set once; the others' fidelities take the closed form of
    _decode_fidelities. A complement's fidelity is read only where its
    set's is below 1 - 1e-7.
    """
    sets = [_check_b(g, d, b) for b in sets]
    _admit(g.q ** (g.n + 1) if sets else 0, budget)
    words = _codewords(g, d, range(g.q), budget)
    derivative = batch_indicators(g.gamma[None], g.q, d, _index_array(sets))[1][0].tolist()
    players = _player_order(g, d)
    comps = [tuple(v for v in players if v not in b) for b in sets]
    secrets, draws = np.empty((len(sets), g.q), dtype=np.complex128), np.zeros((len(sets), 4))
    for i, comp in enumerate(comps):
        secret = rng.normal(size=g.q) + 1j * rng.normal(size=g.q)
        secrets[i] = secret / np.linalg.norm(secret)
        draws[i, :4 if comp else 2] = rng.random(4 if comp else 2)
    max_td = _set_trace_distances(words, [[players.index(v) for v in b] for b in sets], budget)
    at = {b: i for i, b in enumerate(sets)}
    read = [i for i, comp in enumerate(comps) if comp and max_td[i] <= 1e-7]
    own = [i for i in read if comps[i] not in at]
    steering, fallback = _steering(g, d, sets + [comps[i] for i in own])
    fid = _decode_fidelities(g, words, steering, fallback, secrets[[*range(len(sets)), *own]],
                             np.concatenate([draws[:, :2], draws[own, 2:]]), budget)
    at |= {comps[i]: k for k, i in enumerate(own, len(sets))}  # each decode row, by its player set
    hidden = {i for i in read if fid[at[comps[i]]] >= 1 - 1e-7}
    digest = graph_hash(g)
    return [{
        "graph_hash": digest,
        "B": list(b),
        "verdict_graph": QUANTUM_VERDICT[derivative[i]],
        "verdict_oracle": "accessible" if fid[i] >= 1 - 1e-7 else "no_info" if i in hidden else "partial",
        "max_trace_distance": max_td[i],
        "decode_fidelity": fid[i],
    } for i, b in enumerate(sets)]

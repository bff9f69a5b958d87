"""Dense state-vector oracle for qudit graph states.

Everything here works on explicit complex amplitude arrays, so it is slow.
The trace distances use no rank algebra; the decoders steer with the
witnesses that the rank machinery solves. Phases are tracked as integer powers
of omega = exp(2*pi*i/q) inside WeylOperator and only turned into floats
when an operator hits a state.

Site ordering: a StateVector over m qudits reshapes to [q]*m with axis j
holding site j's digit, most significant first. States on the player
subsystem order the players by ascending vertex index.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .fqlinalg import inv_mod, require_prime
from .multigraph import Multigraph, Multiset, delete_vertex, serialize_graph
from .access import QUANTUM_VERDICT, _check_b, batch_indicators, verify_witness_pair, witness_C, witness_D

AMPLITUDE_BUDGET = 2_000_000
ATOL = 1e-9


class BudgetExceeded(ValueError):
    """A state vector or density matrix would exceed the amplitude budget."""


class StateVector:
    """Dense pure state of m qudits of prime dimension q."""

    def __init__(self, q: int, n: int, amplitudes, budget: int = AMPLITUDE_BUDGET):
        require_prime(q)
        dim = q**n
        if dim > budget:
            raise BudgetExceeded(f"q^n = {dim} amplitudes exceed the budget of {budget}")
        amps = np.asarray(amplitudes, dtype=np.complex128).reshape(dim).copy()
        self.q = q
        self.n = n
        self.amplitudes = amps

    @classmethod
    def _derived(cls, q: int, n: int, amplitudes) -> "StateVector":
        """Wrap amplitudes already admitted by an entry-point budget check.

        Measurement collapses, single-site unitaries and projections never
        grow the register, so re-checking against the default budget would
        wrongly reject states a caller explicitly allowed.
        """
        sv = cls.__new__(cls)
        sv.q = q
        sv.n = n
        sv.amplitudes = np.asarray(amplitudes, dtype=np.complex128).reshape(q**n)
        return sv

    @classmethod
    def computational(cls, q: int, n: int, digits) -> "StateVector":
        digits = list(digits)
        if len(digits) != n:
            raise ValueError("one digit per site required")
        index = 0
        for x in digits:
            index = index * q + int(x) % q
        amps = np.zeros(q**n, dtype=np.complex128)
        amps[index] = 1.0
        return cls(q, n, amps)

    def grid(self) -> np.ndarray:
        """View as an n-axis array, axis j = site j, most significant first."""
        return self.amplitudes.reshape([self.q] * self.n)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def check_normalized(self) -> "StateVector":
        if abs(self.norm() - 1.0) > ATOL:
            raise AssertionError(f"state norm {self.norm()} drifted beyond {ATOL}")
        return self

    def inner(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def tensor(self, other: "StateVector", budget: int = AMPLITUDE_BUDGET) -> "StateVector":
        if other.q != self.q:
            raise ValueError("tensor factors must share the qudit dimension")
        amps = np.kron(self.amplitudes, other.amplitudes)
        return StateVector(self.q, self.n + other.n, amps, budget=budget)

    def __repr__(self):
        return f"StateVector(q={self.q}, n={self.n})"


def state_fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for pure states."""
    return abs(a.inner(b)) ** 2


@dataclass(frozen=True)
class WeylOperator:
    """omega^phase * prod_v X_v^{x_powers[v]} Z_v^{z_powers[v]}.

    Composition, powers and inverses track the global phase exactly as an
    integer exponent of omega, using X^a Z^b |x> = omega^{b.x} |x+a> and
    Z^b X^a = omega^{a b} X^a Z^b per site. Stabilizer products skip this
    algebra: _stabilizer_product writes each down in closed form.
    """

    q: int
    x_powers: tuple[int, ...]
    z_powers: tuple[int, ...]
    phase: int = 0

    def __post_init__(self):
        require_prime(self.q)
        object.__setattr__(self, "x_powers", tuple(int(a) % self.q for a in self.x_powers))
        object.__setattr__(self, "z_powers", tuple(int(b) % self.q for b in self.z_powers))
        object.__setattr__(self, "phase", int(self.phase) % self.q)
        if len(self.x_powers) != len(self.z_powers):
            raise ValueError("x and z exponent tuples differ in length")

    @classmethod
    def identity(cls, q: int, n: int) -> "WeylOperator":
        return cls(q, (0,) * n, (0,) * n, 0)

    @property
    def n(self) -> int:
        return len(self.x_powers)

    def __matmul__(self, other: "WeylOperator") -> "WeylOperator":
        if other.q != self.q or other.n != self.n:
            raise ValueError("operator shapes differ")
        # (X^a1 Z^b1)(X^a2 Z^b2): moving Z^b1 past X^a2 costs omega^{b1.a2}
        cross = sum(b * a for b, a in zip(self.z_powers, other.x_powers))
        return WeylOperator(
            self.q,
            tuple(a1 + a2 for a1, a2 in zip(self.x_powers, other.x_powers)),
            tuple(b1 + b2 for b1, b2 in zip(self.z_powers, other.z_powers)),
            self.phase + other.phase + cross,
        )

    def inverse(self) -> "WeylOperator":
        cross = sum(b * a for b, a in zip(self.z_powers, self.x_powers))
        return WeylOperator(
            self.q,
            tuple(-a for a in self.x_powers),
            tuple(-b for b in self.z_powers),
            -self.phase + cross,
        )

    def __pow__(self, m: int) -> "WeylOperator":
        if m < 0:
            return self.inverse() ** (-m)
        # W^m phase: m*t + C(m,2) * (b.a) from repeated reordering
        cross = sum(b * a for b, a in zip(self.z_powers, self.x_powers))
        return WeylOperator(
            self.q,
            tuple(m * a for a in self.x_powers),
            tuple(m * b for b in self.z_powers),
            m * self.phase + (m * (m - 1) // 2) * cross,
        )

    def factor_site(self, site: int) -> "WeylOperator":
        """The operator on the remaining sites, in order, with the site split
        off and the global phase kept. Exact only for a site with no X
        component, where the operator factorizes strictly; any other site
        raises."""
        if self.x_powers[site] != 0:
            raise ValueError("cannot cleanly factor a site with an X component")
        keep = [v for v in range(self.n) if v != site]
        return WeylOperator(
            self.q,
            tuple(self.x_powers[v] for v in keep),
            tuple(self.z_powers[v] for v in keep),
            self.phase,
        )


@cache
def omega_table(q: int) -> np.ndarray:
    """omega^j for j in 0..q-1, built once per q and read-only."""
    table = np.exp(2j * np.pi * np.arange(q) / q)
    table.flags.writeable = False
    return table


def _weyl_on_grid(q: int, grid: np.ndarray, w: WeylOperator) -> np.ndarray:
    """Raw W|x> = omega^{phase + b.x} |x + a> on an n-axis amplitude grid."""
    n = grid.ndim
    exp = np.zeros([q] * n, dtype=np.int64)
    for v, b in enumerate(w.z_powers):
        if b:
            shape = [1] * n
            shape[v] = q
            exp = exp + b * np.arange(q, dtype=np.int64).reshape(shape)
    out = grid * omega_table(q)[(exp + w.phase) % q]
    for v, a in enumerate(w.x_powers):
        if a:
            out = np.roll(out, a, axis=v)
    return out


def apply_weyl(state: StateVector, w: WeylOperator) -> StateVector:
    """W|x> = omega^{phase + b.x} |x + a>, applied over the whole register."""
    if w.q != state.q or w.n != state.n:
        raise ValueError("operator does not match the state register")
    return StateVector._derived(state.q, state.n, _weyl_on_grid(state.q, state.grid(), w)).check_normalized()


def stabilizer_generator(g: Multigraph, u: int) -> WeylOperator:
    """K_u = X_u Z_{Gamma.{u}} on the full vertex register."""
    return _stabilizer_product(g, np.arange(g.n) == u)


def _stabilizer_product(g: Multigraph, w) -> WeylOperator:
    """prod_u K_u^{w_u} = omega^{w.Gamma.w / 2} X^w Z^{Gamma w} for a
    length-n weight vector w, on the full vertex register.

    Exact: K_u^q = I, so w mod q suffices. Multiplied out in any order, the
    reorderings cost omega^{w_u Gamma_uv w_v} once per pair u < v. Gamma is
    symmetric with a zero diagonal, so w.Gamma.w is twice that sum, even,
    and halves exactly in Python ints.
    """
    x = [int(a) % g.q for a in w]
    z = (g.gamma @ np.array(x, dtype=np.int64)).tolist()
    return WeylOperator(g.q, x, z, sum(a * b for a, b in zip(x, z)) // 2)


def graph_state(g: Multigraph, budget: int = AMPLITUDE_BUDGET) -> StateVector:
    """|G> with amplitude q^{-n/2} omega^{edge count of the induced
    sub-multigraph} at each basis label."""
    q, n = g.q, g.n
    if q**n > budget:
        raise BudgetExceeded(f"q^n = {q ** n} amplitudes exceed the budget of {budget}")
    exp = np.zeros([q] * n, dtype=np.int64)
    ar = np.arange(q, dtype=np.int64)
    for u, v, w in g.edges():
        su = [1] * n
        su[u] = q
        sv = [1] * n
        sv[v] = q
        exp = exp + w * ar.reshape(su) * ar.reshape(sv)
    amps = omega_table(q)[exp % q] * (q ** (-n / 2))
    return StateVector._derived(q, n, amps).check_normalized()


def mub_vector(q: int, t: int, i: int) -> np.ndarray:
    """Eigenbasis vector |i(t)> of X^t Z with eigenvalue omega^i.

    t = 0 is the computational basis. For odd q and t >= 1 the quadratic
    phase needs 1/(2t) and 1/t mod q. q = 2 supports only t = 1, with the
    convention XZ |i(1)> = (-1)^i * i * |i(1)>.
    """
    require_prime(q)
    t, i = t % q, i % q
    if t == 0:
        vec = np.zeros(q, dtype=np.complex128)
        vec[i] = 1.0
        return vec
    if q == 2:
        return np.array([1.0, -1j if i == 0 else 1j]) / np.sqrt(2)
    inv2t = inv_mod(2 * t, q)
    invt = inv_mod(t, q)
    j = np.arange(q)
    exp = (j * (j - t) * inv2t - i * invt * j) % q
    return omega_table(q)[exp] / np.sqrt(q)


def mub_basis(q: int, t: int) -> np.ndarray:
    """q x q matrix whose column i is |i(t)>."""
    return np.stack([mub_vector(q, t, i) for i in range(q)], axis=1)


def _draw(weights: np.ndarray, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """(outcome, probs): the outcome probabilities are the weights clipped
    at zero and normalised, and one outcome is drawn from them. Every
    measurement samples here."""
    probs = np.clip(weights, 0.0, None)
    probs = probs / probs.sum()
    return int(rng.choice(len(probs), p=probs)), probs


def measure_site_basis(state: StateVector, site: int, basis: np.ndarray, rng: np.random.Generator):
    """Projective measurement of one site in an orthonormal basis (columns).

    Returns (outcome, collapsed state). The measured site is left in the
    outcome basis vector.
    """
    q = state.q
    grid = np.moveaxis(state.grid(), site, 0).reshape(q, -1)
    overlaps = basis.conj().T @ grid  # row i = <i|psi> component
    outcome, probs = _draw((abs(overlaps) ** 2).sum(axis=1).real, rng)
    residual = overlaps[outcome] / np.sqrt(probs[outcome])
    collapsed = np.tensordot(basis[:, outcome], residual, axes=0).reshape([q] + [q] * (state.n - 1))
    collapsed = np.moveaxis(collapsed, 0, site)
    return outcome, StateVector._derived(q, state.n, collapsed).check_normalized()


def measure_weyl(state: StateVector, w: WeylOperator, rng: np.random.Generator):
    """Projective measurement of a Weyl operator; returns (label, state).

    For odd q every Weyl operator here satisfies W^q = I, the eigenvalues
    are omega^m and the projectors are the discrete Fourier sums of W^j.
    For q = 2 an operator with odd x.z = sum_v x_v z_v squares to -I; the
    measured observable is then -iW and the label m means eigenvalue
    i * (-1)^m of W itself. Even x.z keeps the plain (-1)^m convention.
    """
    q = state.q
    if w.q != q or w.n != state.n:
        raise ValueError("operator does not match the state register")
    # W^j |psi> for j < q, as flat amplitude arrays
    powers = [state.grid()]
    for _ in range(q - 1):
        powers.append(_weyl_on_grid(q, powers[-1], w))
    powers = [p.reshape(-1) for p in powers]
    if q != 2:
        table = omega_table(q)
        expect = np.array([np.vdot(powers[0], p) for p in powers])
        m, _ = _draw(np.array([(table ** (-m) * expect).sum().real / q for m in range(q)]), rng)
        proj = sum(table[(-m * j) % q] * p for j, p in enumerate(powers)) / q
    else:
        psi, wpsi = powers
        odd = sum(a * b for a, b in zip(w.x_powers, w.z_powers)) % 2 == 1
        scale = -1j if odd else 1.0  # measured observable is scale * W
        branches = [0.5 * (psi + (-1) ** m * scale * wpsi) for m in range(2)]
        m, _ = _draw(np.array([np.vdot(b, b).real for b in branches]), rng)
        proj = branches[m]
    return m, StateVector._derived(q, state.n, proj / np.linalg.norm(proj)).check_normalized()


def eigenvalue_label(state: StateVector, w: WeylOperator) -> int:
    """m with W|psi> = omega^m |psi>, for a state that is an exact
    eigenvector; raises if it is not one within tolerance."""
    q = state.q
    out = apply_weyl(state, w)
    pivot = int(np.argmax(abs(state.amplitudes)))
    ratio = out.amplitudes[pivot] / state.amplitudes[pivot]
    angle = np.angle(ratio) * q / (2 * np.pi)
    m = int(np.round(angle)) % q
    if np.linalg.norm(out.amplitudes - omega_table(q)[m] * state.amplitudes) > 1e-8:
        raise AssertionError("state is not an eigenvector of the given operator")
    return m


# ---------------------------------------------------------------------------
# encodings


def _player_order(g: Multigraph, d: int) -> list[int]:
    return [v for v in range(g.n) if v != d]


def _codewords(g: Multigraph, d: int, values, budget: int) -> list[StateVector]:
    """|s_L> for each s in values. The dealer-deleted graph state is built
    once and each codeword is its image under Z^s on the dealer's
    neighbours."""
    if g.degree(d) == 0:
        raise ValueError("isolated dealer: the encoding collapses")
    base = graph_state(delete_vertex(g, d), budget=budget)
    xbar = logical_x(g, d)
    return [apply_weyl(base, xbar**s) for s in values]


def cq_encode(g: Multigraph, d: int, s: int, budget: int = AMPLITUDE_BUDGET) -> StateVector:
    """Classical codeword |s_L> = Z^s on the dealer's neighbours applied to
    the dealer-deleted graph state. Lives on the n-1 players in vertex
    order."""
    return _codewords(g, d, [s], budget)[0]


def _unit_secret(q: int, secret) -> np.ndarray:
    secret = np.asarray(secret, dtype=np.complex128).reshape(q)
    if abs(np.linalg.norm(secret) - 1.0) > 1e-7:
        raise ValueError("secret amplitudes must be normalized")
    return secret


def _superpose(g: Multigraph, words, secret: np.ndarray) -> StateVector:
    """sum_j secret[j] words[j] over the secret's support. Checks the isometry."""
    out = None
    for j in np.flatnonzero(secret).tolist():
        out = secret[j] * words[j].amplitudes if out is None else out + secret[j] * words[j].amplitudes
    state = StateVector._derived(g.q, g.n - 1, out)
    if abs(state.norm() - 1.0) > 1e-7:
        raise AssertionError("encoding failed to be an isometry")
    return state


def qq_encode(g: Multigraph, d: int, secret, budget: int = AMPLITUDE_BUDGET) -> StateVector:
    """Quantum codeword sum_j secret[j] |j_L>. Checks the isometry."""
    secret = _unit_secret(g.q, secret)
    support = np.flatnonzero(secret).tolist()
    return _superpose(g, dict(zip(support, _codewords(g, d, support, budget))), secret)


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
    grid = state.grid()
    rho = np.tensordot(grid, grid.conj(), axes=(drop, drop))
    dim = state.q ** len(keep)
    return rho.reshape(dim, dim)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho - sigma)).sum())


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
    return [reduced_density(word, pos, budget=budget) for word in _codewords(g, d, range(g.q), budget)]


def _max_trace_distance(rhos) -> float:
    return max(trace_distance(a, b) for a, b in combinations(rhos, 2))


def info_leak(g: Multigraph, d: int, b_set, budget: int = AMPLITUDE_BUDGET) -> float:
    """Max trace distance between reduced codeword states on b_set: 0 iff
    the set has no classical information; 1 with orthogonal supports iff it
    can read the secret perfectly."""
    return _max_trace_distance(leak_profile(g, d, b_set, budget=budget))


def schmidt_rank(state: StateVector, sites) -> int:
    """Schmidt rank of the bipartition (sites, rest): singular values above 1e-7.

    For a graph state |G> the Schmidt rank across (B, rest) is q^cutrk(B).
    """
    keep = _register_sites(state, sites)
    grid = np.moveaxis(state.grid(), keep, range(len(keep)))
    mat = grid.reshape(state.q ** len(keep), -1)
    sing = np.linalg.svd(mat, compute_uv=False)
    return int((sing > 1e-7).sum())


# ---------------------------------------------------------------------------
# protocol machinery


def _validated_pair(g: Multigraph, d: int, b, d_ms, c_ms):
    """Normalize and sanity check the witness pair; returns (D, C) with the
    dealer coefficient of C equal to 1 and alpha = 1, or raises."""
    d_ms = Multiset(g.q, d_ms)
    c_ms = None if c_ms is None else Multiset(g.q, c_ms)
    if not verify_witness_pair(g, d, b, d_ms, c_ms):
        raise ValueError(f"witness {'D' if c_ms is None else 'pair'} fails the access conditions")
    alpha = int((g.gamma[d] @ d_ms.as_vector(g.n)) % g.q)
    if alpha != 1:
        inv = inv_mod(alpha, g.q)
        d_ms = Multiset(g.q, {v: (w * inv) % g.q for v, w in d_ms.items()})
    if c_ms is not None and c_ms[d] != 1:
        raise ValueError("witness C must have dealer coefficient 1")
    return d_ms, c_ms


@dataclass(frozen=True)
class DecodeParams:
    """Player-side measurement data for the basis-t round.

    x[i], z[i] give the Weyl exponents measured by player i; c is the
    constructive phase that makes the assembled stabilizer product fix |G>.
    half_correction is the extra mod-2 term needed at q = 2 where single
    Weyl factors square to -I.
    """

    q: int
    t: int
    beta: int
    x: dict[int, int]
    z: dict[int, int]
    c: int
    half_correction: int

    def f_t(self, r: int) -> int:
        return (-r - self.c - (self.t * (self.t - 1) // 2) * self.beta) % self.q

    def decode(self, total: int) -> int:
        return (self.f_t(total) + self.half_correction) % self.q


def decode_params(g: Multigraph, d: int, b_set, d_ms, c_ms, t: int) -> DecodeParams:
    """Assemble the round-t measurement parameters from the witness pair.

    The stabilizer product K_C^t K_D^{1 - t*beta} has weight
    t*C + (1 - t*beta)*D; its exact global phase defines c. t = 0 works with
    c_ms = None (the C factor never enters). q = 2 allows t in {0, 1}.
    """
    q = g.q
    t = int(t) % q
    b = _check_b(g, d, b_set)
    if t != 0 and c_ms is None:
        raise ValueError("basis t != 0 needs the hiding witness C")
    d_ms, c_ms = _validated_pair(g, d, b, d_ms, c_ms)
    c_vec = np.zeros(g.n, dtype=np.int64) if c_ms is None else c_ms.as_vector(g.n)
    beta = int((g.gamma[d] @ c_vec) % q)
    # C is 1 at the dealer and otherwise supported on b
    s_product = _stabilizer_product(g, t * c_vec + (1 - t * beta) * d_ms.as_vector(g.n))

    for v in range(g.n):
        if v == d or v in b:
            continue
        if s_product.x_powers[v] or s_product.z_powers[v]:
            raise AssertionError("stabilizer product leaks outside the player set")
    if s_product.x_powers[d] != t or s_product.z_powers[d] != 1:
        raise AssertionError("dealer factor of the stabilizer product is off")

    x = {i: s_product.x_powers[i] for i in b}
    z = {i: s_product.z_powers[i] for i in b}
    half = t * (t - 1) // 2
    c = (s_product.phase - half * beta) % q

    half_corr = 0
    if q == 2:
        weight = t + sum(x[i] * z[i] for i in b)
        if weight % 2:
            raise AssertionError("total XZ weight of the round operator must be even")
        half_corr = (weight // 2) % 2
    return DecodeParams(q, t, beta, x, z, c, half_corr)


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

    The dealer measures their qudit of |G> in the X^t Z eigenbasis getting
    s(t); each player in b_set measures X^{x_i} Z^{z_i}; the players combine
    outcomes through the affine decoder. Returns (s, m); the contract for an
    authorized set is m = s.

    An unauthorized set raises by default. on_unauthorized="measure" makes
    the players measure computational digits and decode with the trivial
    map instead, modelling a best-effort attack that the hiding theorem
    forces to be uncorrelated with s.
    """
    if on_unauthorized not in ("raise", "measure"):
        raise ValueError("on_unauthorized must be 'raise' or 'measure'")
    q = g.q
    t = int(t) % q
    b = _check_b(g, d, b_set)
    dms = witness_D(g, d, b)  # None iff pi = 0
    params = None
    if dms is not None:
        if t == 0:
            params = decode_params(g, d, b, dms, None, 0)
        else:
            comp = [v for v in range(g.n) if v != d and v not in b]
            cms = witness_C(g, d, comp)
            if cms is None:
                raise ValueError("basis t != 0 needs a quantum-accessible set (no hiding witness exists)")
            params = decode_params(g, d, b, dms, cms, t)
    elif on_unauthorized == "raise":
        raise ValueError("player set cannot access the secret; protocol contract violated")

    state = graph_state(g, budget=budget)
    s, state = measure_site_basis(state, d, mub_basis(q, t), rng)
    players = _player_order(g, d)
    total = 0
    if params is None:
        for v in b:
            m_v, state = measure_site_basis(state, v, np.eye(q, dtype=np.complex128), rng)
            total += m_v
        return s, (-total) % q
    for v in b:
        on_v = np.arange(g.n) == v
        m_v, state = measure_weyl(state, WeylOperator(q, params.x[v] * on_v, params.z[v] * on_v), rng)
        total += m_v
    return s, params.decode(total)


# ---------------------------------------------------------------------------
# quantum decoding


def logical_x(g: Multigraph, d: int) -> WeylOperator:
    """Xbar = Z on the dealer's neighbour multiset; shifts |i_L> to
    |(i+1)_L> on the player register."""
    _check_b(g, d, ())
    return WeylOperator(g.q, (0,) * g.n, tuple(g.gamma[d].tolist()), 0).factor_site(d)


def logical_z(g: Multigraph, d: int) -> WeylOperator:
    """Zbar = (X_u Z_{Gamma.{u}})^{-1/Gamma(u,d)} for the first player u
    adjacent to the dealer; phases |i_L> by omega^i."""
    _check_b(g, d, ())
    for u in _player_order(g, d):
        if g.gamma[u, d] % g.q:
            w = -inv_mod(int(g.gamma[u, d]), g.q) * (np.arange(g.n) == u)
            return _stabilizer_product(g, w).factor_site(d)
    raise ValueError("no player adjacent to the dealer; logical Z undefined")


def code_unitaries(g: Multigraph, d: int, b_set, d_ms, c_ms) -> tuple[WeylOperator, WeylOperator]:
    """(U_B, V_B) on the player register from a valid witness pair:
    U_B |s_L> = omega^s |s_L> and V_B |s_L> = |(s+1)_L>, both supported on
    b_set only."""
    b = _check_b(g, d, b_set)
    if d_ms is None or c_ms is None:
        raise ValueError("quantum decoding needs both witnesses")
    d_ms, c_ms = _validated_pair(g, d, b, d_ms, c_ms)
    d_vec, c_vec = d_ms.as_vector(g.n), c_ms.as_vector(g.n)
    beta = int((g.gamma[d] @ c_vec) % g.q)
    c_vec[d] = 0  # C's dealer weight 1 is the logical X; D and the rest of C live on b
    u_op = _stabilizer_product(g, -d_vec).factor_site(d)
    v_op = logical_x(g, d) @ _stabilizer_product(g, c_vec - beta * d_vec).factor_site(d)
    for p, v in enumerate(_player_order(g, d)):
        if v in b:
            continue
        for op, name in ((u_op, "U_B"), (v_op, "V_B")):
            if op.x_powers[p] or op.z_powers[p]:
                raise AssertionError(f"{name} acts outside the player set")
    return u_op, v_op


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
    then fail to steer and the reported fidelity stays below 1. A set that
    holds the dealer or leaves the vertex range raises ValueError.
    """
    return _bell_decode(g.q, _steering(g, d, _check_b(g, d, b_set)), encoded, rng, expected, budget)


def _steering(g: Multigraph, d: int, b: tuple[int, ...]) -> tuple[WeylOperator, WeylOperator, bool]:
    """(U_B, V_B, used_fallback) for qq_decode_bell: the code unitaries of
    the solved witness pair, else the identity stand-ins."""
    d_ms = witness_D(g, d, b)
    # without D the fallback is certain, so C's solve would be wasted
    c_ms = None if d_ms is None else witness_C(g, d, [v for v in range(g.n) if v != d and v not in b])
    if c_ms is None:
        identity = WeylOperator.identity(g.q, g.n - 1)
        return identity, identity, True
    return (*code_unitaries(g, d, b, d_ms, c_ms), False)


def _top_eigenvector(rho: np.ndarray) -> tuple[float, np.ndarray]:
    """The largest eigenvalue of a density matrix and its unit eigenvector,
    phased so that its largest-magnitude entry is real and positive."""
    vals, vecs = np.linalg.eigh(rho)
    top = int(np.argmax(vals))
    vec = vecs[:, top]
    pivot = int(np.argmax(abs(vec)))
    return float(vals[top]), vec * (abs(vec[pivot]) / vec[pivot])


def _bell_decode(q: int, steering, encoded: StateVector, rng: np.random.Generator, expected, budget: int):
    u_op, v_op, used_fallback = steering
    bell = np.eye(q, dtype=np.complex128) / np.sqrt(q)
    full = StateVector(q, encoded.n + 2, np.kron(encoded.amplitudes, bell.reshape(-1)), budget=budget)

    # the ancillas a1, a2 follow the players: append their exponents
    v_inv = v_op.inverse()
    m1 = WeylOperator(q, (*v_inv.x_powers, -1, 0), (*v_inv.z_powers, 0, 0), v_inv.phase)
    m2 = WeylOperator(q, (*u_op.x_powers, 0, 0), (*u_op.z_powers, -1, 0), u_op.phase)
    k, full = measure_weyl(full, m1, rng)
    l_label, full = measure_weyl(full, m2, rng)
    l = (-l_label) % q
    a2 = full.n - 1
    # Z^k X^{-l} = omega^{-kl} X^{-l} Z^k on a2
    full = apply_weyl(full, WeylOperator(q, (0,) * a2 + (-l,), (0,) * a2 + (k,), -k * l))

    rho = reduced_density(full, [a2], budget=budget)
    top = _top_eigenvector(rho)[1]
    expected = np.asarray(expected, dtype=np.complex128).reshape(q)
    fid = float(np.real(expected.conj() @ rho @ expected))
    return BellDecodeResult(top, fid, (k, l), used_fallback)


# ---------------------------------------------------------------------------
# appendix encode/decode variants


def bell_basis_vector(q: int, k: int, l: int) -> np.ndarray:
    """|beta_{k,l}> = (Z^k x X^l) sum_i |ii> / sqrt(q), flattened over two
    qudit axes."""
    out = np.zeros((q, q), dtype=np.complex128)
    table = omega_table(q)
    for i in range(q):
        out[i, (i + l) % q] = table[(k * i) % q] / np.sqrt(q)
    return out.reshape(-1)


def bell_measure(state: StateVector, site_a: int, site_b: int, rng: np.random.Generator):
    """Projective Bell measurement of two sites; returns (k, l, residual
    state on the remaining sites in order)."""
    q = state.q
    grid = np.moveaxis(state.grid(), (site_a, site_b), (0, 1)).reshape(q * q, -1)
    rest_shape = [q] * (state.n - 2)
    # residual k * q + l is <beta_{k,l}| on the two sites
    residuals = [bell_basis_vector(q, k, l).conj() @ grid for k in range(q) for l in range(q)]
    pick, probs = _draw(np.array([np.vdot(res, res).real for res in residuals]), rng)
    k, l = divmod(pick, q)
    res = residuals[pick] / np.sqrt(probs[pick])
    out = StateVector._derived(q, state.n - 2, res.reshape(rest_shape) if rest_shape else res)
    return k, l, out.check_normalized()


def apply_controlled(state: StateVector, control: int, w: WeylOperator) -> StateVector:
    """Apply W^j to the rest of the register for each digit j of the control
    site; digit 0 is left alone. w acts on the remaining sites in their
    order."""
    q = state.q
    grid = np.moveaxis(state.grid(), control, 0).copy()
    for j in range(1, q):
        grid[j] = _weyl_on_grid(q, grid[j], w**j)
    out = np.moveaxis(grid, 0, control)
    return StateVector._derived(q, state.n, out).check_normalized()


def _fourier_matrix(q: int) -> np.ndarray:
    j = np.arange(q)
    return omega_table(q)[np.outer(j, j) % q] / np.sqrt(q)


def _apply_site(state: StateVector, site: int, mat: np.ndarray) -> StateVector:
    """The q x q matrix mat applied to one site of the register."""
    grid = np.tensordot(mat, np.moveaxis(state.grid(), site, 0), axes=(1, 0))
    return StateVector._derived(state.q, state.n, np.moveaxis(grid, 0, site))


def _project_site(state: StateVector, site: int, vec: np.ndarray) -> StateVector:
    """Contract one site against a unit vector; errors if the site was not
    exactly in that state (norm loss above 1e-7)."""
    grid = np.moveaxis(state.grid(), site, 0)
    res = np.tensordot(vec.conj(), grid, axes=(0, 0))
    norm = np.linalg.norm(res)
    if abs(norm - 1.0) > 1e-7:
        raise AssertionError(f"site {site} is not in the expected product state (residual norm {norm})")
    return StateVector._derived(state.q, state.n - 1, res / norm)


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

    E1: secret qudit + |G>, Bell measurement on (secret, dealer), players
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

    E1 and E2 sample a measurement outcome and need rng; the contract is
    that every outcome reproduces qq_encode(g, d, secret) exactly.
    """
    q = g.q
    secret = _unit_secret(q, secret)
    players = _player_order(g, d)
    if mode in ("E1", "E2") and rng is None:
        raise ValueError(f"mode {mode} simulates a measurement and needs rng")

    if mode == "E1":
        full = StateVector(q, 1, secret).tensor(graph_state(g, budget=budget), budget=budget)
        k, l, rest = bell_measure(full, 0, 1 + d, rng)
        # remaining axes: the players in vertex order
        xbar, zbar = logical_x(g, d), logical_z(g, d)
        corr = (zbar**k) @ (xbar ** ((-l) % q))
        return apply_weyl(rest, corr)

    if mode == "E2" or mode == "E3":
        # register: dealer wire first, then players in vertex order
        zero_l = cq_encode(g, d, 0, budget=budget)
        full = StateVector(q, 1, secret).tensor(zero_l, budget=budget)
        xbar, zbar = logical_x(g, d), logical_z(g, d)
        full = apply_controlled(full, 0, xbar)
        if mode == "E2":
            # X eigenbasis: column j has X-eigenvalue omega^j, so the
            # leftover phase on |s_L> is omega^{js} and Zbar^{-j} removes it.
            xbasis = _fourier_matrix(q).conj()
            j, full = measure_site_basis(full, 0, xbasis, rng)
            full = _project_site(full, 0, xbasis[:, j])
            return apply_weyl(full, zbar ** ((-j) % q))
        full = apply_controlled(_apply_site(full, 0, _fourier_matrix(q)), 0, zbar.inverse())
        plus = np.ones(q, dtype=np.complex128) / np.sqrt(q)
        return _project_site(full, 0, plus)

    if mode in ("D2", "D3"):
        u_op, v_op, fallback = _steering(g, d, _check_b(g, d, players if b_set is None else b_set))
        if fallback:
            raise ValueError("decoding variants need an authorized player set")
        encoded = qq_encode(g, d, secret, budget=budget)
        plus = StateVector(q, 1, np.ones(q, dtype=np.complex128) / np.sqrt(q))
        full = encoded.tensor(plus, budget=budget)  # ancilla is the last axis
        anc = full.n - 1
        full = apply_controlled(full, anc, v_op.inverse())
        if mode == "D2":
            return full
        fmat = _fourier_matrix(q)
        full = apply_controlled(_apply_site(full, anc, fmat), anc, u_op)
        full = _apply_site(full, anc, fmat.conj().T)
        val, top = _top_eigenvector(reduced_density(full, [anc], budget=budget))
        if val < 1.0 - 1e-7:
            raise AssertionError("ancilla failed to decouple; decoding is not exact here")
        return top

    raise ValueError(f"unknown mode {mode!r}; expected E1, E2, E3, D2 or D3")


# ---------------------------------------------------------------------------
# report


def graph_hash(g: Multigraph) -> str:
    return hashlib.sha256(serialize_graph(g).encode()).hexdigest()[:16]


def oracle_reports(
    g: Multigraph, d: int, sets, rng: np.random.Generator, budget: int = AMPLITUDE_BUDGET
) -> list[dict]:
    """Cross-check records for the player sets of one (graph, dealer), in order.

    verdict_graph comes from the rank algebra, one batch_indicators call per
    set size. verdict_oracle comes from the dense simulation: the trace
    distances between reduced codewords, and the Bell-decode fidelity of the
    set and its complement. The decode steers with witnesses solved in
    fqlinalg, so a fidelity of 1 certifies access; the no_info verdict rests
    on the trace distances. The codewords and each set's code unitaries are
    built once; per set come the densities, a fresh secret and two decodes.
    """
    sets = [_check_b(g, d, b) for b in sets]
    words = _codewords(g, d, range(g.q), budget)
    derivative = {}
    for size in sorted({len(b) for b in sets}):
        group = [b for b in sets if len(b) == size]
        ranked = batch_indicators(g.gamma[None], g.q, d, np.array(group, dtype=np.intp).reshape(len(group), size))
        derivative.update(zip(group, ranked[1][0].tolist()))
    players = _player_order(g, d)
    comps = {b: tuple(v for v in players if v not in b) for b in sets}
    steering = {b: _steering(g, d, b) for b in {*sets, *comps.values()}}
    digest = graph_hash(g)
    rows = []
    for b in sets:
        pos = [players.index(v) for v in b]
        max_td = _max_trace_distance([reduced_density(word, pos, budget=budget) for word in words])
        secret = rng.normal(size=g.q) + 1j * rng.normal(size=g.q)
        secret = _unit_secret(g.q, secret / np.linalg.norm(secret))
        encoded = _superpose(g, words, secret)
        fid_b = _bell_decode(g.q, steering[b], encoded, rng, secret, budget).fidelity
        comp = comps[b]
        fid_comp = _bell_decode(g.q, steering[comp], encoded, rng, secret, budget).fidelity if comp else None
        hidden = fid_comp is not None and fid_comp >= 1 - 1e-7 and max_td <= 1e-7
        rows.append({
            "graph_hash": digest,
            "B": list(b),
            "verdict_graph": QUANTUM_VERDICT[derivative[b]],
            "verdict_oracle": "accessible" if fid_b >= 1 - 1e-7 else "no_info" if hidden else "partial",
            "max_trace_distance": float(max_td),
            "decode_fidelity": float(fid_b),
        })
    return rows

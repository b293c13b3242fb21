"""Second-quantized fermionic operators and the Jordan-Wigner map.

Operators are stored as lists of normal-ordered terms
c * a†_{i1} ... a†_{ik} a_{j1} ... a_{jm} with canonical index order:
creations strictly descending, annihilations strictly ascending.  With that
convention the Hermitian conjugate of a canonical term is again canonical
with (cre, ann) -> (reversed ann, reversed cre) and no extra sign.

Spin orbitals are indexed interleaved: spatial orbital g with spin up maps
to qubit 2g, spin down to 2g+1.  up(), down() and their inverse spin() are
the one definition of that layout; every other module derives its
spin-orbital indices from them.

jordan_wigner_all maps a list of operators in one numpy pass over uint64
(x, z) masks, so registers hold at most 64 qubits; jordan_wigner is its
one-operator case.  One vectorized screen over every constant and term drops
those below COEFF_CUTOFF and raises at the first that is NaN or infinite
(ValueError) or keeps an index off the register (IndexError), as a term by
term screen would.  In one pass over all kept terms, the terms with k
ladder operators, from any operator, expand together, one ladder
step at a time: every (term, string) row times X_p Z_{<p} and Y_p Z_{<p},
with pauli.mask_mul's phase rule.  In one step a string gets at most two
contributions, an X-type and a Y-type from two rows that differ only in the
Z bit of a repeated index; they are summed in first-occurrence order and
strings below COEFF_CUTOFF are dropped.  One fold then sums each (operator,
x, z) key over the operator's terms in term order: a sum that falls below
the cutoff is popped and a later contribution restarts it from 0j, and the
keys come out in the order a dict would hold them.  That is the arithmetic
of multiplying two-term PauliSums left to right and adding them up, so each
image matches that product form term for term, in insertion order and bit
for bit.  Each image is built once (PauliSum.from_checked) from the folded
sums normalized as 0j + c, after one check refusing a sum that overflowed.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain

import numpy as np

from .pauli import COEFF_CUTOFF, I_POWERS, PauliString, PauliSum, above_cutoff


def up(g: int) -> int:
    """Spin-up spin-orbital index of spatial orbital g."""
    return 2 * g


def down(g: int) -> int:
    """Spin-down spin-orbital index of spatial orbital g."""
    return 2 * g + 1


def spin(p: int) -> int:
    """Spin of spin orbital p: 0 if p is up(g), 1 if p is down(g)."""
    return p % 2


def _sort_with_sign(indices: tuple[int, ...], descending: bool) -> tuple[int, tuple[int, ...]] | None:
    """Parity-tracked sort; None if an index repeats (operator is zero)."""
    if len(indices) == 2:  # every pool and two-body term: one comparison
        a, b = indices
        if a == b:
            return None
        return (1, indices) if (a > b) == descending else (-1, (b, a))
    lst = list(indices)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and (lst[j - 1] < lst[j] if descending else lst[j - 1] > lst[j]):
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(lst, lst[1:]):
        if a == b:
            return None
    return sign, tuple(lst)


def normal_term(coeff: complex, cre: tuple[int, ...], ann: tuple[int, ...]):
    """Canonicalize one normal-ordered term; None if it vanishes."""
    rc = _sort_with_sign(tuple(cre), descending=True)
    ra = _sort_with_sign(tuple(ann), descending=False)
    if rc is None or ra is None:
        return None
    sc, cre_s = rc
    sa, ann_s = ra
    return complex(coeff) * sc * sa, cre_s, ann_s


class FermionOperator:
    """constant + sum of normal-ordered creation/annihilation products."""

    __slots__ = ("constant", "terms")

    def __init__(self, constant: complex = 0.0,
                 terms: dict[tuple[tuple[int, ...], tuple[int, ...]], complex] | None = None):
        self.constant = complex(constant)
        self.terms: dict[tuple[tuple[int, ...], tuple[int, ...]], complex] = dict(terms or {})

    def add_term(self, coeff: complex, cre, ann) -> None:
        nt = normal_term(coeff, tuple(cre), tuple(ann))
        if nt is None:
            return
        c, cre_s, ann_s = nt
        key = (cre_s, ann_s)
        self.terms[key] = self.terms.get(key, 0.0) + c

    def simplify(self) -> "FermionOperator":
        above_cutoff(self.constant)  # raises on a NaN or infinite constant
        out = {k: c for k, c in self.terms.items() if above_cutoff(c)}
        return FermionOperator(self.constant, out)

    def dagger(self) -> "FermionOperator":
        out = FermionOperator(self.constant.conjugate())
        for (cre, ann), c in self.terms.items():
            out.add_term(c.conjugate(), tuple(reversed(ann)), tuple(reversed(cre)))
        return out

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        out = FermionOperator(self.constant + other.constant, dict(self.terms))
        for k, c in other.terms.items():
            out.terms[k] = out.terms.get(k, 0.0) + c
        return out.simplify()

    def __sub__(self, other: "FermionOperator") -> "FermionOperator":
        return self + (other * -1.0)

    def __mul__(self, scalar: complex) -> "FermionOperator":
        return FermionOperator(self.constant * scalar,
                               {k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__

    def minus_hc(self) -> "FermionOperator":
        """self - self† (skew-Hermitian closure; constants cancel to 2i Im)."""
        return self - self.dagger()

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return self._sum_within(self.dagger() * -1.0, tol)

    def is_anti_hermitian(self, tol: float = 1e-12) -> bool:
        return self._sum_within(self.dagger(), tol)

    def _sum_within(self, other: "FermionOperator", tol: float) -> bool:
        """Whether every coefficient of self + other is at most tol in modulus."""
        total = dict(self.terms)
        for k, c in other.terms.items():
            total[k] = total.get(k, 0.0) + c
        return all(abs(c) <= tol for c in (self.constant + other.constant, *total.values()))

    def sorted_terms(self) -> list[tuple[tuple[tuple[int, ...], tuple[int, ...]], complex]]:
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        return f"FermionOperator(constant={self.constant}, terms={len(self.terms)})"


# Coefficients of X_p and of -/+ iY_p in the JW image of a+_p / a_p, exactly
# as PauliSum stores 0.5 and -/+0.5j (signed zeros included).
_HALF = complex(0.5, 0.0)
_CREATION_Y = complex(0.0, -0.5)
_ANNIHILATION_Y = complex(0.0, 0.5)
_PHASES = np.array(I_POWERS)
_ONE = np.uint64(1)

MASK_BITS = 64  # (x, z) masks are uint64


def _magnitude(c: np.ndarray) -> np.ndarray:
    # abs(complex) is C hypot; np.abs on complex arrays differs in the last bit
    return np.hypot(c.real, c.imag)


def _pairs(term: np.ndarray, key: np.ndarray, candidate: np.ndarray):
    """Rows that are not the later row of a pair, with that later row or -1.

    A pair is two candidate rows of one term with equal keys.
    """
    rows = np.flatnonzero(candidate)
    if len(rows) < 2:
        return np.arange(len(term)), np.full(len(term), -1)
    # stable, on rows in term order: a pair ends up adjacent, earlier row first
    rows = rows[np.argsort(key[rows], kind="stable")]
    same = (term[rows[1:]] == term[rows[:-1]]) & (key[rows[1:]] == key[rows[:-1]])
    partner = np.full(len(term), -1)
    partner[rows[:-1][same]] = rows[1:][same]
    first = np.ones(len(term), bool)
    first[rows[1:][same]] = False
    i = np.flatnonzero(first)
    return i, partner[i]


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty(2 * len(a), a.dtype)
    out[0::2] = a
    out[1::2] = b
    return out


def _expand(coeff: np.ndarray, ladders: np.ndarray, n_cre: np.ndarray):
    """Ladder products of terms with k ladder operators each, all at once.

    Returns rows (term, x, z, value), term by term and, within a term, in
    the insertion order of multiplying two-term PauliSums left to right.
    """
    n_terms, k = ladders.shape
    bits = _ONE << ladders.T.astype(np.uint64)
    y_coeff = np.where(np.arange(k)[:, None] < n_cre, _CREATION_Y, _ANNIHILATION_Y)
    # an index met earlier in the term pairs rows that differ in its Z bit only
    repeated = ((ladders.T[:, None, :] == ladders.T[None, :, :])
                & np.tri(k, k, -1, dtype=bool)[:, :, None]).any(axis=1)
    x = np.zeros(n_terms, np.uint64)
    term = np.arange(n_terms)
    z = np.zeros(n_terms, np.uint64)
    c = 0j + coeff
    for s in range(k):
        bx = bits[s][term]
        ax = x[term]
        zx = z ^ (bx - _ONE)  # times X_p Z_{k<p}
        zy = zx ^ bx          # times Y_p Z_{k<p}
        nx = ax ^ bx
        # pauli.mask_mul's phase exponent, X_p and Y_p alike
        k0 = np.bitwise_count(ax & z) + 2 * np.bitwise_count(z & bx)
        vx = c * _HALF * _PHASES[(k0 - np.bitwise_count(nx & zx)) & 3]
        vy = c * y_coeff[s][term] * _PHASES[(k0 + 1 - np.bitwise_count(nx & zy)) & 3]
        # a pair's keys are the first row's X and Y strings, each summing an
        # X-type and a Y-type contribution in first-occurrence order
        i, q = _pairs(term, z & ~bx, repeated[s][term])
        cx = 0j + vx[i]
        cy = 0j + vy[i]
        paired = q >= 0
        cx[paired] += vy[q[paired]]
        cy[paired] += vx[q[paired]]
        term = np.repeat(term[i], 2)
        z = _interleave(zx[i], zy[i])
        c = _interleave(cx, cy)
        keep = _magnitude(c) >= COEFF_CUTOFF
        term, z, c = term[keep], z[keep], c[keep]
        x ^= bits[s]
    return term, x[term], z, c


def _products(op, coeff, k, n_cre, flat, offset) -> tuple[np.ndarray, ...]:
    """(op, x, z, value) rows of every term's ladder product, in term order;
    term t's k[t] ladder indices, creations first, start at flat[offset[t]].
    With no term, the columns are empty but typed."""
    parts = [(k[:0], np.zeros(0, np.uint64), np.zeros(0, np.uint64), coeff[:0])]
    for n in np.unique(k):
        idx = np.flatnonzero(k == n)
        t, x, z, c = _expand(coeff[idx], flat[offset[idx, None] + np.arange(n)], n_cre[idx])
        parts.append((idx[t], x, z, c))
    term, x, z, c = (np.concatenate(a) for a in zip(*parts))
    order = np.argsort(term, kind="stable")
    return op[term[order]], x[order], z[order], c[order]


def _fold(op, x, z, c):
    """Sum every (op, x, z) key's values in row order, as a dict would.

    A sum below the cutoff pops the key and the next value restarts it from
    0j.  Returns the keys left with their sums and the row at which each
    was last inserted, which is its dict position.
    """
    # stable, on rows in op order: a key's rows end up adjacent, in row order
    row = np.lexsort((z, x))
    op, x, z, c = op[row], x[row], z[row], c[row]
    new = np.ones(len(op), bool)
    new[1:] = (op[1:] != op[:-1]) | (x[1:] != x[:-1]) | (z[1:] != z[:-1])
    start = np.flatnonzero(new)
    count = np.diff(start, append=len(op))
    total = np.zeros(len(start), complex)
    inserted = np.zeros(len(start), np.int64)
    present = np.zeros(len(start), bool)
    group = np.arange(len(start))
    for r in range(count.max(initial=0)):
        group = group[count[group] > r]
        item = start[group] + r
        s = total[group] + c[item]
        keep = _magnitude(s) >= COEFF_CUTOFF
        inserted[group] = np.where(keep & ~present[group], row[item], inserted[group])
        present[group] = keep
        total[group] = np.where(keep, s, 0.0)
    left = start[present]
    return op[left], x[left], z[left], total[present], inserted[present]


def jordan_wigner_all(ops: Sequence[FermionOperator], n_qubits: int) -> list[PauliSum]:
    """Map fermionic operators to qubit space, each to its own PauliSum.

    Uses a_p = (X_p + iY_p)/2 * prod_{k<p} Z_k with qubit index equal to
    the spin-orbital index; each output equals its input as an operator on
    the occupation-number basis (bit j of a statevector index = occupation
    of spin orbital j).  A NaN or infinite coefficient or constant, or a
    sum that overflows, raises ValueError.
    """
    if n_qubits > MASK_BITS:
        raise ValueError(f"{n_qubits} qubits exceed the {MASK_BITS}-qubit mask limit "
                         "of the Jordan-Wigner map")
    # one row per operator constant and per term
    op_of, values, ladders, n_cre = [], [], [], []
    for i, op in enumerate(ops):
        op_of += [i] * (1 + len(op.terms))
        values += [op.constant, *op.terms.values()]
        ladders += [(), *[cre + ann for cre, ann in op.terms]]
        n_cre += [0, *[len(cre) for cre, _ in op.terms]]
    coeff = np.array(values, complex)
    k = np.fromiter(map(len, ladders), np.int64, len(values))
    flat = np.fromiter(chain.from_iterable(ladders), np.int64, int(k.sum()))
    offset = np.cumsum(k) - k
    # the first row whose value is not finite, or that is kept with an index
    # off the register, raises, as a row-by-row screen would
    magnitude = _magnitude(coeff)
    kept = magnitude >= COEFF_CUTOFF
    off_register = np.bincount(np.repeat(np.arange(len(values)), k),
                               (flat < 0) | (flat >= n_qubits), len(values)) > 0
    bad = np.flatnonzero(~(magnitude < np.inf) | kept & off_register)
    if len(bad):
        above_cutoff(values[bad[0]])  # raises on a NaN or infinite value
        p = next(p for p in ladders[bad[0]] if not 0 <= p < n_qubits)
        raise IndexError(f"spin orbital {p} exceeds register of {n_qubits} qubits")
    op_of, n_cre = np.array(op_of, np.int64)[kept], np.array(n_cre, np.int64)[kept]
    op, x, z, c = _products(op_of, coeff[kept], k[kept], n_cre, flat, offset[kept])
    op, x, z, c, inserted = _fold(op, x, z, c)
    order = np.argsort(inserted)  # operator-major: rows grow with op
    op, x, z, c = op[order], x[order], z[order], 0j + c[order]
    # the fold cut every sum at COEFF_CUTOFF; one that overflowed is refused
    if not np.isfinite(c).all():
        above_cutoff(complex(c[~np.isfinite(c)][0]))
    # one PauliString per distinct string, shared by the images that hold it
    strings: dict[tuple[int, int], PauliString] = {}
    keys = [strings.get(xz) or strings.setdefault(xz, PauliString(*xz, n_qubits))
            for xz in zip(x.tolist(), z.tolist())]
    c = c.tolist()
    images: list[PauliSum | None] = [None] * len(ops)
    bounds = [*np.flatnonzero(np.diff(op, prepend=-1)).tolist(), len(op)]
    for lo, hi in zip(bounds, bounds[1:]):
        images[op[lo]] = PauliSum.from_checked(n_qubits, dict(zip(keys[lo:hi], c[lo:hi])))
    return [PauliSum(n_qubits) if image is None else image for image in images]


def jordan_wigner(op: FermionOperator, n_qubits: int) -> PauliSum:
    """Map one fermionic operator to qubit space (see jordan_wigner_all)."""
    return jordan_wigner_all([op], n_qubits)[0]

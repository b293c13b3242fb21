"""Second-quantized fermionic operators and the Jordan-Wigner map.

Operators are stored as lists of normal-ordered terms
c * a†_{i1} ... a†_{ik} a_{j1} ... a_{jm} with canonical index order:
creations strictly descending, annihilations strictly ascending.  With that
convention the Hermitian conjugate of a canonical term is again canonical
with (cre, ann) -> (reversed ann, reversed cre) and no extra sign.

Spin orbitals are indexed interleaved: spatial orbital g with spin up maps
to qubit 2g, spin down to 2g+1.  up() and down() are the one definition of
that layout; every other module derives its spin-orbital indices from them.
"""

from __future__ import annotations

from .pauli import PauliString, PauliSum

COEFF_CUTOFF = 1e-14


def up(g: int) -> int:
    """Spin-up spin-orbital index of spatial orbital g."""
    return 2 * g


def down(g: int) -> int:
    """Spin-down spin-orbital index of spatial orbital g."""
    return 2 * g + 1


def _sort_with_sign(indices: tuple[int, ...], descending: bool) -> tuple[int, tuple[int, ...]] | None:
    """Parity-tracked sort; None if an index repeats (operator is zero)."""
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
        out = {k: c for k, c in self.terms.items() if abs(c) >= COEFF_CUTOFF}
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
        diff = (self - self.dagger()).simplify()
        if abs(diff.constant) > tol:
            return False
        return all(abs(c) <= tol for c in diff.terms.values())

    def is_anti_hermitian(self, tol: float = 1e-12) -> bool:
        diff = (self + self.dagger()).simplify()
        if abs(diff.constant) > tol:
            return False
        return all(abs(c) <= tol for c in diff.terms.values())

    def sorted_terms(self) -> list[tuple[tuple[tuple[int, ...], tuple[int, ...]], complex]]:
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        return f"FermionOperator(constant={self.constant}, terms={len(self.terms)})"


def _jw_ladder(p: int, n_qubits: int, creation: bool) -> PauliSum:
    """JW image of a_p (or a†_p): (X_p +/- iY_p)/2 times Z_{k<p}."""
    if p >= n_qubits:
        raise IndexError(f"spin orbital {p} exceeds register of {n_qubits} qubits")
    zmask = (1 << p) - 1
    x_str = PauliString(1 << p, zmask, n_qubits)
    y_str = PauliString(1 << p, zmask | (1 << p), n_qubits)
    iy = -0.5j if creation else 0.5j
    return PauliSum(n_qubits, {x_str: 0.5, y_str: iy})


def jordan_wigner(op: FermionOperator, n_qubits: int) -> PauliSum:
    """Map a fermionic operator to qubit space.

    Uses a_p = (X_p + iY_p)/2 * prod_{k<p} Z_k with qubit index equal to
    the spin-orbital index; the output equals the input as an operator on
    the occupation-number basis (bit j of a statevector index = occupation
    of spin orbital j).
    """
    total = PauliSum(n_qubits)
    if abs(op.constant) >= COEFF_CUTOFF:
        total = PauliSum.identity(n_qubits, op.constant)
    for (cre, ann), coeff in op.terms.items():
        if abs(coeff) < COEFF_CUTOFF:
            continue
        prod = PauliSum.identity(n_qubits, coeff)
        for p in cre:
            prod = prod * _jw_ladder(p, n_qubits, creation=True)
        for p in ann:
            prod = prod * _jw_ladder(p, n_qubits, creation=False)
        total = total + prod
    return total

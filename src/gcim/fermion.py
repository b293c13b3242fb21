"""Second-quantized fermionic operators and the Jordan-Wigner map.

Operators are stored as lists of normal-ordered terms
c * a†_{i1} ... a†_{ik} a_{j1} ... a_{jm} with canonical index order:
creations strictly descending, annihilations strictly ascending.  With that
convention the Hermitian conjugate of a canonical term is again canonical
with (cre, ann) -> (reversed ann, reversed cre) and no extra sign.

Spin orbitals are indexed interleaved: spatial orbital g with spin up maps
to qubit 2g, spin down to 2g+1.  up() and down() are the one definition of
that layout; every other module derives its spin-orbital indices from them.

jordan_wigner works on bare (x, z) integer masks.  Each term's ladder
product is expanded one operator at a time, every product phase coming from
pauli.mask_mul, and the products are summed in place into one dict keyed by
(x, z); PauliStrings are built once, for the result.  The arithmetic is that
of multiplying two-term PauliSums left to right and adding them up: the same
coefficient sums in the same order, terms below COEFF_CUTOFF dropped after
every ladder step and whenever an accumulated sum falls below it.  So the
result matches that product form term for term, in insertion order and bit
for bit, while the set-up cost grows linearly with the number of terms.
"""

from __future__ import annotations

from .pauli import COEFF_CUTOFF, PauliString, PauliSum, mask_mul


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


# Coefficients of X_p and of -/+ iY_p in the JW image of a+_p / a_p, exactly
# as PauliSum stores 0.5 and -/+0.5j (signed zeros included).
_HALF = complex(0.5, 0.0)
_CREATION_Y = complex(0.0, -0.5)
_ANNIHILATION_Y = complex(0.0, 0.5)


def _ladder_step(prod: dict[tuple[int, int], complex], p: int, n_qubits: int,
                 cy: complex) -> dict[tuple[int, int], complex]:
    """prod times (0.5 X_p + cy Y_p) Z_{k<p}, the image of one ladder operator.

    The sums and the cutoff are those of PauliSum.__mul__ followed by
    PauliSum.__init__, in the same order.
    """
    if p >= n_qubits:
        raise IndexError(f"spin orbital {p} exceeds register of {n_qubits} qubits")
    bx = 1 << p
    strings = ((bx - 1, _HALF), ((bx << 1) - 1, cy))
    out: dict[tuple[int, int], complex] = {}
    for (ax, az), ca in prod.items():
        for bz, cb in strings:
            phase, x, z = mask_mul(ax, az, bx, bz)
            key = (x, z)
            out[key] = out.get(key, 0.0) + ca * cb * phase
    return {key: c for key, c in out.items() if abs(c) >= COEFF_CUTOFF}


def jordan_wigner(op: FermionOperator, n_qubits: int) -> PauliSum:
    """Map a fermionic operator to qubit space.

    Uses a_p = (X_p + iY_p)/2 * prod_{k<p} Z_k with qubit index equal to
    the spin-orbital index; the output equals the input as an operator on
    the occupation-number basis (bit j of a statevector index = occupation
    of spin orbital j).
    """
    total: dict[tuple[int, int], complex] = {}
    if abs(op.constant) >= COEFF_CUTOFF:
        total[(0, 0)] = 0.0 + complex(op.constant)
    for (cre, ann), coeff in op.terms.items():
        if abs(coeff) < COEFF_CUTOFF:
            continue
        prod = {(0, 0): 0.0 + complex(coeff)}
        for p in cre:
            prod = _ladder_step(prod, p, n_qubits, _CREATION_Y)
        for p in ann:
            prod = _ladder_step(prod, p, n_qubits, _ANNIHILATION_Y)
        # in place, as PauliSum.__add__ would sum and then drop small terms
        for key, c in prod.items():
            c = total.get(key, 0.0) + c
            if abs(c) >= COEFF_CUTOFF:
                total[key] = c
            else:
                total.pop(key, None)
    return PauliSum(n_qubits, {PauliString(x, z, n_qubits): c
                               for (x, z), c in total.items()})

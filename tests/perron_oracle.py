"""A test oracle for Perron reduction: exhaustive search for a positive basis."""

import itertools

from uniformizer.valuegroup import _Block, gauss_jordan, int_det, unimodular_inverse


def brute_force_positive_basis(weights, alphas, bound: int):
    """Exhaustive search for a valid basis with entries bounded by ``bound``.

    Independent of the reduction in ``uniformizer.valuegroup`` and unbudgeted.
    Returns (basis_rows, coeff_rows) or None if no basis with the given
    entry bound exists.
    """
    block = _Block.of(weights)
    r = len(block.weights)
    rows = []
    for v in itertools.product(range(-bound, bound + 1), repeat=r):
        if block.sign(block.value(v)) == 1:
            rows.append(list(v))
    rows.sort(key=lambda v: (max(abs(c) for c in v), v))

    def extend(chosen):
        if len(chosen) == r:
            if int_det(chosen) not in (1, -1):
                return None
            inv = unimodular_inverse(chosen)
            coeffs = []
            for a in alphas:
                row = [sum(int(a[i]) * inv[i][j] for i in range(r)) for j in range(r)]
                if any(c < 0 for c in row):
                    return None
                coeffs.append(row)
            return [row[:] for row in chosen], coeffs
        for v in rows:
            if gauss_jordan(chosen + [v], r)[0] == len(chosen) + 1:
                hit = extend(chosen + [v])
                if hit is not None:
                    return hit
        return None

    return extend([])

"""The per-evaluation path of the search: _qr_column's bits and q_loss's warnings.

_qr_column computes the prefixes (4*al - 2)*bc and (2 - 2*al)*bc once and
shares them between the numerator and the denominator.  Each product
still runs left to right and negation is exact, so every coefficient must
keep the bits of the six expressions written out in full, kept below as
the reference.

q_loss raises its two warnings itself and hands the magnitude losses to
the errstate-decorated _mag_loss in one call, so both warnings must point
at q_loss's caller.
"""

import math
import random
import struct
import warnings

import pytest

from sbtkit import QrParams, StabilityRangeWarning, UnstableWarning, q_loss
from sbtkit.controllers import _qr_column
from test_loss_routes import seeded_board


def written_out_column(p, al, bc, bn, T):
    """The closed-form column with every product written out, as it read before the prefixes."""
    kr, wc, wn = p.kr, p.omega_c, p.omega_n
    return (
        2 * al * bc * kr * wc * T,
        -(4 * al - 2) * bc * kr * wc * T,
        -(2 - 2 * al) * bc * kr * wc * T,
        1 + 2 * al * bc * wc * T + (al * bn * wn * T) ** 2,
        -2 - (4 * al - 2) * bc * wc * T + 2 * al * (1 - al) * (bn * wn * T) ** 2,
        1 - (2 - 2 * al) * bc * wc * T + ((1 - al) * bn * wn * T) ** 2,
    )


def bits(values):
    """The doubles as bytes, so -0.0 differs from 0.0 and the comparison is bit for bit."""
    return [struct.pack("<d", v) for v in values]


def log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def outcome(column, *args):
    """The column's bits, or the OverflowError a float square raises past the double range."""
    try:
        return bits(column(*args))
    except OverflowError:
        return "OverflowError"


def seeded_cases(seed, n):
    """n seeded (p, alpha, beta_c, beta_n, T): half near the reference board,
    half over wide magnitudes, where products overflow to inf, sums of
    infinities give nan and squares raise OverflowError."""
    rng = random.Random(seed)
    for k in range(n):
        al = rng.choice((0.0, 0.5, 1.0)) if k % 7 == 0 else rng.uniform(0.0, 1.0)
        if k % 2:
            wc = log_uniform(rng, 1e-150, 1e150)
            p = QrParams(log_uniform(rng, 1e-300, 1e300), wc, wc * log_uniform(rng, 1.0 + 1e-12, 1e150))
            yield p, al, log_uniform(rng, 1e-3, 1e3), log_uniform(rng, 1e-3, 1e3), log_uniform(rng, 1e-150, 1e150)
        else:
            p, T = seeded_board(rng.randrange(1 << 30))
            yield p, al, rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5), T


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_qr_column_keeps_the_bits_of_the_written_out_expressions(seed):
    kinds = {"finite": 0, "not finite": 0, "OverflowError": 0}
    for case in seeded_cases(seed, 5000):
        want = outcome(written_out_column, *case)
        assert outcome(_qr_column, *case) == want, case
        if want == "OverflowError":
            kinds["OverflowError"] += 1
        else:
            kinds["finite" if all(math.isfinite(c) for c in written_out_column(*case)) else "not finite"] += 1
    assert min(kinds.values()) >= 100, kinds


@pytest.mark.parametrize("factors", [(1, 1, 1), (0.5, 1, 1), (1.0, 1.0, 1.0), (0.5, 1.0, 1.0),
                                     (0, 1, 1), (0.0, 1.0, 1.0)],
                         ids=["euler", "tustin", "euler-float", "tustin-float", "alpha-0", "alpha-0-float"])
def test_qr_column_keeps_the_bits_of_the_named_reductions(factors):
    """Backward difference (1, 1, 1), trapezoidal (0.5, 1, 1) and the
    forward difference, as ints and as floats: there 4*al - 2 or 2 - 2*al
    is 0, and each zero's sign must come out the same."""
    for seed in range(1, 41):
        p, T = seeded_board(seed)
        column = _qr_column(p, *factors, T)
        assert bits(column) == bits(written_out_column(p, *factors, T)), (seed, factors)
        assert [type(c) for c in column] == [type(c) for c in written_out_column(p, *factors, T)]


def test_q_loss_unstable_warning_points_at_its_caller():
    # alpha 0, the forward difference, puts this board's poles outside the unit disk
    p, T = seeded_board(1)
    b2, b1, b0 = _qr_column(p, 0.0, 1.0, 1.0, T)[3:]
    assert abs(b0 / b2) > 1.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        q_loss(0.0, 1.0, p, T)
    unstable = [w for w in caught if issubclass(w.category, UnstableWarning)]
    ranged = [w for w in caught if issubclass(w.category, StabilityRangeWarning)]
    assert len(unstable) == 1 and unstable[0].filename == __file__
    assert len(ranged) == 1 and ranged[0].filename == __file__


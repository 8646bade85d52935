"""Tiny numeric helpers shared across the cost model and designers."""

import math


def align8(nbytes):
    """Round *nbytes* up to the next multiple of 8 (PostgreSQL MAXALIGN)."""
    return (int(nbytes) + 7) & ~7


def ceil_div(numerator, denominator):
    """Integer ceiling division; denominator must be positive."""
    if denominator <= 0:
        raise ValueError("denominator must be positive, got %r" % (denominator,))
    return -(-int(numerator) // int(denominator))


def clamp(value, low, high):
    """Clamp *value* into the closed interval [low, high]."""
    if low > high:
        raise ValueError("empty interval [%r, %r]" % (low, high))
    return max(low, min(high, value))


def safe_log2(value):
    """log2 that tolerates values below 2 (returns at least 1.0).

    The cost model uses ``N * log2(N)`` terms for sorts; for tiny inputs the
    logarithm must not go to zero or negative.
    """
    return math.log2(value) if value >= 2.0 else 1.0


# Cephes ``ndtri`` (Moshier), the inverse of the standard normal CDF:
# its coefficient tables and its order of operations, so results equal
# ``scipy.special.ndtri`` bit for bit without importing scipy.
_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
# |y - 0.5| <= 3/8
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# sqrt(-2 log y) in [2, 8): y in (exp(-32), exp(-2)]
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# sqrt(-2 log y) >= 8: y <= exp(-32), about 1.27e-14
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    # _polevl with an implied leading coefficient of 1
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(y0):
    """The *x* whose standard normal CDF is *y0*: ``-inf`` at 0, ``inf``
    at 1, ``nan`` outside [0, 1]."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    y, negate = y0, True
    if y > 1.0 - _EXP_M2:
        y, negate = 1.0 - y, False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x

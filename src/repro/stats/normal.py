"""The inverse of the standard normal CDF, as scipy computes it.

Fig 8's view durations are a length-biased lognormal drawn through one
inverse-normal CDF per record (``synthesis.sessions._durations``).
:func:`ndtri` transcribes Cephes ``ndtri``, the algorithm behind
``scipy.special.ndtri``, line for line on plain floats: the same
constants, the same Horner steps (a float multiply, then an add, left
to right) and the same libm ``log`` through :func:`math.log`.  So it
returns scipy's bits, and a synthesized dataset is the same whether or
not scipy is installed; ``tests/test_stats_normal.py`` holds it to
``scipy.special.ndtri`` bit for bit.  ``np.log`` would not do: numpy's
own ``log`` differs from libm's in the last place on some inputs.

Cephes approximates ``ndtri(y)`` by a rational function of ``y - 0.5``
for ``exp(-2) < y < 1 - exp(-2)``; in the tails it takes
``x = sqrt(-2 log y)`` and a rational function of ``1/x``, with one
set of coefficients for ``x < 8`` (``y > exp(-32)``) and another
beyond.
"""

from __future__ import annotations

import math

#: exp(-2): the edge of the central interval.
_E2 = 0.13533528323661269189
#: sqrt(2 pi).
_S2PI = 2.50662827463100050242E0

# The central interval:
# ndtri(0.5 + y) = sqrt(2 pi) (y + y^3 P0(y^2) / Q0(y^2)).
_P0 = (
    -5.99633501014107895267E1,
    9.80010754185999661536E1,
    -5.66762857469070293439E1,
    1.39312609387279679503E1,
    -1.23916583867381258016E0,
)
_Q0 = (
    1.95448858338141759834E0,
    4.67627912898881538453E0,
    8.63602421390890590575E1,
    -2.25462687854119370527E2,
    2.00260212380060660359E2,
    -8.20372256168333339912E1,
    1.59056225126211695515E1,
    -1.18331621121330003142E0,
)

# The tail y <= exp(-2), with x = sqrt(-2 log y) and z = 1/x:
# ndtri(y) = -(x - log(x) / x - z P(z) / Q(z)), P/Q being P1/Q1 for
# 2 <= x < 8 ...
_P1 = (
    4.05544892305962419923E0,
    3.15251094599893866154E1,
    5.71628192246421288162E1,
    4.40805073893200834700E1,
    1.46849561928858024014E1,
    2.18663306850790267539E0,
    -1.40256079171354495875E-1,
    -3.50424626827848203418E-2,
    -8.57456785154685413611E-4,
)
_Q1 = (
    1.57799883256466749731E1,
    4.53907635128879210584E1,
    4.13172038254672030440E1,
    1.50425385692907503408E1,
    2.50464946208309415979E0,
    -1.42182922854787788574E-1,
    -3.80806407691578277194E-2,
    -9.33259480895457427372E-4,
)

# ... and P2/Q2 for 8 <= x.
_P2 = (
    3.23774891776946035970E0,
    6.91522889068984211695E0,
    3.93881025292474443415E0,
    1.33303460815807542389E0,
    2.01485389549179081538E-1,
    1.23716634817820021358E-2,
    3.01581553508235416007E-4,
    2.65806974686737550832E-6,
    6.23974539184983293730E-9,
)
_Q2 = (
    6.02427039364742014255E0,
    3.67983563856160859403E0,
    1.37702099489081330271E0,
    2.16236993594496635890E-1,
    1.34204006088543189037E-2,
    3.28014464682127739104E-4,
    2.89247864745380683936E-6,
    6.79019408009981274425E-9,
)


def ndtri(p: float) -> float:
    """The ``x`` at which the standard normal CDF equals ``p``.

    ``ndtri(0)`` is ``-inf`` and ``ndtri(1)`` is ``+inf``; a ``p``
    outside ``[0, 1]``, or NaN, gives NaN, as scipy's does.
    """
    if not 0.0 <= p <= 1.0:
        return math.nan
    # Only the endpoints remain beyond these bounds.
    if p <= 0.0:
        return -math.inf
    if p >= 1.0:
        return math.inf
    y = p
    negate = True
    if y > 1.0 - _E2:
        y = 1.0 - y
        negate = False
    # Each ratio is Cephes' polevl(x, a) / p1evl(x, b) written out in
    # Horner form (p1evl's leading coefficient is an implied 1): a
    # helper call per polynomial would cost ~40% more per value.
    if y > _E2:
        y = y - 0.5
        y2 = y * y
        a, b = _P0, _Q0
        num = (((a[0] * y2 + a[1]) * y2 + a[2]) * y2 + a[3]) * y2 + a[4]
        den = (((((((y2 + b[0]) * y2 + b[1]) * y2 + b[2]) * y2 + b[3])
                 * y2 + b[4]) * y2 + b[5]) * y2 + b[6]) * y2 + b[7]
        x = y + y * (y2 * num / den)
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    a, b = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    num = (((((((a[0] * z + a[1]) * z + a[2]) * z + a[3]) * z + a[4])
             * z + a[5]) * z + a[6]) * z + a[7]) * z + a[8]
    den = (((((((z + b[0]) * z + b[1]) * z + b[2]) * z + b[3]) * z + b[4])
             * z + b[5]) * z + b[6]) * z + b[7]
    x1 = z * num / den
    x = x0 - x1
    return -x if negate else x

"""The toolkit's one clipping policy, on scalars and without numpy.

Every probability the toolkit derives or returns lies in
[PROB_EPS, 1 - PROB_EPS], and every logit it derives is the logit of such
a probability. The policy lives here, not in ``calibrate``, so that the
text side (parsing and clause scoring) starts without numpy; calibrate's
array helpers clip with the same ``PROB_EPS``.
"""

import math
import sys

PROB_EPS = 1e-12
_LOG_EPS = math.log(PROB_EPS)
_LOG_ONE_MINUS_EPS = math.log1p(-PROB_EPS)
_LOGIT_MAX = math.log((1.0 - PROB_EPS) / PROB_EPS)


def finite_float(value) -> float | None:
    """``value`` as a finite float; None for bools, non-numbers, NaN and infinities."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    # exact comparison: NaN and ints past the float range fail without converting
    return float(value) if -sys.float_info.max <= value <= sys.float_info.max else None


def logit_of_log_prob(sum_log_prob: float) -> float:
    """Sequence log-probability -> logit of the clipped probability.

    Working in log space (expm1 for 1 - p) avoids the cancellation a
    naive exp-then-logit would hit near probability 1.
    """
    if sum_log_prob <= _LOG_EPS:
        return -_LOGIT_MAX
    if sum_log_prob >= _LOG_ONE_MINUS_EPS:
        return _LOGIT_MAX
    return sum_log_prob - math.log(-math.expm1(sum_log_prob))


def prob_of_log_prob(sum_log_prob: float) -> float:
    """Sequence log-probability -> the clipped probability."""
    p = math.exp(min(sum_log_prob, 0.0))
    return min(max(p, PROB_EPS), 1.0 - PROB_EPS)

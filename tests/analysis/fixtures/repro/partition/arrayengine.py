"""Known-bad fixture: array engine duplicating the scalar constants."""

EQ1_INTERCEPT = 3.75


def t_comm_array(p, b):
    return EQ1_INTERCEPT + 0.062 * p + b * 0.0011

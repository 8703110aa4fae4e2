"""Exact continuous-time ISE of a unity-feedback loop, by a Lyapunov solve.

For the closed loop T = num_T/den_T under a unit step, the error transform is
E(s) = (den_T - num_T)/(s den_T).  With a PID controller den_T - num_T =
den_L carries the integrator's factor s, so E(s) = q(s)/den_T(s) is strictly
proper and e(t) = C exp(At) B for its controllable-canonical realization.
Then ISE = integral of e(t)^2 = C P C^T, where A P + P A^T + B B^T = 0; the
Lyapunov equation is solved in Kronecker form, (I kron A + A kron I) vec(P) =
-vec(B B^T).  The loop must be Hurwitz-stable, or the integral diverges.
"""

import numpy as np


def error_tf(num_t, den_t):
    """(q, den_T) with E(s) = q(s)/den_T(s); raises if E is not strictly proper."""
    den_t = np.trim_zeros(np.asarray(den_t, dtype=float), "f")
    num_t = np.asarray(num_t, dtype=float)
    diff = den_t.copy()
    diff[len(den_t) - len(num_t):] -= num_t
    if diff[-1] != 0.0:
        raise ValueError("den_T - num_T has no factor s: e(t) does not vanish")
    q = np.trim_zeros(diff[:-1], "f")
    if len(q) >= len(den_t):
        raise ValueError("E(s) is not strictly proper")
    return q, den_t


def exact_ise(num_t, den_t):
    """Integral of e(t)^2 over [0, inf) for the unit-step error of T."""
    q, den = error_tf(num_t, den_t)
    a = den / den[0]
    n = len(a) - 1
    A = np.zeros((n, n))
    A[0, :] = -a[1:]
    A[np.arange(1, n), np.arange(n - 1)] = 1.0
    B = np.zeros(n)
    B[0] = 1.0
    C = np.zeros(n)
    C[n - len(q):] = q / den[0]
    eye = np.eye(n)
    kron = np.kron(eye, A) + np.kron(A, eye)
    P = np.linalg.solve(kron, -np.outer(B, B).ravel()).reshape(n, n)
    return float(C @ P @ C)

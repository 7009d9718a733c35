import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

# Every property test runs the same examples on every run (derandomized, no
# example database) and without a per-example deadline.
settings.register_profile("tensplit", derandomize=True, database=None, deadline=None)
settings.load_profile("tensplit")


def assert_ll1_invariants(result):
    """Invariants every block-term run must satisfy: non-increasing fit,
    elementwise nonnegative mixing vectors, unit-norm factor columns."""
    hist = result.fit_history
    for i in range(len(hist) - 1):
        assert hist[i + 1] <= hist[i] + 1e-9, (
            f"fit increased at sweep {i + 1}: {hist[i]} -> {hist[i + 1]}"
        )
    for k, term in enumerate(result.terms):
        assert np.all(term.c >= 0.0), f"term {k} mixing has negative entries"
        assert abs(np.linalg.norm(term.c) - 1.0) <= 1e-10, f"term {k} c not unit"
        for name, m in (("a", term.a), ("b", term.b)):
            norms = np.linalg.norm(m, axis=0)
            assert np.max(np.abs(norms - 1.0)) <= 1e-10, (
                f"term {k} factor {name} columns not unit: {norms}"
            )
        assert np.all(term.weights >= 0.0), f"term {k} has negative weights"


def nnls_bruteforce(a, y):
    """Reference objective by enumerating every support set: solve the
    unconstrained problem on each support, keep feasible candidates."""
    a = np.asarray(a, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = a.shape[1]
    best = float(y @ y)  # empty support
    for mask in range(1, 2**n):
        cols = [j for j in range(n) if mask >> j & 1]
        sol, *_ = np.linalg.lstsq(a[:, cols], y, rcond=None)
        if np.all(sol >= -1e-12):
            r = y - a[:, cols] @ sol
            best = min(best, float(r @ r))
    return best


@st.composite
def mutated_bytes(draw, seeds, tokens):
    """One of the `seeds` byte strings after one to four edits: a bit flip,
    an overwritten byte, an insertion (random bytes or one of `tokens`), a
    deletion or a cut."""
    data = bytearray(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.integers(0, 4))
        pos = draw(st.sampled_from(range(len(data) + 1)))
        if op == 0 and pos < len(data):
            data[pos] ^= 1 << draw(st.integers(0, 7))
        elif op == 1:
            data[pos:pos + 1] = draw(st.binary(min_size=1, max_size=1))
        elif op == 2:
            data[pos:pos] = draw(st.binary(max_size=12) | st.sampled_from(tokens))
        elif op == 3:
            del data[pos:pos + draw(st.integers(1, 8))]
        else:
            del data[pos:]
    return bytes(data)

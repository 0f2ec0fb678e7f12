import pytest
import sympy

from intersective.arith import factorize


def test_factorize_matches_sympy_to_20000():
    for n in range(1, 20001):
        assert factorize(n) == sympy.factorint(n), n


@pytest.mark.parametrize("n", [
    2809,  # 53^2, the least n free of primes <= 47 that is not prime
    2491,  # 47 * 53
    3127,  # 53 * 59
    2801, 2803, 2819, 2833,  # primes just below and above 53^2
    47 ** 2 * 2801,
    53 ** 3,
    (2 ** 31 - 1) * (2 ** 61 - 1),  # cofactors that reach Pollard rho
    1000003 ** 2,
    2 ** 5 * 53 * 1000003 * (2 ** 61 - 1),
])
def test_factorize_matches_sympy_near_shortcut_and_rho(n):
    assert factorize(n) == sympy.factorint(n)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)

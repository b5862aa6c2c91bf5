"""Seeded request lists for the three benchmark workloads.

Inputs are generated here with the benchmark's own number theory (a
Miller-Rabin test, Pollard-Brent factoring, an admissible-prime finder),
never with ``lattice_forge``: set-up then does not time the library, and a
change to the library's ``numtheory`` cannot change the inputs.

Every size is drawn by stratified sampling (one draw per equal-probability
stratum, then shuffled), so the total work and the latency quantiles of a
pass vary little from seed to seed while no input repeats.

A request is a dict:

``cls``     request class (``closed-form``, ``certify``, ``search``,
            ``sphere``, ``integrate``, ``boltzmann``, ``kernel``,
            ``malformed``)
``argv``    CLI arguments for ``lattice_forge.cli.main`` (the worker adds
            ``--deterministic -o <file>``), or
``call``    ``[function name, args]`` for a library entry point
``expect``  ``"ok"`` or ``"reject"`` (exit code 2, 3 or 4)
``info``    input properties the checks and the report use
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("construct", "estimate", "sweep")

# Entries of the malformed-input catalog that the library fails on at the
# commit this benchmark was written against. They stay in the mix and are
# reported each run; a failure of any other request makes a run incorrect.
KNOWN_DEFECTS = ("runs-zero", "runs-negative", "sigma-inf")

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRIMES = [p for p in range(2, 1024) if all(p % q for q in range(2, int(p**0.5) + 1))]


# ---------------------------------------------------------------------------
# Number theory (independent of lattice_forge.numtheory)
# ---------------------------------------------------------------------------


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES[:12]:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    n = max(n, 2)
    while not is_prime(n):
        n += 1
    return n


def _rho(n: int) -> int:
    """A nontrivial factor of a composite n (Pollard-Brent)."""
    if n % 2 == 0:
        return 2
    for c in range(1, n):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"no factor found for {n}")


def factor(n: int) -> list[int]:
    """Prime factors of n >= 1 with multiplicity, ascending."""
    out: list[int] = []
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out.append(p)
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out.append(m)
        else:
            f = _rho(m)
            stack += [f, m // f]
    return sorted(out)


def primitive_root(p: int) -> int:
    phi = p - 1
    qs = set(factor(phi))
    g = 2
    while any(pow(g, phi // q, p) == 1 for q in qs):
        g += 1
    return g


def subgroup_vector(d: int, n: int) -> list[int]:
    """A generating vector on the order-2d subgroup (any generator gives
    the same set {+-z_j}, hence the same distances)."""
    e = (n - 1) // (2 * d)
    h = pow(primitive_root(n), e, n)
    return [pow(h, j, n) for j in range(d)]


def admissible_at_least(step: int, start: int) -> int:
    """Smallest prime n >= start with step | n - 1 and n > step."""
    n = max(start, step + 1)
    n += (1 - n) % step
    while not is_prime(n):
        n += step
    return n


def admissible_near(step: int, target: float) -> int:
    """The prime n > step with step | n - 1 closest to target."""
    up = admissible_at_least(step, int(target))
    n = up - step
    while n > step and not is_prime(n):
        n -= step
    return n if n > step and target - n < up - target else up


# ---------------------------------------------------------------------------
# Sampling helpers
# ---------------------------------------------------------------------------


def _strata(rng: random.Random, k: int) -> list[float]:
    """k stratified uniforms in [0, 1), shuffled."""
    u = [(i + rng.random()) / k for i in range(k)]
    rng.shuffle(u)
    return u


def _log_between(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _smooth(rng: random.Random, bits: float) -> int:
    """A random product of primes below 1024 with about ``bits`` bits."""
    m = 1
    while True:
        fits = [p for p in _SMALL_PRIMES if m * p <= 2**bits]
        if not fits:
            return m
        m *= rng.choice(fits)


def closed_form_modulus(rng: random.Random, d: int, q_target: float, bits: float) -> dict:
    """Prime n in the bit band with n - 1 = 2d * m * q * r, r >= q >= all
    other prime factors and r <= q^2.

    Trial division of n - 1 then runs up to q, the second-largest prime
    factor, so q sets the request's cost.
    """
    q = next_prime(int(q_target))
    qb = math.log2(q)
    free = bits - math.log2(2 * d) - qb
    r_bits = min(max(free, qb + 0.5), 2 * qb - 0.5)
    m = _smooth(rng, free - r_bits) if free - r_bits >= 1 else 1
    # r starts below 0.8 q^2; the few primes tried before n is prime keep it
    # far below q^2
    r = next_prime(int(2**r_bits * (1 + 0.1 * rng.random())))
    while not is_prime(n := 2 * d * m * q * r + 1):
        r = next_prime(r + 1)
    factors = factor(n - 1)
    return {"n": n, "bits": n.bit_length(), "p2": factors[-2], "p1": factors[-1]}


# ---------------------------------------------------------------------------
# Malformed-input catalog
# ---------------------------------------------------------------------------


def malformed(rng: random.Random) -> list[dict]:
    """One request per catalog entry; parameters vary with the seed but
    never the expected verdict."""
    d = rng.randrange(3, 40)
    n_bad = next_prime(rng.randrange(100, 5000))
    while (n_bad - 1) % (2 * d) == 0:
        n_bad = next_prime(n_bad + 1)
    composite = 2 * d * rng.randrange(10, 200) + 1
    while is_prime(composite):
        composite += 2 * d
    m = rng.randrange(3, 30) | 1
    catalog = [
        ("inadmissible", ["construct", "--d", str(d), "--n", str(n_bad)]),
        ("composite", ["construct", "--d", str(d), "--n", str(composite)]),
        ("sphere-odd-d", ["sphere", "--d", str(m), "--n", str(admissible_at_least(m, 100))]),
        ("runs-zero", ["integrate", "--d", "4", "--n", "41", "--runs", "0", "--seed", str(rng.randrange(1000))]),
        ("runs-negative", ["integrate", "--d", "4", "--n", "41", "--runs", "-1", "--seed", str(rng.randrange(1000))]),
        ("sigma-inf", ["kernel", "--samples", "50", "--data-dim", "4", "--n", "41", "--runs", "1",
                       "--sigma", "inf", "--seed", str(rng.randrange(1000))]),
    ]
    return [{"cls": "malformed", "argv": argv, "expect": "reject", "info": {"entry": name}}
            for name, argv in catalog]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
#
# Each class has a latency band, and the bands do not overlap. With fixed
# class counts the p50 and p90 ranks of a pass then always land inside the
# same class (see README.md). A request's size is solved from a target
# latency drawn in its band, using the cost models below; they were fitted
# once on a 2-core x86 VM and serve only to place classes in their bands.
# Inputs depend on the seed alone, never on a measurement.

# class: (count, band low ms, band high ms)
CONSTRUCT = {
    "admissible": (4, None, None),
    "sphere": (34, 15.0, 24.0),
    "certify": (26, 30.0, 50.0),
    "closed-form": (16, 55.0, 78.0),
    "search": (20, 95.0, 135.0),
}
ESTIMATE = {
    "integrate": (30, 3.0, 15.0),
    "boltzmann": (50, 20.0, 36.0),
    "kernel": (20, 65.0, 110.0),
}
SWEEP_COUNT, SWEEP_N, SWEEP_D = 100, (1e3, 1.5e5), (16, 32, 64)
POOL_SIZE, POOL_D, POOL_N = 5, (10, 100), (400, 1000)
BOLTZMANN_MAX_D = 25
# (c0, g1, g2, h) and (a, b, c, e) in ms, fitted with one BLAS thread
BOLTZMANN_COST = {"partition": (4.4, 1.3e-4, 1.86e-6, 1.44e-4), "marginal": (10.1, 1.66e-4, 5.1e-6, 3.8e-5)}
KERNEL_COST = {
    "gaussian": (1.41e-4, 4.9e-7, 7.1e-8, 7.5e-7),
    "arccos0": (6.7e-6, 1.54e-7, 7.3e-8, 9.0e-7),
    "arccos1": (1.74e-5, 0.0, 8.0e-8, 1.57e-6),
}


def _bands(rng: random.Random, spec: tuple) -> list[float]:
    """Stratified log-uniform target latencies (ms) for one class, in
    ascending order, so the i-th request of a class always gets the i-th
    stratum."""
    count, lo, hi = spec
    return [_log_between((i + rng.random()) / count, lo, hi) for i in range(count)]


def _spread(rng: random.Random, i: int, count: int, lo: int, hi: int) -> int:
    """An integer in [lo, hi] for the i-th of ``count`` requests: each index
    keeps the same stratum in every pass (a fixed scrambled order, so the
    size parameter is not tied to the latency target), jittered inside it."""
    pos = random.Random(count).sample(range(count), count)[i]
    return int(lo + (pos + rng.random()) / count * (hi + 1 - lo))


def _cli(cls: str, argv: list, **info) -> dict:
    return {"cls": cls, "argv": [str(a) for a in argv], "expect": "ok", "info": info}


def construct(rng: random.Random) -> list[dict]:
    """Lattice and frame construction; estimator layers stay idle."""
    reqs: list[dict] = []
    count = CONSTRUCT["admissible"][0]
    for i, u in enumerate(_strata(rng, count)):
        d = _spread(rng, i, count, 8, 64)
        start = int(_log_between(u, 2.0**48, 2.0**56))
        reqs.append(_cli("closed-form", ["admissible", "--d", d, "--count", rng.randrange(5, 21), "--start", start],
                         d=d, start=start))
    # closed-form: trial division of n-1 runs to q, about 64 ns per unit
    for i, ms in enumerate(_bands(rng, CONSTRUCT["closed-form"])):
        d = _spread(rng, i, CONSTRUCT["closed-form"][0], 8, 64)
        mod = closed_form_modulus(rng, d, ms / 6.4e-5, rng.uniform(47.2, 55.8))
        reqs.append({"cls": "closed-form", "call": ["subgroup_generating_vector", [d, mod["n"]]],
                     "expect": "ok", "info": {"d": d, **mod}})
    # certify: two censuses, about 2 ms + n * (0.3 + 0.03 d) us
    for i, ms in enumerate(_bands(rng, CONSTRUCT["certify"])):
        d = _spread(rng, i, CONSTRUCT["certify"][0], 8, 64)
        n = admissible_near(2 * d, (ms - 2.0) * 1e3 / (0.3 + 0.03 * d))
        reqs.append(_cli("certify", ["construct", "--d", d, "--n", n], d=d, n=n))
    # search: about 2.3 ms + n^2 (9.5 d - 8.3) ns; a quarter are bench-timing
    for i, ms in enumerate(_bands(rng, CONSTRUCT["search"])):
        d = _spread(rng, i, CONSTRUCT["search"][0], 8, 14)
        n = admissible_near(2 * d, math.sqrt((ms - 2.3) / (9.5e-6 * d - 8.3e-6)))
        norm = ("l1", "l2")[i % 2]
        command = ["bench-timing"] if i % 4 == 3 else ["construct", "--method", "korobov"]
        reqs.append(_cli("search", command + ["--d", d, "--n", n, "--norm", norm], d=d, n=n, norm=norm))
    # sphere: about 3 ms + 100 ns per m*n
    for i, ms in enumerate(_bands(rng, CONSTRUCT["sphere"])):
        m = _spread(rng, i, CONSTRUCT["sphere"][0], 16, 64)
        n = admissible_near(m, (ms - 3.0) / 1e-4 / m)
        reqs.append(_cli("sphere", ["sphere", "--d", 2 * m, "--n", n], m=m, n=n, array_bytes=32 * m * n))
    return reqs


def estimate(rng: random.Random) -> list[dict]:
    """Small-to-mid estimator requests over a pool of base lattices."""
    pool = []
    for k in range(POOL_SIZE):
        d = int(round(_log_between((k + rng.random()) / POOL_SIZE, *POOL_D)))
        lo, hi = POOL_N
        pool.append((d, admissible_near(2 * d, _spread(rng, k, POOL_SIZE, lo, hi))))
    small = [p for p in pool if p[0] <= BOLTZMANN_MAX_D]
    reqs: list[dict] = []
    # integrate: about 3 ms + 30.8 ns per runs*n*d
    for i, ms in enumerate(_bands(rng, ESTIMATE["integrate"])):
        d, n = pool[i % POOL_SIZE]
        runs = min(max(round((ms - 3.0) / 30.8e-6 / (n * d)), 2), 20)
        reqs.append(_cli("integrate", ["integrate", "--d", d, "--n", n, "--runs", runs, "--seed", rng.randrange(10**6)],
                         d=d, n=n, b=2.0, c=1.0, array_bytes=8 * n * d))
    # boltzmann: c0 + gt (g1 + g2 d^2) + runs n d h ms for gt ground-truth samples
    for i, ms in enumerate(_bands(rng, ESTIMATE["boltzmann"])):
        d, n = small[i // 2 % len(small)]
        target = ("partition", "marginal")[i % 2]
        c0, g1, g2, h = BOLTZMANN_COST[target]
        runs = rng.randrange(2, 7)
        gt = max(int((ms - c0 - runs * n * d * h) / (g1 + g2 * d * d)), 5000)
        reqs.append(_cli("boltzmann", ["boltzmann", "--d", d, "--n", n, "--runs", runs,
                                       "--seed", rng.randrange(10**6), "--target", target, "--gt-samples", gt],
                         d=d, n=n, target=target, array_bytes=8 * gt * d))
    # kernel: runs s n (a + b d + c s) + e s^2 d ms for s samples; runs grow
    # until s fits in 1200
    for i, ms in enumerate(_bands(rng, ESTIMATE["kernel"])):
        d, n = pool[i // 4 % POOL_SIZE]
        family = ("gaussian", "gaussian", "arccos0", "arccos1")[i % 4]
        a, b, c, e = KERNEL_COST[family]
        runs = 2
        while True:
            quad, lin = runs * n * c + e * d, runs * n * (a + b * d)
            samples = int((math.sqrt(lin * lin + 4 * quad * ms) - lin) / (2 * quad))
            if samples <= 1200 or runs == 20:
                break
            runs += 1
        samples = max(samples, 300)
        reqs.append(_cli("kernel", ["kernel", "--kernel", family, "--samples", samples, "--data-dim", d, "--n", n,
                                    "--runs", runs, "--seed", rng.randrange(10**6)],
                         d=d, n=n, family=family, array_bytes=8 * samples * n * (2 if family == "gaussian" else 1)))
    return reqs


def sweep(rng: random.Random) -> list[dict]:
    """Convergence study: large point sets, one method per request.

    Sizes are stratified and each stratum gets a fixed (d, method), the
    largest stratum d = 64, so the heaviest requests and the peak array
    are the same from seed to seed up to the jitter inside a stratum.
    """
    reqs: list[dict] = []
    for k in range(SWEEP_COUNT):
        u = (k + rng.random()) / SWEEP_COUNT
        d = SWEEP_D[::-1][(SWEEP_COUNT - 1 - k) % 3]
        n = admissible_at_least(2 * d, int(_log_between(u, *SWEEP_N)))
        method = ("subgroup", "mc")[k % 2]
        reqs.append(_cli("integrate", ["integrate", "--d", d, "--n", n, "--runs", 2, "--method", method,
                                       "--seed", rng.randrange(10**6)], d=d, n=n, b=2.0, c=1.0,
                         array_bytes=8 * n * d))
    return reqs


_BUILDERS = {"construct": construct, "estimate": estimate, "sweep": sweep}


def requests(workload: str, seed: int, pass_index: int) -> list[dict]:
    """The shuffled request list of one pass; malformed entries included."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    reqs = _BUILDERS[workload](rng) + malformed(rng)
    rng.shuffle(reqs)
    return reqs

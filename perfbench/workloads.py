"""The benchmark's workloads: seeded inputs and the CLI job list of one pass.

A job is a dict with ``name``, ``argv`` (a ``birank`` command line without
``--out``), ``expect_exit``, ``headline`` and ``check`` (the parameters the
output check in checks.py needs).  Inputs are written under ``inputs``.
"""

import os

import gen


def _hessian_sweep(seed, inputs):
    # About three quarters of a pass is permhess Ryser permanents, the rest
    # exactla rank and signature; it never reaches polyring, abpdec, rankmin
    # or certify, so it is the bypass workload for those modules.
    jobs = [
        {
            "name": f"hessian-d{d}",
            "argv": ["hessian", "--d", str(d)],
            "expect_exit": 0,
            "headline": d == 8,
            "check": {"kind": "hessian", "d": d},
        }
        for d in (5, 6, 7, 8)
    ]
    gen.rng_for(seed, "hessian-order").shuffle(jobs)
    return jobs


def _decompose(seed, inputs):
    # polyring- and abpdec-heavy, never touching permhess, rankmin or
    # certify.  At corank 1 the verification target det_lambda_part takes
    # about 90% of the job; at corank 3 construction and BiDecomposition.build
    # take about half, so a trade between the two halves shows.
    jobs = []
    for corank in (1, 3):
        rng = gen.rng_for(seed, f"decompose-corank{corank}")
        rep, x0, const, coeffs = gen.corank_representation(rng, n=7, num_vars=9, corank=corank)
        points = []
        while len(points) < 3:
            y = [rng.randint(-3, 3) for _ in range(9)]
            if any(y):
                points.append(y)
        path = os.path.join(inputs, f"rep-corank{corank}.json")
        gen.write_json(path, rep)
        jobs.append({
            "name": f"decompose-corank{corank}",
            # "=" keeps argparse from reading a leading minus as an option.
            "argv": ["decompose", "--matrix", path, "--x0=" + ",".join(map(str, x0)), "--k", "2"],
            "expect_exit": 0,
            "headline": corank == 1,
            "check": {
                "kind": "decompose", "n": 7, "num_vars": 9, "k": 2, "corank": corank,
                "const": const, "coeffs": coeffs, "points": points,
            },
        })
    return jobs


def _gram_certify(seed, inputs):
    # The only workload reaching rankmin and certify: exact sampling
    # (brank-interval), write-heavy output (z2k, 12.8 MB at d = 6),
    # read-heavy input (vertex files) and float Jacobi.
    quartic = os.path.join(inputs, "quartic.json")
    gen.write_json(quartic, gen.integer_form(gen.rng_for(seed, "quartic"), num_vars=4, degree=4))
    jobs = [{
        "name": "interval-sym",
        "argv": ["brank-interval", "--poly", quartic, "--kind", "sym", "--budget", "20"],
        "expect_exit": 0,
        "headline": False,
        "check": {"kind": "interval", "num_vars": 4, "k": 2},
    }]
    for d in (5, 6):
        jobs.append({
            "name": f"z2k-d{d}",
            "argv": ["build", "--kind", "z2k", "--d", str(d), "--k", "2"],
            "expect_exit": 0,
            "headline": False,
            "check": {"kind": "z2k", "d": d, "k": 2},
        })
    # (rows of the embedding, vertex spectra, headline): the 120-row file
    # holds one positive and one indefinite vertex, so its certificate is
    # rejected (exit 2); the 240-row one is accepted.
    for rows, kinds, headline in ((120, ("positive", "indefinite"), False), (240, ("positive",), True)):
        m = rows // 2
        rng = gen.rng_for(seed, f"vertices-{rows}")
        spectra = {"positive": gen.positive_spectrum(m), "indefinite": gen.indefinite_spectrum(m)}
        vertices = [
            [gen.known_spectrum_matrix(rng, spectra[kind]), gen.known_spectrum_matrix(rng, spectra[kind])]
            for kind in kinds
        ]
        path = os.path.join(inputs, f"vertices-{rows}.json")
        gen.write_json(path, {"vertices": vertices})
        r = m
        l = rows - r
        # The embedding's spectrum is the union of the two blocks' spectra.
        mu = [str(sum(sorted(spectra[kind] * 2)[:l])) for kind in kinds]
        scale = l * max(abs(v) for kind in kinds for v in spectra[kind])
        accepted = all(kind == "positive" for kind in kinds)
        jobs.append({
            "name": f"certify-{rows}",
            "argv": ["certify", "--pair", "--vertices", path, "--r", str(r)],
            "expect_exit": 0 if accepted else 2,
            "headline": headline,
            "check": {
                "kind": "certify", "r": r, "l": l, "mu": mu, "scale": str(scale),
                "accepted": accepted,
            },
        })
    return jobs


_BUILDERS = {
    "hessian-sweep": _hessian_sweep,
    "decompose-7x7": _decompose,
    "gram-certify": _gram_certify,
}

NAMES = tuple(_BUILDERS)


def build(name, seed, inputs):
    """Write the workload's inputs for this seed under ``inputs`` and return
    its job list."""
    os.makedirs(inputs, exist_ok=True)
    return _BUILDERS[name](seed, inputs)

"""Acceptance gate.

Each test runs one verification battery at full strength and re-asserts
the advertised tolerances against the measured gaps, so a battery that
quietly loosened its thresholds would still fail here.  One summary line
per criterion is printed and repeated at the end of the pytest run.
"""

from conftest import record_acceptance

from corrpress.verify import (
    battery_basic,
    battery_characterizations,
    battery_conjugacy,
    battery_decomposition,
    battery_derivatives,
    battery_example,
    battery_type_one,
    battery_type_two,
)


def by_name(checks):
    return {c.name: c for c in checks}


def conclude(number, checks, summary):
    verdict = "PASS" if all(c.passed for c in checks) else "FAIL"
    record_acceptance(f"criterion-{number} {verdict}: {summary}")
    for c in checks:
        assert c.passed, f"{c.name}: gap={c.gap} {c.detail}"


def test_criterion_1_worked_example_three_routes():
    checks = battery_example(resolution=1024)
    named = by_name(checks)
    assert named["example-route-a"].gap <= 1e-12
    assert named["example-route-b"].gap <= 0.05
    assert named["example-route-c"].gap <= 1e-9
    assert named["example-runtime"].seconds < 30.0
    conclude(1, checks,
             "routes a=%.1e b=%.1e c=%.1e in %.1fs"
             % (named["example-route-a"].gap, named["example-route-b"].gap,
                named["example-route-c"].gap, named["example-runtime"].seconds))


def test_criterion_2_pressure_oracles_and_properties():
    checks = battery_basic(count=100, prop_count=25)
    named = by_name(checks)
    assert named["pressure-oracle-gap"].gap <= 5e-3
    assert named["shift-exact"].gap <= 1e-9
    assert named["monotonicity"].gap <= 1e-12
    assert named["convexity-grid"].gap <= 1e-10
    assert named["coboundary-invariance"].gap <= 1e-9
    assert named["basic-runtime"].seconds < 60.0
    conclude(2, checks,
             "100 relations, oracle=%.1e coboundary=%.1e in %.1fs"
             % (named["pressure-oracle-gap"].gap,
                named["coboundary-invariance"].gap,
                named["basic-runtime"].seconds))


def test_criterion_3_invariance_characterizations():
    checks = battery_characterizations(count=200)
    named = by_name(checks)
    assert named["modes-agree"].gap == 0.0
    assert named["witness-fixes-measure"].gap <= 1e-10
    conclude(3, checks,
             "200 pairs, modes agree, worst witness gap %.1e"
             % named["witness-fixes-measure"].gap)


def test_criterion_4_variational_principle():
    checks = battery_type_one(gibbs_count=100, mp_count=20, mp_each=5,
                              extreme_count=20)
    named = by_name(checks)
    assert named["gibbs-attains-pressure"].gap <= 1e-9
    assert named["measure-pressure-dominated"].gap <= 1e-8
    assert named["extreme-points-attain"].gap <= 1e-6
    conclude(4, checks,
             "gibbs=%.1e dominated=%.1e extremes=%.1e"
             % (named["gibbs-attains-pressure"].gap,
                named["measure-pressure-dominated"].gap,
                named["extreme-points-attain"].gap))


def test_criterion_5_abstract_entropy():
    checks = battery_type_two(count=50, unbalanced_count=20,
                              with_evidence=True)
    named = by_name(checks)
    assert named["entropy-matches-gibbs"].gap <= 1e-4
    assert named["abstract-dominates-entropy"].gap <= 1e-4
    # attainment at the dual potential within 1e-9 and weak duality to
    # 1e-12; the gap is the larger of the two
    assert named["abstract-entropy-certificate"].passed
    assert named["abstract-entropy-certificate"].gap <= 1e-9
    assert named["unbalanced-minus-infinity"].gap == 0.0
    conclude(5, checks,
             "gibbs=%.1e domination=%.1e certificate=%.1e, "
             "all unbalanced pairs rejected"
             % (named["entropy-matches-gibbs"].gap,
                named["abstract-dominates-entropy"].gap,
                named["abstract-entropy-certificate"].gap))


def test_criterion_6_derivatives_and_tangents():
    checks = battery_derivatives(count=100, ineq_count=10, ineq_each=20)
    named = by_name(checks)
    assert named["tangent-matches-fd"].gap <= 1e-4
    assert named["two-loop-one-sided"].gap <= 1e-6
    assert named["tangent-inequality"].gap <= 1e-8
    conclude(6, checks,
             "fd=%.1e two-loop=%.1e support=%.1e"
             % (named["tangent-matches-fd"].gap,
                named["two-loop-one-sided"].gap,
                named["tangent-inequality"].gap))


def test_criterion_7_block_decompositions():
    checks = battery_decomposition(count=50)
    named = by_name(checks)
    assert named["block-maximum-formula"].gap <= 1e-9
    conclude(7, checks,
             "50 block relations, worst gap %.1e"
             % named["block-maximum-formula"].gap)


def test_criterion_8_relabeling_invariance():
    checks = battery_conjugacy(count=100)
    worst = max(c.gap for c in checks)
    for c in checks:
        assert c.gap <= 1e-8
    conclude(8, checks, "100 triples, worst quantity gap %.1e" % worst)

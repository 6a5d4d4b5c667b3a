"""The self-check suites: every one passes on the bundled models, and an
injected fault is caught."""

from safemanip import dynamics, validate


def test_every_suite_passes():
    results = validate.run_suites()
    assert all(r.ok for r in results), validate.summarize(results)
    assert all(r.passed > 0 for r in results), validate.summarize(results)


def test_gravity_check_catches_a_wrong_gravity_torque(monkeypatch):
    assert validate.check_gravity(n_configs=5).ok
    real = dynamics.gravity_torque
    monkeypatch.setattr(dynamics, "gravity_torque",
                        lambda m, q: real(m, q) + 1e-3)
    res = validate.check_gravity(n_configs=5)
    assert res.failed > 0
    assert res.passed == 0


def test_mdot_power_check_catches_a_dropped_transpose_term(monkeypatch):
    # Mdot qd = C qd + C' qd; returning only C qd (bias - g) halves the power
    assert validate.check_mdot_power(n_configs=5).ok
    monkeypatch.setattr(
        dynamics, "mdot_qd",
        lambda m, frames, qd: (dynamics.bias_forces(m, frames, qd)
                               - dynamics.gravity_torque(m, frames)))
    res = validate.check_mdot_power(n_configs=5)
    assert res.failed > 0
    assert res.passed == 0

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

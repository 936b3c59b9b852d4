"""Importing the CLI loads no scipy submodule; the kernels that need one
import it on their first call.  The THz path of both scenarios, Marcum
calibration and the scenario-2 radial search included, never loads
scipy.optimize."""

import json
import os
import subprocess
import sys

from metarel import canonical as can
from metarel import specfun, thz

LAZY_MODULES = ("scipy.special", "scipy.integrate", "scipy.optimize")
TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(TESTS_DIR), "src")


def thz_kernel_values() -> dict:
    """One value of each THz-path function that imports scipy inside itself
    (``_piece_roots`` through ``roots_scenario2``)."""
    prm = thz.ThzParams(m_shape=1)
    table = thz.synthetic_monotone_table(335e9, 380e9, 0.8, 3.0)
    p1t = thz.attenuation_metric(357e9, 12.0, table)
    return {
        "marcum_q1": specfun.marcum_q1(2.0, 1.5),
        "marcum_q1_inverse_b": specfun.marcum_q1_inverse_b(2.0, 0.3),
        "lambert_w0": specfun.lambert_w0(1.0),
        "carrier_pdf": thz.carrier_pdf(350e9, prm),
        "carrier_cdf": thz.carrier_cdf(350e9, prm),
        "carrier_cdf_inverse": thz.carrier_cdf_inverse(0.3, prm),
        "roots_scenario2": thz.roots_scenario2(12.0, p1t, prm, table)[0],
    }


def lazy_kernel_values() -> dict:
    """One value of each function that imports scipy inside itself; the
    canonical quadrature's scipy.integrate loads scipy.optimize."""
    return {
        "zeroth_order_reliability_closed": can.zeroth_order_reliability_closed(0.8, 3.5, 0.6),
        **thz_kernel_values(),
    }


# Runs in a fresh interpreter: what `import metarel.cli` loaded, whether a
# domain error in the quadrature closed form is raised before
# scipy.integrate is imported, whether thz_kernel_values() and a
# default-anchor sweep of each scenario load scipy.optimize, and then
# lazy_kernel_values().
SCRIPT = f"""
import json, sys
import metarel.cli
loaded_by_import = [m for m in {LAZY_MODULES!r} if m in sys.modules]

from metarel import canonical as can
from metarel.errors import DomainError
try:
    can.zeroth_order_reliability_closed(0.8, 3.5, 0.0)
    raised = False
except DomainError:
    raised = True
integrate_after_error = "scipy.integrate" in sys.modules

sys.path.insert(0, {TESTS_DIR!r})
import test_import_footprint
test_import_footprint.thz_kernel_values()
sweep_codes = [
    metarel.cli.main(["thz", "--seed", "1", "--scenario", scenario, "--axis", "p2",
                      "--grid", "0.5"])
    for scenario in ("1", "2")
]
optimize_after_thz = "scipy.optimize" in sys.modules
print(json.dumps({{
    "loaded_by_import": loaded_by_import,
    "raised": raised,
    "integrate_after_error": integrate_after_error,
    "sweep_codes": sweep_codes,
    "optimize_after_thz": optimize_after_thz,
    "values": test_import_footprint.lazy_kernel_values(),
}}))
"""


def test_cli_import_loads_no_scipy_submodule_and_lazy_kernels_work():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["loaded_by_import"] == []
    assert report["raised"] and not report["integrate_after_error"]
    assert report["sweep_codes"] == [0, 0] and not report["optimize_after_thz"]
    # json round-trips floats exactly, so the fresh values must equal these
    assert report["values"] == lazy_kernel_values()

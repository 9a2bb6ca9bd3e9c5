"""Fleet chaos benchmark: failover's worth under the full soak.

Not a paper artifact - the fleet layer is this repository's scale-out
extension - but it is measured the same way the paper measures its
runtime claims: the identical seeded scenario with the mechanism on and
off, compared on the latency statistic the mechanism is accountable
for.  Failover cannot make any individual window faster; what it buys
is that surviving tenants stop accumulating browned-out windows, which
is exactly the per-segment p95 slowdown gap asserted here.
"""

from benchmarks.conftest import run_once
from repro.eval.metrics import format_table
from repro.fleet import FleetSoakScenario
from tests.soaks import run_fleet_soak


def test_failover_vs_stranding(benchmark):
    scenario = FleetSoakScenario()

    def evaluate():
        _, with_failover = run_fleet_soak(scenario, failover=True)
        _, stranded = run_fleet_soak(scenario, failover=False)
        return with_failover, stranded

    with_failover, stranded = run_once(benchmark, evaluate)

    rows = [["", "failover on", "failover off"]]
    for label, pick in [
        ("surviving tenants",
         lambda r: sum(1 for m in r.tenants.values()
                       if m.status == "completed")),
        ("failed tenants",
         lambda r: sum(1 for m in r.tenants.values()
                       if m.status == "failed")),
        ("migrations", lambda r: r.counts.get("migrate", 0)),
        ("p95 slowdown",
         lambda r: f"x{r.surviving_p95_slowdown:.3f}"),
    ]:
        rows.append([label, str(pick(with_failover)),
                     str(pick(stranded))])
    print("\n" + format_table(rows))

    # Failover saves tenants outright...
    on_survivors = sum(1 for m in with_failover.tenants.values()
                       if m.status == "completed")
    off_survivors = sum(1 for m in stranded.tenants.values()
                        if m.status == "completed")
    assert on_survivors > off_survivors
    # ...and the tenants that survive either way degrade strictly less.
    assert (with_failover.surviving_p95_slowdown
            < stranded.surviving_p95_slowdown)

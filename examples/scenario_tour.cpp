// Scenario tour: the declarative way to run heterogeneous client fleets.
// Lists the built-in catalog, then runs one scenario at smoke scale and
// prints its per-group + fleet report. The same specs drive
// `airindex_cli scenario` and the figure benches.
//
//   $ ./scenario_tour

#include <cstdio>

#include "device/profile_catalog.h"
#include "sim/scenario.h"
#include "sim/scenario_catalog.h"

using namespace airindex;  // NOLINT: example binary

int main() {
  std::printf("built-in scenarios:\n");
  for (const sim::Scenario& s : sim::ScenarioCatalog()) {
    std::printf("  %-20s %s\n", s.name.c_str(), s.description.c_str());
  }
  std::printf("\nbuilt-in device profiles:\n");
  for (const device::ProfileSpec& p : device::ProfileCatalog()) {
    std::printf("  %-12s %s\n", std::string(p.name).c_str(),
                std::string(p.description).c_str());
  }

  // Run the mixed fleet small: three client groups (rush-hour smartphone
  // commuters, memory-bound sensors on a bursty link, uniform feature
  // phones) against two systems, one engine, one report.
  sim::Scenario scenario = sim::FindScenario("mixed-fleet").value();
  scenario.scale = 0.04;
  scenario.total_queries = 18;
  scenario.systems = {"DJ", "NR"};

  auto result = sim::ScenarioRunner().Run(scenario);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("\n%s", sim::ScenarioToText(*result).c_str());
  std::printf(
      "\nEvery group ran through the same broadcast cycles (built once for\n"
      "the whole fleet); the fleet table re-aggregates the combined\n"
      "per-query samples with each group's own device energy model.\n");
  return 0;
}

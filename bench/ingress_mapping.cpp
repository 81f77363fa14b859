// §2.1 reproduction: the geography of ingress mapping.
//
// Paper: "half of all traffic is to users within 500 km of the serving
// PoP, and 90% is to users within 2500 km and in the same continent. The
// 10% of traffic served by a PoP in a different continent is composed
// predominantly of European PoPs serving users in Asia (4.8% of all
// traffic) and Africa (2.1%)."
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "stats/cdf.h"
#include "util/cli.h"
#include "workload/world.h"

using namespace fbedge;

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr, "usage: ingress_mapping [groups_per_continent]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2) usage();
  WorldConfig wc;
  wc.seed = 2019;
  wc.groups_per_continent =
      argc > 1 ? cli::flag_value("groups_per_continent", argv[1], 1,
                                 std::numeric_limits<int>::max(), usage)
               : 200;
  const World world = build_world(wc);

  WeightedCdf distance_km;
  double total_weight = 0;
  double within_2500_same_continent = 0;
  double eu_serves_asia = 0;
  double eu_serves_africa = 0;
  double cross_continent = 0;

  for (const auto& g : world.groups) {
    const double w = g.weight * g.sessions_per_window;  // traffic proxy
    total_weight += w;
    distance_km.add(g.pop_distance_km, w);
    if (!g.remote_served && g.pop_distance_km <= 2500) {
      within_2500_same_continent += w;
    }
    if (g.remote_served) {
      cross_continent += w;
      if (g.continent == Continent::kAsia) eu_serves_asia += w;
      if (g.continent == Continent::kAfrica) eu_serves_africa += w;
    }
  }

  std::printf("==== §2.1: distance from users to their serving PoP ====\n");
  std::printf("paper: 50%% of traffic within 500 km; 90%% within 2500 km and\n");
  std::printf("       same-continent; cross-continent ~10%% dominated by\n");
  std::printf("       EU->Asia (4.8%%) and EU->Africa (2.1%%)\n\n");
  std::printf("measured: within 500 km:            %.3f\n",
              distance_km.fraction_at_or_below(500));
  std::printf("measured: within 2500 km + local:   %.3f\n",
              within_2500_same_continent / total_weight);
  std::printf("measured: cross-continent total:    %.3f\n",
              cross_continent / total_weight);
  std::printf("measured: EU serving Asia:          %.3f\n",
              eu_serves_asia / total_weight);
  std::printf("measured: EU serving Africa:        %.3f\n",
              eu_serves_africa / total_weight);

  std::printf("\ndistance CDF [km]:\n");
  for (const auto& [km, frac] : distance_km.series(12)) {
    std::printf("  %8.0f  %.3f\n", km, frac);
  }
  return 0;
}

#include "core/systems.h"

#include "core/arcflag_on_air.h"
#include "core/dijkstra_on_air.h"
#include "core/eb.h"
#include "core/hiti_on_air.h"
#include "core/landmark_on_air.h"
#include "core/nr.h"
#include "core/spq_on_air.h"

namespace airindex::core {

std::vector<std::string_view> SystemNames(const SystemParams& params) {
  std::vector<std::string_view> names = {"DJ", "NR", "EB", "LD", "AF"};
  if (params.include_spq) names.push_back("SPQ");
  if (params.include_hiti) names.push_back("HiTi");
  return names;
}

Result<std::unique_ptr<AirSystem>> BuildSystem(const graph::Graph& g,
                                               std::string_view method,
                                               const SystemParams& params) {
  if (method == "DJ") {
    AIRINDEX_ASSIGN_OR_RETURN(auto sys, DijkstraOnAir::Build(g, params.build));
    return std::unique_ptr<AirSystem>(std::move(sys));
  }
  if (method == "NR") {
    AIRINDEX_ASSIGN_OR_RETURN(
        auto sys, NrSystem::Build(g, params.nr_regions, params.build));
    return std::unique_ptr<AirSystem>(std::move(sys));
  }
  if (method == "EB") {
    AIRINDEX_ASSIGN_OR_RETURN(
        auto sys, EbSystem::Build(g, params.eb_regions, params.build));
    return std::unique_ptr<AirSystem>(std::move(sys));
  }
  if (method == "LD") {
    AIRINDEX_ASSIGN_OR_RETURN(
        auto sys, LandmarkOnAir::Build(g, params.landmarks, /*seed=*/17,
                                       params.build));
    return std::unique_ptr<AirSystem>(std::move(sys));
  }
  if (method == "AF") {
    AIRINDEX_ASSIGN_OR_RETURN(
        auto sys,
        ArcFlagOnAir::Build(g, params.arcflag_regions, params.build));
    return std::unique_ptr<AirSystem>(std::move(sys));
  }
  if (method == "SPQ") {
    AIRINDEX_ASSIGN_OR_RETURN(auto sys, SpqOnAir::Build(g, params.build));
    return std::unique_ptr<AirSystem>(std::move(sys));
  }
  if (method == "HiTi") {
    AIRINDEX_ASSIGN_OR_RETURN(
        auto sys, HiTiOnAir::Build(g, params.hiti_regions, params.build));
    return std::unique_ptr<AirSystem>(std::move(sys));
  }
  return Status::InvalidArgument("unknown method " + std::string(method));
}

Result<std::vector<std::unique_ptr<AirSystem>>> BuildSystems(
    const graph::Graph& g, const SystemParams& params) {
  std::vector<std::unique_ptr<AirSystem>> systems;
  for (std::string_view name : SystemNames(params)) {
    AIRINDEX_ASSIGN_OR_RETURN(auto sys, BuildSystem(g, name, params));
    systems.push_back(std::move(sys));
  }
  return systems;
}

}  // namespace airindex::core

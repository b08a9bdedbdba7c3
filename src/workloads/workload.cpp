#include "workloads/workload.h"

namespace graphbig::workloads {

const char* to_string(ComputationType type) {
  switch (type) {
    case ComputationType::kStructure:
      return "CompStruct";
    case ComputationType::kProperty:
      return "CompProp";
    case ComputationType::kDynamic:
      return "CompDyn";
  }
  return "?";
}

const char* to_string(Category category) {
  switch (category) {
    case Category::kTraversal:
      return "Graph traversal";
    case Category::kConstructionUpdate:
      return "Graph construction/update";
    case Category::kAnalytics:
      return "Graph analytics";
    case Category::kSocialAnalysis:
      return "Social analysis";
  }
  return "?";
}

const std::vector<const Workload*>& all_cpu_workloads() {
  static const std::vector<const Workload*> workloads = {
      &bfs(),    &dfs(),   &gcons(), &gup(), &tmorph(),
      &spath(),  &kcore(), &ccomp(), &gcolor(), &tc(),
      &gibbs_inf(), &dcentr(), &bcentr(),
  };
  return workloads;
}

const Workload* find_workload(const std::string& acronym) {
  for (const Workload* w : all_cpu_workloads()) {
    if (w->acronym() == acronym) return w;
  }
  for (const Workload* w : extension_workloads()) {
    if (w->acronym() == acronym) return w;
  }
  return nullptr;
}

int use_case_count(const std::string& acronym) {
  // Figure 4(A): number of the 21 analyzed use cases employing each
  // workload.
  if (acronym == "BFS") return 10;
  if (acronym == "DFS") return 5;
  if (acronym == "GCons") return 9;
  if (acronym == "GUp") return 9;
  if (acronym == "TMorph") return 5;
  if (acronym == "SPath") return 7;
  if (acronym == "kCore") return 5;
  if (acronym == "CComp") return 6;
  if (acronym == "GColor") return 5;
  if (acronym == "TC") return 4;
  if (acronym == "Gibbs") return 5;
  if (acronym == "DCentr") return 8;
  if (acronym == "BCentr") return 8;
  return 0;
}

std::size_t undirected_degree(const graph::VertexRecord& v) {
  return v.out.size() + v.in.size();
}

}  // namespace graphbig::workloads

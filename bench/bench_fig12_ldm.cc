// Figure 12 — LDM: effect of the number of landmarks c.
//   12a: communication overhead vs c
//   12b: offline construction time vs c (slightly superlinear)
// c values are scaled from the paper's 50..800, like the default c=40
// (paper 200), to the ~24x smaller stand-in network. Because our
// networks are ~24x smaller, a handful of landmarks already saturates the
// lower bound: the sweep therefore covers both the paper's falling regime
// (c = 2..10, weak bounds -> big proofs) and the saturation regime beyond
// it where the per-tuple vector payload starts to dominate.
#include <cstdio>

#include "bench_common.h"

using namespace spauth;
using namespace spauth::bench;

int main() {
  const Graph& graph = DatasetGraph(Dataset::kDE);
  const std::vector<Query> queries = MakeWorkload(graph, kDefaultQueryRange);

  PrintHeader("Figure 12", "LDM: effect of the number of landmarks");
  TablePrinter table({"landmarks (c)", "S-prf [KB]", "T-prf [KB]",
                      "total [KB]", "construction [s]"});
  for (uint32_t c : {2u, 5u, 10u, 40u, 160u}) {
    EngineOptions options = DefaultEngineOptions(MethodKind::kLdm);
    options.num_landmarks = c;
    auto engine = MakeEngine(graph, options, OwnerKeys());
    if (!engine.ok()) {
      std::fprintf(stderr, "engine build failed\n");
      return 1;
    }
    WorkloadStats stats = MeasureWorkload(*engine.value(), queries);
    table.AddRow({std::to_string(c), TablePrinter::Fmt(stats.sp_kb),
                  TablePrinter::Fmt(stats.t_kb),
                  TablePrinter::Fmt(stats.total_kb),
                  TablePrinter::Fmt(engine.value()->construction_seconds(),
                                    3)});
  }
  table.Print();
  std::printf("\n");
  return 0;
}

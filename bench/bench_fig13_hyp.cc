// Figure 13 — HYP: effect of the number of HiTi cells p.
//   13a: communication overhead vs p (decreases with p)
//   13b: offline construction time vs p (sublinear increase)
// p values are scaled from the paper's 25..625, like the default p=49
// (paper 225), to the ~24x smaller stand-in network (graph/generator.h).
#include <cstdio>

#include "bench_common.h"

using namespace spauth;
using namespace spauth::bench;

int main() {
  const Graph& graph = DatasetGraph(Dataset::kDE);
  const std::vector<Query> queries = MakeWorkload(graph, kDefaultQueryRange);

  PrintHeader("Figure 13", "HYP: effect of the number of cells");
  TablePrinter table({"cells (p)", "S-prf [KB]", "T-prf [KB]", "total [KB]",
                      "hyper-edges", "construction [s]"});
  for (uint32_t p : {9u, 25u, 49u, 100u, 225u}) {
    EngineOptions options = DefaultEngineOptions(MethodKind::kHyp);
    options.num_cells = p;
    auto engine = MakeEngine(graph, options, OwnerKeys());
    if (!engine.ok()) {
      std::fprintf(stderr, "engine build failed\n");
      return 1;
    }
    WorkloadStats stats = MeasureWorkload(*engine.value(), queries);
    table.AddRow({std::to_string(p), TablePrinter::Fmt(stats.sp_kb),
                  TablePrinter::Fmt(stats.t_kb),
                  TablePrinter::Fmt(stats.total_kb),
                  TablePrinter::Fmt(
                      static_cast<double>(engine.value()->storage_bytes()) /
                          1024 / 1024,
                      2) + " MB idx",
                  TablePrinter::Fmt(engine.value()->construction_seconds(),
                                    3)});
  }
  table.Print();
  std::printf("\n");
  return 0;
}

// Shared driver for the figure benches: datasets, workloads, per-method
// measurement and paper-style table printing.
#ifndef SPAUTH_BENCH_BENCH_COMMON_H_
#define SPAUTH_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "crypto/rsa.h"
#include "graph/generator.h"
#include "graph/workload.h"

namespace spauth::bench {

/// Default experiment parameters (Table II, scaled to the stand-in
/// datasets of graph/generator.h): dataset DE', ordering hbt, query range
/// 2000, fanout 2, c=40 (paper 200), b=12, xi=50, p=49 (paper 225), 100
/// queries per data point. The stand-ins are ~24x smaller than the
/// paper's networks, so c and p shrink ~5x.
inline constexpr double kDefaultQueryRange = 2000;
inline constexpr size_t kWorkloadSize = 100;
inline constexpr uint64_t kWorkloadSeed = 7;

/// The owner's signing key (1024-bit, deterministic); generated once per
/// process.
const RsaKeyPair& OwnerKeys();

/// Generates (and caches per process) a dataset graph.
const Graph& DatasetGraph(Dataset d);

/// Engine options with the evaluation defaults for `method`.
EngineOptions DefaultEngineOptions(MethodKind method);

/// Mean per-query measurements over a workload. Every answer is also
/// verified; the run aborts if any verification fails (a bench must not
/// silently measure broken proofs).
struct WorkloadStats {
  double sp_kb = 0;         // mean Gamma_S kilobytes
  double t_kb = 0;          // mean Gamma_T kilobytes
  double total_kb = 0;
  double sp_items = 0;      // mean items in Gamma_S
  double t_items = 0;       // mean items in Gamma_T
  double answer_ms = 0;     // provider proof generation
  double verify_ms = 0;     // client verification
};

WorkloadStats MeasureWorkload(const MethodEngine& engine,
                              const std::vector<Query>& queries);

/// Workload of `kWorkloadSize` queries at `range` on `g`.
std::vector<Query> MakeWorkload(const Graph& g, double range);

/// Minimal fixed-width table printer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

  static std::string Fmt(double value, int precision = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints the standard bench banner.
void PrintHeader(const std::string& figure, const std::string& description);

}  // namespace spauth::bench

#endif  // SPAUTH_BENCH_BENCH_COMMON_H_

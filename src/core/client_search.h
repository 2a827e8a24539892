// Client-side re-execution of shortest path search over *authenticated
// tuples only* — the heart of subgraph-proof verification. The client has
// no access to the graph; its entire world is the tuple set decoded from
// Gamma_S, indexed by a TupleLane. The searches here mirror Dijkstra / A* but additionally detect
// when the proof is missing a tuple the search needs (the tuple-drop attack
// of Section IV-A).
#ifndef SPAUTH_CORE_CLIENT_SEARCH_H_
#define SPAUTH_CORE_CLIENT_SEARCH_H_

#include <vector>

#include "core/verify_outcome.h"
#include "graph/graph.h"
#include "graph/path.h"
#include "graph/search_workspace.h"
#include "graph/workload.h"
#include "hints/extended_tuple.h"

namespace spauth {

/// Generation-stamped node-id -> tuple-pointer index over a decoded tuple
/// set. The certified node count (MethodParams::num_network_leaves) bounds
/// every genuine tuple id, so a flat array serves as the index;
/// Prepare() invalidates in O(1) and the slot arrays keep their capacity,
/// so a hot verifier indexes proof after proof without allocating.
/// Single-threaded; one per VerifyWorkspace.
class TupleLane {
 public:
  enum class InsertResult { kOk, kDuplicate, kOutOfRange };

  /// Readies the lane for a tuple set over ids in [0, num_nodes).
  void Prepare(size_t num_nodes) {
    num_nodes_ = num_nodes;
    if (++generation_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      generation_ = 1;
    }
    if (slots_.size() < num_nodes) {
      slots_.resize(num_nodes, nullptr);
      stamp_.resize(num_nodes, 0);
    }
  }

  /// Registers `tuple` under its id. The pointer must outlive the lane's
  /// current generation (the verifier's decoded answer does).
  InsertResult Insert(const ExtendedTuple* tuple) {
    const NodeId v = tuple->id;
    if (v >= num_nodes_) {
      return InsertResult::kOutOfRange;
    }
    if (stamp_[v] == generation_) {
      return InsertResult::kDuplicate;
    }
    stamp_[v] = generation_;
    slots_[v] = tuple;
    return InsertResult::kOk;
  }

  /// The tuple registered for `v`, or nullptr (absent or out of range).
  const ExtendedTuple* Find(NodeId v) const {
    return v < num_nodes_ && stamp_[v] == generation_ ? slots_[v] : nullptr;
  }

  /// The id bound of the current generation (certified node count).
  size_t num_nodes() const { return num_nodes_; }

 private:
  std::vector<const ExtendedTuple*> slots_;
  std::vector<uint32_t> stamp_;
  uint32_t generation_ = 0;
  size_t num_nodes_ = 0;
};

struct SubgraphSearchOutcome {
  enum class Code {
    kOk,                // target settled; `distance` is its distance
    kMissingTuple,      // a strictly-needed tuple is absent (see node)
    kTargetNotReached,  // search exhausted without reaching the target
    kBadTupleData,      // tuple lacks required landmark fields
  };
  Code code = Code::kTargetNotReached;
  double distance = kInfDistance;
  NodeId node = kInvalidNode;  // offending node for error codes
  size_t settled = 0;
};

/// Dijkstra over the tuples (DIJ verification, Section IV-A). Expands every
/// node whose key is within `claimed_distance` (+ slack); a missing tuple
/// at key <= claimed - slack is a hard failure, missing tuples in the
/// boundary band are tolerated. Stops as soon as the target settles. The
/// distance lane and heap are borrowed from `ws` (forward lane + dist heap)
/// so a hot verifier searches without allocating.
SubgraphSearchOutcome DijkstraOverTuples(const TupleLane& tuples,
                                         NodeId source, NodeId target,
                                         double claimed_distance,
                                         SearchWorkspace& ws);

/// A* over the tuples with the compressed-quantized landmark bound of
/// Lemmas 3-4 (LDM verification, Section V-A). `lambda` comes from the
/// certificate. Re-expands on shorter g, so the inconsistent loose bound is
/// safe. Requires every touched tuple to carry landmark data and every
/// referenced representative to be present with its code vector. Uses the
/// forward lane and A* heap of `ws`.
SubgraphSearchOutcome AStarOverTuples(const TupleLane& tuples, NodeId source,
                                      NodeId target, double claimed_distance,
                                      double lambda, SearchWorkspace& ws);

/// Dijkstra from `source` restricted to edges whose endpoints both carry
/// tuples in cell `cell` (HYP verification, Section V-B). Writes the
/// in-cell distances into `dist` (prepared for the lane's node count;
/// unreached nodes read kInfDistance) using `heap` as scratch. When
/// `reached` is non-null the settled nodes are appended to it.
void InCellDijkstraOverTuples(const TupleLane& tuples, NodeId source,
                              uint32_t cell, SearchLane* dist,
                              FourAryHeap<DistHeapEntry>* heap,
                              std::vector<NodeId>* reached);

/// Shared by all methods: checks the reported path against the
/// authenticated tuples — endpoints match the query, no repeated nodes,
/// every hop is an authenticated edge, and the weights sum to the claimed
/// distance. `scratch` holds the repeated-node check's sort buffer.
VerifyOutcome CheckPathAgainstTuples(const TupleLane& tuples,
                                     const Query& query, const Path& path,
                                     double claimed_distance,
                                     std::vector<NodeId>* scratch);

}  // namespace spauth

#endif  // SPAUTH_CORE_CLIENT_SEARCH_H_

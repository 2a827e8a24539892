// Weighted undirected graph with node coordinates — the road-network model
// of the paper (Section III-A): G = (V, E, W), nodes carry (x, y)
// geo-coordinates, edge weights are arbitrary non-negative values (travel
// distance, time, toll, ...). Stored in CSR form; each undirected edge
// appears in both endpoints' adjacency lists.
//
// Persistence: the immutable CSR components (offsets, coordinates) are held
// behind shared_ptr, and the adjacency array is split into per-node-block
// chunks that are likewise shared. Copying a Graph copies only pointers —
// no edge is duplicated — and SetEdgeWeight copy-on-writes exactly the two
// blocks holding the edge's half-entries. That makes the engine's snapshot
// rotation (clone graph, re-weight one edge, publish) O(block) instead of
// O(V + E): retired snapshots keep reading the blocks they alias while the
// owner's clone rewrites its private copies.
//
// Structural edits (AddEdge / RemoveEdge / AddVertex) follow the same
// discipline at a coarser grain: the two touched adjacency blocks are
// copy-on-written like a re-weighting, and the offset/coordinate spines —
// which every node's block indexing depends on — are replaced wholesale
// with fresh private vectors. Blocks of *untouched* nodes stay shared:
// a node's in-block position is offsets[v] - offsets[block_base], and a
// splice at node u shifts every offset after u by the same amount, so the
// difference is invariant for every block that does not contain u.
#ifndef SPAUTH_GRAPH_GRAPH_H_
#define SPAUTH_GRAPH_GRAPH_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "util/status.h"

namespace spauth {

using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = 0xffffffffu;
inline constexpr double kInfDistance = std::numeric_limits<double>::infinity();

/// One directed half of an undirected edge.
struct Edge {
  NodeId to;
  double weight;
};

/// One owner-side update op: re-weight a road, open one, close one, add
/// an intersection. The unit of the update pipeline — core/updates.h
/// absorbs ordered batches of these into one signed rotation, and the WAL
/// logs them so recovery replays them byte-identically. Values are part of
/// the WAL format — never renumber, only append.
enum class StructuralOpKind : uint8_t {
  kAddEdge = 1,     // insert undirected edge (u, v) with `weight`
  kRemoveEdge = 2,  // delete undirected edge (u, v)
  kAddVertex = 3,   // append an isolated node at (x, y)
  kSetWeight = 4,   // re-weight existing edge (u, v) to `weight`
};

struct StructuralUpdate {
  StructuralOpKind kind = StructuralOpKind::kAddEdge;
  NodeId u = kInvalidNode;  // edge endpoints (every kind but kAddVertex)
  NodeId v = kInvalidNode;
  double weight = 0;  // kAddEdge / kSetWeight
  double x = 0;       // kAddVertex coordinates
  double y = 0;

  static StructuralUpdate SetWeight(NodeId u, NodeId v, double weight) {
    return EdgeOp(StructuralOpKind::kSetWeight, u, v, weight);
  }
  static StructuralUpdate AddEdge(NodeId u, NodeId v, double weight) {
    return EdgeOp(StructuralOpKind::kAddEdge, u, v, weight);
  }
  static StructuralUpdate RemoveEdge(NodeId u, NodeId v) {
    return EdgeOp(StructuralOpKind::kRemoveEdge, u, v, 0);
  }
  static StructuralUpdate AddVertex(double x, double y) {
    StructuralUpdate op;
    op.kind = StructuralOpKind::kAddVertex;
    op.x = x;
    op.y = y;
    return op;
  }

 private:
  static StructuralUpdate EdgeOp(StructuralOpKind kind, NodeId u, NodeId v,
                                 double weight) {
    StructuralUpdate op;
    op.kind = kind;
    op.u = u;
    op.v = v;
    op.weight = weight;
    return op;
  }
};

/// A bare edge re-weighting, kept as the compact form re-weight-only
/// callers build; it converts to the equivalent kSetWeight op.
struct EdgeWeightUpdate {
  NodeId u = 0;
  NodeId v = 0;
  double new_weight = 0;

  operator StructuralUpdate() const {
    return StructuralUpdate::SetWeight(u, v, new_weight);
  }
};

/// Axis-aligned bounding box of the node coordinates.
struct BoundingBox {
  double min_x = 0, min_y = 0, max_x = 0, max_y = 0;
  double width() const { return max_x - min_x; }
  double height() const { return max_y - min_y; }
};

class Graph {
 public:
  /// Nodes per shared adjacency block (power of two; one node's adjacency
  /// never straddles blocks, so Neighbors stays a contiguous span).
  static constexpr NodeId kAdjBlockNodes = 16;

  Graph() = default;

  size_t num_nodes() const { return num_nodes_; }
  /// Number of undirected edges.
  size_t num_edges() const {
    return offsets_ == nullptr ? 0 : (*offsets_)[num_nodes_] / 2;
  }

  /// Adjacency list of `v`, sorted by neighbor id.
  std::span<const Edge> Neighbors(NodeId v) const {
    const std::vector<uint32_t>& offsets = *offsets_;
    const std::vector<Edge>& block = *adj_blocks_[v / kAdjBlockNodes];
    const uint32_t base = offsets[v - v % kAdjBlockNodes];
    return {block.data() + (offsets[v] - base),
            block.data() + (offsets[v + 1] - base)};
  }

  size_t Degree(NodeId v) const {
    return (*offsets_)[v + 1] - (*offsets_)[v];
  }

  double x(NodeId v) const { return (*xs_)[v]; }
  double y(NodeId v) const { return (*ys_)[v]; }

  bool IsValidNode(NodeId v) const { return v < num_nodes_; }

  /// The half-edge (u, v) located by binary search over u's sorted
  /// adjacency list, or nullptr (also for out-of-range ids — safe on
  /// untrusted input). Allocation-free — this is the lookup the
  /// verification hot path (kPhantomEdge checks, client re-walks) should
  /// use; EdgeWeight/HasEdge layer Status semantics on top of it.
  const Edge* FindEdge(NodeId u, NodeId v) const;

  /// Weight of edge (u, v), or NotFound.
  Result<double> EdgeWeight(NodeId u, NodeId v) const;
  bool HasEdge(NodeId u, NodeId v) const { return FindEdge(u, v) != nullptr; }

  /// Changes the weight of an existing edge (both stored directions).
  /// Copy-on-write: adjacency blocks still aliased by another Graph copy
  /// are duplicated before the write (and their bytes accumulated into
  /// `copied_bytes` when non-null); uniquely owned blocks mutate in place.
  /// A missing edge or bad weight copies nothing.
  Status SetEdgeWeight(NodeId u, NodeId v, double new_weight,
                       size_t* copied_bytes = nullptr);

  /// Splices the undirected edge (u, v) into both adjacency lists.
  /// Copy-on-write like SetEdgeWeight on the two touched blocks, plus a
  /// fresh private offsets vector (the splice shifts every offset after
  /// the endpoint). Fails — mutating nothing — on invalid ids, self
  /// loops, bad weights and edges that already exist.
  Status AddEdge(NodeId u, NodeId v, double weight,
                 size_t* copied_bytes = nullptr);

  /// Removes the undirected edge (u, v) from both adjacency lists; the
  /// copy-on-write mirror image of AddEdge. NotFound (mutating nothing)
  /// when the edge does not exist.
  Status RemoveEdge(NodeId u, NodeId v, size_t* copied_bytes = nullptr);

  /// Appends a new isolated node at (x, y) and returns its id — always
  /// num_nodes() before the call (ids stay dense). Grows the coordinate
  /// and offset spines copy-on-write and opens a fresh adjacency block
  /// when the last one is full.
  Result<NodeId> AddVertex(double x, double y, size_t* copied_bytes = nullptr);

  /// Applies one update op (dispatch over StructuralOpKind).
  Status ApplyStructural(const StructuralUpdate& op,
                         size_t* copied_bytes = nullptr);

  BoundingBox GetBoundingBox() const;

  /// Euclidean distance between the coordinates of u and v.
  double EuclideanDistance(NodeId u, NodeId v) const;

  /// Payload bytes a full structural clone would duplicate (CSR offsets,
  /// coordinates, every adjacency block, the block spine) — the baseline
  /// the rotation_clone_bytes metric is compared against.
  size_t MemoryFootprintBytes() const;

  /// Adjacency blocks in the spine (structural-sharing accounting).
  size_t num_adj_blocks() const { return adj_blocks_.size(); }
  /// Blocks pointer-identical to `other`'s at the same position — how much
  /// adjacency two graph versions share.
  size_t SharedAdjBlocksWith(const Graph& other) const;

 private:
  friend class GraphBuilder;

  /// The writable block holding `v`'s adjacency, copy-on-write.
  std::vector<Edge>& MutableAdjBlock(NodeId v, size_t* copied_bytes);

  size_t num_nodes_ = 0;
  // Immutable after Build; shared by every copy of this graph.
  std::shared_ptr<const std::vector<uint32_t>> offsets_;  // size V + 1
  std::shared_ptr<const std::vector<double>> xs_;
  std::shared_ptr<const std::vector<double>> ys_;
  // Both directions of every edge, chunked by node block; blocks are
  // immutable while shared (SetEdgeWeight copy-on-writes them).
  std::vector<std::shared_ptr<std::vector<Edge>>> adj_blocks_;
};

/// Incremental constructor for Graph; validates ids, weights and duplicate
/// edges at Build() time.
class GraphBuilder {
 public:
  /// Adds a node and returns its id (ids are dense, starting at 0).
  NodeId AddNode(double x, double y);

  /// Queues an undirected edge. Fails fast on invalid ids, self loops and
  /// negative or non-finite weights.
  Status AddEdge(NodeId u, NodeId v, double weight);

  size_t num_nodes() const { return xs_.size(); }
  size_t num_edges() const { return edges_.size(); }

  /// Finalizes the CSR graph. Fails on duplicate edges.
  Result<Graph> Build();

 private:
  struct PendingEdge {
    NodeId u, v;
    double weight;
  };
  std::vector<double> xs_, ys_;
  std::vector<PendingEdge> edges_;
};

}  // namespace spauth

#endif  // SPAUTH_GRAPH_GRAPH_H_

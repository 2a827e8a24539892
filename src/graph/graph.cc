#include "graph/graph.h"

#include <algorithm>
#include <cmath>

#include "util/cow.h"

namespace spauth {

const Edge* Graph::FindEdge(NodeId u, NodeId v) const {
  // Callers feed this node ids straight from untrusted proof bundles, so
  // out-of-range ids must answer "no such edge", never index the CSR.
  if (!IsValidNode(u) || !IsValidNode(v)) {
    return nullptr;
  }
  // Adjacency lists are sorted by neighbor id; binary search.
  auto neighbors = Neighbors(u);
  auto it = std::lower_bound(
      neighbors.begin(), neighbors.end(), v,
      [](const Edge& e, NodeId id) { return e.to < id; });
  if (it == neighbors.end() || it->to != v) {
    return nullptr;
  }
  return &*it;
}

Result<double> Graph::EdgeWeight(NodeId u, NodeId v) const {
  if (!IsValidNode(u) || !IsValidNode(v)) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  const Edge* edge = FindEdge(u, v);
  if (edge == nullptr) {
    return Status::NotFound("no such edge");
  }
  return edge->weight;
}

std::vector<Edge>& Graph::MutableAdjBlock(NodeId v, size_t* copied_bytes) {
  return EnsureUniqueChunk(
      adj_blocks_[v / kAdjBlockNodes], copied_bytes,
      [](const std::vector<Edge>& b) { return b.size() * sizeof(Edge); });
}

Status Graph::SetEdgeWeight(NodeId u, NodeId v, double new_weight,
                            size_t* copied_bytes) {
  if (!std::isfinite(new_weight) || new_weight < 0) {
    return Status::InvalidArgument("edge weight must be finite and >= 0");
  }
  if (!IsValidNode(u) || !IsValidNode(v)) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  // Locate both halves before mutating anything, so a missing direction
  // never leaves the other one changed (and never forces a block copy).
  auto locate = [&](NodeId from, NodeId to) -> ptrdiff_t {
    const std::span<const Edge> neighbors = Neighbors(from);
    auto it = std::lower_bound(
        neighbors.begin(), neighbors.end(), to,
        [](const Edge& e, NodeId id) { return e.to < id; });
    if (it == neighbors.end() || it->to != to) {
      return -1;
    }
    // Index within from's block vector.
    const uint32_t base = (*offsets_)[from - from % kAdjBlockNodes];
    return (it - neighbors.begin()) +
           static_cast<ptrdiff_t>((*offsets_)[from] - base);
  };
  const ptrdiff_t uv = locate(u, v);
  const ptrdiff_t vu = locate(v, u);
  if (uv < 0 || vu < 0) {
    return Status::NotFound("no such edge");
  }
  MutableAdjBlock(u, copied_bytes)[static_cast<size_t>(uv)].weight =
      new_weight;
  MutableAdjBlock(v, copied_bytes)[static_cast<size_t>(vu)].weight =
      new_weight;
  return Status::Ok();
}

Status Graph::AddEdge(NodeId u, NodeId v, double weight,
                      size_t* copied_bytes) {
  if (!std::isfinite(weight) || weight < 0) {
    return Status::InvalidArgument("edge weight must be finite and >= 0");
  }
  if (!IsValidNode(u) || !IsValidNode(v)) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (u == v) {
    return Status::InvalidArgument("self loops are not allowed");
  }
  if (FindEdge(u, v) != nullptr || FindEdge(v, u) != nullptr) {
    return Status::InvalidArgument("duplicate edge");
  }
  // The splice shifts every offset after the endpoint, so the offset spine
  // always gets a private copy; the blocks of untouched nodes keep reading
  // correctly because their in-block positions are offset differences.
  auto offsets = std::make_shared<std::vector<uint32_t>>(*offsets_);
  if (copied_bytes != nullptr) {
    *copied_bytes += offsets->size() * sizeof(uint32_t);
  }
  auto insert_half = [&](NodeId from, NodeId to) {
    const uint32_t base = (*offsets)[from - from % kAdjBlockNodes];
    std::vector<Edge>& block = MutableAdjBlock(from, copied_bytes);
    const auto list_begin = block.begin() + ((*offsets)[from] - base);
    const auto list_end = block.begin() + ((*offsets)[from + 1] - base);
    const auto it = std::lower_bound(
        list_begin, list_end, to,
        [](const Edge& e, NodeId id) { return e.to < id; });
    block.insert(it, Edge{to, weight});
    for (size_t i = from + 1; i < offsets->size(); ++i) {
      ++(*offsets)[i];
    }
  };
  // Sequential halves over one consistent (offsets, blocks) state: the
  // second splice computes its positions against the already-updated
  // offsets, which is exactly what its updated block contains.
  insert_half(u, v);
  insert_half(v, u);
  offsets_ = std::move(offsets);
  return Status::Ok();
}

Status Graph::RemoveEdge(NodeId u, NodeId v, size_t* copied_bytes) {
  if (!IsValidNode(u) || !IsValidNode(v)) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  // Locate both halves before mutating anything (SetEdgeWeight's
  // discipline): a missing direction never leaves the other one spliced.
  if (FindEdge(u, v) == nullptr || FindEdge(v, u) == nullptr) {
    return Status::NotFound("no such edge");
  }
  auto offsets = std::make_shared<std::vector<uint32_t>>(*offsets_);
  if (copied_bytes != nullptr) {
    *copied_bytes += offsets->size() * sizeof(uint32_t);
  }
  auto erase_half = [&](NodeId from, NodeId to) {
    const uint32_t base = (*offsets)[from - from % kAdjBlockNodes];
    std::vector<Edge>& block = MutableAdjBlock(from, copied_bytes);
    const auto list_begin = block.begin() + ((*offsets)[from] - base);
    const auto list_end = block.begin() + ((*offsets)[from + 1] - base);
    const auto it = std::lower_bound(
        list_begin, list_end, to,
        [](const Edge& e, NodeId id) { return e.to < id; });
    block.erase(it);
    for (size_t i = from + 1; i < offsets->size(); ++i) {
      --(*offsets)[i];
    }
  };
  erase_half(u, v);
  erase_half(v, u);
  offsets_ = std::move(offsets);
  return Status::Ok();
}

Result<NodeId> Graph::AddVertex(double x, double y, size_t* copied_bytes) {
  if (!std::isfinite(x) || !std::isfinite(y)) {
    return Status::InvalidArgument("vertex coordinates must be finite");
  }
  if (num_nodes_ >= kInvalidNode) {
    return Status::InvalidArgument("node id space exhausted");
  }
  const NodeId id = static_cast<NodeId>(num_nodes_);
  auto offsets = offsets_ != nullptr
                     ? std::make_shared<std::vector<uint32_t>>(*offsets_)
                     : std::make_shared<std::vector<uint32_t>>(1, 0u);
  auto xs = xs_ != nullptr ? std::make_shared<std::vector<double>>(*xs_)
                           : std::make_shared<std::vector<double>>();
  auto ys = ys_ != nullptr ? std::make_shared<std::vector<double>>(*ys_)
                           : std::make_shared<std::vector<double>>();
  if (copied_bytes != nullptr) {
    *copied_bytes += offsets->size() * sizeof(uint32_t) +
                     (xs->size() + ys->size()) * sizeof(double);
  }
  offsets->push_back(offsets->back());  // the new node has no edges yet
  xs->push_back(x);
  ys->push_back(y);
  if (id % kAdjBlockNodes == 0) {
    adj_blocks_.push_back(std::make_shared<std::vector<Edge>>());
  }
  offsets_ = std::move(offsets);
  xs_ = std::move(xs);
  ys_ = std::move(ys);
  ++num_nodes_;
  return id;
}

Status Graph::ApplyStructural(const StructuralUpdate& op,
                              size_t* copied_bytes) {
  switch (op.kind) {
    case StructuralOpKind::kSetWeight:
      return SetEdgeWeight(op.u, op.v, op.weight, copied_bytes);
    case StructuralOpKind::kAddEdge:
      return AddEdge(op.u, op.v, op.weight, copied_bytes);
    case StructuralOpKind::kRemoveEdge:
      return RemoveEdge(op.u, op.v, copied_bytes);
    case StructuralOpKind::kAddVertex:
      return AddVertex(op.x, op.y, copied_bytes).status();
  }
  return Status::InvalidArgument("unknown structural op kind");
}

size_t Graph::MemoryFootprintBytes() const {
  if (offsets_ == nullptr) {
    return 0;
  }
  size_t bytes = offsets_->size() * sizeof(uint32_t) +
                 xs_->size() * sizeof(double) + ys_->size() * sizeof(double) +
                 adj_blocks_.size() * sizeof(adj_blocks_[0]);
  for (const auto& block : adj_blocks_) {
    bytes += block->size() * sizeof(Edge);
  }
  return bytes;
}

size_t Graph::SharedAdjBlocksWith(const Graph& other) const {
  return SharedSpinePositions<std::vector<Edge>>(adj_blocks_,
                                                 other.adj_blocks_);
}

BoundingBox Graph::GetBoundingBox() const {
  BoundingBox box;
  if (num_nodes_ == 0) {
    return box;
  }
  const std::vector<double>& xs = *xs_;
  const std::vector<double>& ys = *ys_;
  box.min_x = box.max_x = xs[0];
  box.min_y = box.max_y = ys[0];
  for (size_t i = 1; i < xs.size(); ++i) {
    box.min_x = std::min(box.min_x, xs[i]);
    box.max_x = std::max(box.max_x, xs[i]);
    box.min_y = std::min(box.min_y, ys[i]);
    box.max_y = std::max(box.max_y, ys[i]);
  }
  return box;
}

double Graph::EuclideanDistance(NodeId u, NodeId v) const {
  const double dx = (*xs_)[u] - (*xs_)[v];
  const double dy = (*ys_)[u] - (*ys_)[v];
  return std::sqrt(dx * dx + dy * dy);
}

NodeId GraphBuilder::AddNode(double x, double y) {
  xs_.push_back(x);
  ys_.push_back(y);
  return static_cast<NodeId>(xs_.size() - 1);
}

Status GraphBuilder::AddEdge(NodeId u, NodeId v, double weight) {
  if (u >= xs_.size() || v >= xs_.size()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (u == v) {
    return Status::InvalidArgument("self loops are not allowed");
  }
  if (!std::isfinite(weight) || weight < 0) {
    return Status::InvalidArgument("edge weight must be finite and >= 0");
  }
  edges_.push_back({u, v, weight});
  return Status::Ok();
}

Result<Graph> GraphBuilder::Build() {
  Graph g;
  const size_t n = xs_.size();
  g.num_nodes_ = n;
  g.xs_ = std::make_shared<const std::vector<double>>(std::move(xs_));
  g.ys_ = std::make_shared<const std::vector<double>>(std::move(ys_));

  // Expand to directed half-edges and sort (source, target).
  struct Half {
    NodeId from, to;
    double weight;
  };
  std::vector<Half> halves;
  halves.reserve(edges_.size() * 2);
  for (const PendingEdge& e : edges_) {
    halves.push_back({e.u, e.v, e.weight});
    halves.push_back({e.v, e.u, e.weight});
  }
  std::sort(halves.begin(), halves.end(), [](const Half& a, const Half& b) {
    return a.from != b.from ? a.from < b.from : a.to < b.to;
  });
  for (size_t i = 1; i < halves.size(); ++i) {
    if (halves[i].from == halves[i - 1].from &&
        halves[i].to == halves[i - 1].to) {
      return Status::InvalidArgument("duplicate edge");
    }
  }

  auto offsets = std::make_shared<std::vector<uint32_t>>(n + 1, 0u);
  for (const Half& h : halves) {
    ++(*offsets)[h.from + 1];
  }
  for (size_t i = 0; i < n; ++i) {
    (*offsets)[i + 1] += (*offsets)[i];
  }

  // Chunk the half-edges into per-node-block vectors (the shared CoW grain
  // of SetEdgeWeight). `halves` is sorted by source node, so each block is
  // a contiguous slice.
  const size_t num_blocks =
      (n + Graph::kAdjBlockNodes - 1) / Graph::kAdjBlockNodes;
  g.adj_blocks_.reserve(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t first_node = b * Graph::kAdjBlockNodes;
    const size_t last_node = std::min(n, first_node + Graph::kAdjBlockNodes);
    auto block = std::make_shared<std::vector<Edge>>();
    block->reserve((*offsets)[last_node] - (*offsets)[first_node]);
    for (size_t i = (*offsets)[first_node]; i < (*offsets)[last_node]; ++i) {
      block->push_back({halves[i].to, halves[i].weight});
    }
    g.adj_blocks_.push_back(std::move(block));
  }
  g.offsets_ = std::move(offsets);
  return g;
}

}  // namespace spauth

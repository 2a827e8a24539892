// Direct unit tests for the client-side searches over authenticated tuples
// (the code that actually decides accept/reject in DIJ/LDM/HYP).
#include "core/client_search.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "core/network_ads.h"
#include "graph/dijkstra.h"
#include "testutil.h"

namespace spauth {
namespace {

// Indexes base tuples over all nodes of `g` (no extensions) in a TupleLane
// bounded by the graph's node count, the way a verifier indexes a decoded
// proof. Remove() re-indexes without the dropped tuple (a tuple-drop
// attack). Tests may edit `storage` in place: the lane holds pointers.
struct TupleHolder {
  std::vector<ExtendedTuple> storage;
  std::vector<bool> removed;
  TupleLane lane;
  SearchWorkspace ws;

  explicit TupleHolder(const Graph& g)
      : storage(BuildBaseTuples(g)), removed(storage.size(), false) {
    Index();
  }
  void Remove(NodeId v) {
    removed[v] = true;
    Index();
  }
  void Index() {
    lane.Prepare(storage.size());
    for (const ExtendedTuple& t : storage) {
      if (!removed[t.id]) {
        EXPECT_EQ(lane.Insert(&t), TupleLane::InsertResult::kOk);
      }
    }
  }

  SubgraphSearchOutcome Dijkstra(NodeId s, NodeId t, double claim) {
    return DijkstraOverTuples(lane, s, t, claim, ws);
  }
  SubgraphSearchOutcome AStar(NodeId s, NodeId t, double claim,
                              double lambda) {
    return AStarOverTuples(lane, s, t, claim, lambda, ws);
  }
  // In-cell distances of every reached node.
  std::unordered_map<NodeId, double> InCell(NodeId source, uint32_t cell) {
    std::vector<NodeId> reached;
    InCellDijkstraOverTuples(lane, source, cell, &ws.forward, &ws.heap,
                             &reached);
    std::unordered_map<NodeId, double> dist;
    for (NodeId v : reached) {
      dist[v] = ws.forward.Dist(v);
    }
    return dist;
  }
  VerifyOutcome CheckPath(const Query& q, const Path& path, double claim) {
    std::vector<NodeId> scratch;
    return CheckPathAgainstTuples(lane, q, path, claim, &scratch);
  }
};

TEST(DijkstraOverTuplesTest, MatchesGraphDijkstra) {
  Graph g = testing::MakeFigure1Graph();
  TupleHolder tuples(g);
  auto truth = DijkstraShortestPath(g, 0, 3);
  SubgraphSearchOutcome out =
      tuples.Dijkstra(0, 3, truth.distance);
  ASSERT_EQ(out.code, SubgraphSearchOutcome::Code::kOk);
  EXPECT_DOUBLE_EQ(out.distance, truth.distance);
}

TEST(DijkstraOverTuplesTest, DetectsMissingInteriorTuple) {
  Graph g = testing::MakeFigure1Graph();
  TupleHolder tuples(g);
  // v3 (id 2) lies on the only shortest path v1->v4 at distance 2 < 8.
  tuples.Remove(2);
  SubgraphSearchOutcome out = tuples.Dijkstra(0, 3, 8.0);
  EXPECT_EQ(out.code, SubgraphSearchOutcome::Code::kMissingTuple);
  EXPECT_EQ(out.node, 2u);
}

TEST(DijkstraOverTuplesTest, MissingSourceIsMissingTuple) {
  Graph g = testing::MakeFigure1Graph();
  TupleHolder tuples(g);
  tuples.Remove(0);
  SubgraphSearchOutcome out = tuples.Dijkstra(0, 3, 8.0);
  EXPECT_EQ(out.code, SubgraphSearchOutcome::Code::kMissingTuple);
  EXPECT_EQ(out.node, 0u);
}

TEST(DijkstraOverTuplesTest, MissingTupleBeyondClaimIsTolerated) {
  Graph g = testing::MakeFigure1Graph();
  TupleHolder tuples(g);
  // v2 (id 1) is at distance 1 from v1 but the claim is tiny: searching
  // v1 -> v2 with claim 1.0 never needs v4's tuple (distance 10).
  tuples.Remove(3);
  SubgraphSearchOutcome out = tuples.Dijkstra(0, 1, 1.0);
  ASSERT_EQ(out.code, SubgraphSearchOutcome::Code::kOk);
  EXPECT_DOUBLE_EQ(out.distance, 1.0);
}

TEST(DijkstraOverTuplesTest, UnreachableTargetReported) {
  GraphBuilder b;
  b.AddNode(0, 0);
  b.AddNode(1, 0);
  b.AddNode(2, 0);
  ASSERT_TRUE(b.AddEdge(0, 1, 1).ok());
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  TupleHolder tuples(g.value());
  SubgraphSearchOutcome out = tuples.Dijkstra(0, 2, 5.0);
  EXPECT_EQ(out.code, SubgraphSearchOutcome::Code::kTargetNotReached);
}

TEST(AStarOverTuplesTest, RejectsTuplesWithoutLandmarkData) {
  Graph g = testing::MakeFigure1Graph();
  TupleHolder tuples(g);  // base tuples: no landmark fields
  SubgraphSearchOutcome out =
      tuples.AStar(0, 3, 8.0, /*lambda=*/1.0);
  EXPECT_EQ(out.code, SubgraphSearchOutcome::Code::kBadTupleData);
}

TEST(AStarOverTuplesTest, ZeroVectorsBehaveLikeDijkstra) {
  // All-zero landmark codes give h = 0 everywhere: A* degenerates to
  // Dijkstra and must return the exact distance.
  Graph g = testing::MakeFigure1Graph();
  TupleHolder tuples(g);
  for (ExtendedTuple& t : tuples.storage) {
    t.has_landmark_data = true;
    t.is_representative = true;
    t.qcodes = {0, 0};
  }
  SubgraphSearchOutcome out =
      tuples.AStar(0, 3, 8.0, /*lambda=*/1.0);
  ASSERT_EQ(out.code, SubgraphSearchOutcome::Code::kOk);
  EXPECT_DOUBLE_EQ(out.distance, 8.0);
}

TEST(AStarOverTuplesTest, MissingRepresentativeDetected) {
  Graph g = testing::MakeFigure1Graph();
  TupleHolder tuples(g);
  for (ExtendedTuple& t : tuples.storage) {
    t.has_landmark_data = true;
    t.is_representative = true;
    t.qcodes = {0, 0};
  }
  // Make v3 (id 2) reference a representative that is not in the map.
  tuples.storage[2].is_representative = false;
  tuples.storage[2].qcodes.clear();
  tuples.storage[2].ref_node = 99;
  tuples.storage[2].ref_error = 0;
  SubgraphSearchOutcome out =
      tuples.AStar(0, 3, 8.0, /*lambda=*/1.0);
  EXPECT_EQ(out.code, SubgraphSearchOutcome::Code::kMissingTuple);
  EXPECT_EQ(out.node, 99u);
}

TEST(AStarOverTuplesTest, MismatchedVectorLengthsRejected) {
  Graph g = testing::MakeFigure1Graph();
  TupleHolder tuples(g);
  for (ExtendedTuple& t : tuples.storage) {
    t.has_landmark_data = true;
    t.is_representative = true;
    t.qcodes = {0, 0};
  }
  tuples.storage[4].qcodes = {0, 0, 0};  // wrong arity
  SubgraphSearchOutcome out =
      tuples.AStar(0, 3, 8.0, /*lambda=*/1.0);
  EXPECT_EQ(out.code, SubgraphSearchOutcome::Code::kBadTupleData);
}

TEST(InCellDijkstraTest, RespectsCellBoundaries) {
  // 4x4 grid split into left/right halves: in-cell distances must ignore
  // paths through the other cell.
  Graph g = testing::MakeGridGraph(4, 4);
  TupleHolder tuples(g);
  for (ExtendedTuple& t : tuples.storage) {
    t.has_cell_data = true;
    t.cell = (t.id % 4 < 2) ? 0 : 1;  // columns 0-1 cell 0, columns 2-3 cell 1
  }
  auto dist = tuples.InCell(0, 0);
  // Node 1 (same row, cell 0) reachable at 1.
  ASSERT_TRUE(dist.contains(1));
  EXPECT_DOUBLE_EQ(dist.at(1), 1.0);
  // Node 2 is in cell 1: not part of the in-cell result.
  EXPECT_FALSE(dist.contains(2));
  // Node 5 (1,1) in cell 0 at distance 2.
  ASSERT_TRUE(dist.contains(5));
  EXPECT_DOUBLE_EQ(dist.at(5), 2.0);
}

TEST(InCellDijkstraTest, SourceOutsideCellYieldsEmpty) {
  Graph g = testing::MakeGridGraph(3, 3);
  TupleHolder tuples(g);
  for (ExtendedTuple& t : tuples.storage) {
    t.has_cell_data = true;
    t.cell = 0;
  }
  EXPECT_TRUE(tuples.InCell(4, 7).empty());
}

TEST(CheckPathAgainstTuplesTest, AllRejectionClasses) {
  Graph g = testing::MakeFigure1Graph();
  TupleHolder tuples(g);
  Query q{0, 3};
  // Happy path.
  EXPECT_TRUE(
      tuples.CheckPath(q, Path{{0, 2, 4, 5, 3}}, 8.0)
          .accepted);
  // Wrong endpoints.
  EXPECT_EQ(
      tuples.CheckPath(q, Path{{2, 4, 5, 3}}, 6.0)
          .failure,
      VerifyFailure::kInvalidPath);
  // Repeated node.
  EXPECT_EQ(tuples.CheckPath(q,
                                   Path{{0, 2, 0, 2, 4, 5, 3}}, 12.0)
                .failure,
            VerifyFailure::kInvalidPath);
  // Phantom edge.
  EXPECT_EQ(tuples.CheckPath(q, Path{{0, 3}}, 8.0)
                .failure,
            VerifyFailure::kInvalidPath);
  // Wrong total.
  EXPECT_EQ(
      tuples.CheckPath(q, Path{{0, 2, 4, 5, 3}}, 9.0)
          .failure,
      VerifyFailure::kDistanceMismatch);
  // Missing tuple on the path.
  tuples.Remove(4);
  EXPECT_EQ(
      tuples.CheckPath(q, Path{{0, 2, 4, 5, 3}}, 8.0)
          .failure,
      VerifyFailure::kInvalidPath);
}

}  // namespace
}  // namespace spauth

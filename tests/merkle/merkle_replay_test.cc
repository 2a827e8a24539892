// The level-order ReconstructMerkleRoot against the root-down DFS replay it
// replaced, kept here as the oracle: over random subset proofs at every
// fanout from 2 to 32, both hash algorithms and a battery of malformed
// proofs, both must agree on the root or on the exact rejection message.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "merkle/merkle_tree.h"
#include "util/rng.h"

namespace spauth {
namespace {

using Leaves = std::vector<std::pair<uint32_t, Digest>>;

// The pre-level-order verifier: an explicit-stack replay of the prover's
// root-down, left-to-right DFS, hashing one internal node per combine frame.
Result<Digest> DfsReconstructRoot(const MerkleSubsetProof& proof,
                                  const Leaves& target_leaves) {
  if (proof.num_leaves == 0) {
    return Status::Malformed("empty merkle proof");
  }
  if (target_leaves.empty()) {
    return Status::Malformed("no target leaves supplied");
  }
  for (size_t i = 0; i < target_leaves.size(); ++i) {
    if (target_leaves[i].first >= proof.num_leaves) {
      return Status::Malformed("target leaf index out of range");
    }
    if (target_leaves[i].second.size() != DigestSize(proof.alg)) {
      return Status::Malformed("target leaf digest has wrong size");
    }
    if (i > 0 && target_leaves[i].first <= target_leaves[i - 1].first) {
      return Status::Malformed("target leaves not strictly ascending");
    }
  }
  std::vector<size_t> sizes{proof.num_leaves};
  while (sizes.back() > 1) {
    sizes.push_back((sizes.back() + proof.fanout - 1) / proof.fanout);
  }
  auto leaves_per_node = [&](size_t level) {
    uint64_t span = 1;
    for (size_t i = 0; i < level && span <= (uint64_t{1} << 40); ++i) {
      span *= proof.fanout;
    }
    return span;
  };
  auto first_at_or_after = [&](uint64_t lo) {
    return std::lower_bound(
        target_leaves.begin(), target_leaves.end(), lo,
        [](const auto& leaf, uint64_t value) { return leaf.first < value; });
  };
  struct Frame {
    uint32_t level;
    uint32_t index;
    uint32_t pending_children;  // 0: visit phase; >0: combine phase
  };
  std::vector<Frame> frames{{static_cast<uint32_t>(sizes.size() - 1), 0, 0}};
  std::vector<Digest> values;
  size_t cursor = 0;
  while (!frames.empty()) {
    const Frame f = frames.back();
    frames.pop_back();
    if (f.pending_children > 0) {
      const size_t first = values.size() - f.pending_children;
      const Digest parent = HashInternalNode(
          proof.alg,
          std::span<const Digest>(values.data() + first, f.pending_children));
      values.resize(first);
      values.push_back(parent);
      continue;
    }
    const uint64_t lo = f.index * leaves_per_node(f.level);
    const uint64_t hi =
        std::min<uint64_t>(lo + leaves_per_node(f.level), proof.num_leaves);
    const auto it = first_at_or_after(lo);
    if (it == target_leaves.end() || it->first >= hi) {
      if (cursor >= proof.digests.size()) {
        return Status::Malformed("merkle proof digest stream underflow");
      }
      values.push_back(proof.digests[cursor++]);
      continue;
    }
    if (f.level == 0) {
      values.push_back(it->second);
      continue;
    }
    const size_t first = static_cast<size_t>(f.index) * proof.fanout;
    const size_t last = std::min(sizes[f.level - 1], first + proof.fanout);
    frames.push_back({f.level, f.index, static_cast<uint32_t>(last - first)});
    for (size_t c = last; c-- > first;) {
      frames.push_back({f.level - 1, static_cast<uint32_t>(c), 0});
    }
  }
  if (cursor != proof.digests.size()) {
    return Status::Malformed("merkle proof has unused digests");
  }
  return values.front();
}

std::vector<Digest> RandomLeaves(Rng* rng, size_t count, HashAlgorithm alg) {
  std::vector<Digest> leaves(count);
  for (Digest& leaf : leaves) {
    uint8_t payload[24];
    rng->FillBytes(payload, sizeof(payload));
    leaf = HashLeafPayload(alg, payload);
  }
  return leaves;
}

// A random strictly ascending subset, from a single leaf up to all of them.
std::vector<uint32_t> RandomSubset(Rng* rng, uint32_t num_leaves) {
  const uint64_t density = 1 + rng->NextBounded(100);  // percent
  std::vector<uint32_t> subset;
  for (uint32_t i = 0; i < num_leaves; ++i) {
    if (rng->NextBounded(100) < density) {
      subset.push_back(i);
    }
  }
  if (subset.empty()) {
    subset.push_back(static_cast<uint32_t>(rng->NextBounded(num_leaves)));
  }
  return subset;
}

// Both replays agree: the same root, or the same rejection message (which
// is added to `rejections`, when given).
void ExpectSameOutcome(const MerkleSubsetProof& proof, const Leaves& targets,
                       MerkleVerifyScratch& scratch, const std::string& what,
                       std::set<std::string>* rejections = nullptr) {
  const Result<Digest> dfs = DfsReconstructRoot(proof, targets);
  if (!dfs.ok() && rejections != nullptr) {
    rejections->insert(dfs.status().message());
  }
  const Result<Digest> level = ReconstructMerkleRoot(proof, targets, scratch);
  ASSERT_EQ(level.ok(), dfs.ok())
      << what << ": " << (dfs.ok() ? level.status() : dfs.status()).ToString();
  if (dfs.ok()) {
    EXPECT_EQ(level.value(), dfs.value()) << what;
  } else {
    EXPECT_EQ(level.status().message(), dfs.status().message()) << what;
  }
}

class MerkleReplayDiffTest : public ::testing::TestWithParam<HashAlgorithm> {};

TEST_P(MerkleReplayDiffTest, RandomSubsetProofsEveryFanout) {
  const HashAlgorithm alg = GetParam();
  Rng rng(17);
  MerkleVerifyScratch scratch;  // reused across shapes, like a workspace
  for (uint32_t fanout = 2; fanout <= 32; ++fanout) {
    for (int trial = 0; trial < 12; ++trial) {
      const uint32_t n = 1 + static_cast<uint32_t>(rng.NextBounded(700));
      const std::vector<Digest> leaves = RandomLeaves(&rng, n, alg);
      const MerkleTree tree = MerkleTree::Build(leaves, fanout, alg).value();
      const std::vector<uint32_t> subset = RandomSubset(&rng, n);
      const MerkleSubsetProof proof = tree.GenerateProof(subset).value();
      Leaves targets;
      for (uint32_t i : subset) {
        targets.push_back({i, leaves[i]});
      }
      const std::string what = "fanout " + std::to_string(fanout) +
                               " leaves " + std::to_string(n);
      ExpectSameOutcome(proof, targets, scratch, what);
      const Result<Digest> root = ReconstructMerkleRoot(proof, targets, scratch);
      ASSERT_TRUE(root.ok()) << what;
      EXPECT_EQ(root.value(), tree.root()) << what;
    }
  }
}

TEST_P(MerkleReplayDiffTest, MalformedProofsRejectWithTheSameMessage) {
  const HashAlgorithm alg = GetParam();
  Rng rng(29);
  MerkleVerifyScratch scratch;
  std::set<std::string> rejections;
  for (int trial = 0; trial < 300; ++trial) {
    const uint32_t fanout = 2 + static_cast<uint32_t>(rng.NextBounded(31));
    const uint32_t n = 2 + static_cast<uint32_t>(rng.NextBounded(300));
    const std::vector<Digest> leaves = RandomLeaves(&rng, n, alg);
    const MerkleTree tree = MerkleTree::Build(leaves, fanout, alg).value();
    const std::vector<uint32_t> subset = RandomSubset(&rng, n);
    const MerkleSubsetProof honest = tree.GenerateProof(subset).value();
    Leaves honest_targets;
    for (uint32_t i : subset) {
      honest_targets.push_back({i, leaves[i]});
    }
    MerkleSubsetProof proof = honest;
    Leaves targets = honest_targets;
    std::string what;
    switch (trial % 10) {
      case 0:
        what = "empty proof";
        proof.num_leaves = 0;
        break;
      case 1:
        what = "no targets";
        targets.clear();
        break;
      case 2:
        what = "index out of range";
        targets.back().first = n + static_cast<uint32_t>(rng.NextBounded(5));
        break;
      case 3:
        what = "wrong digest size";
        targets[rng.NextBounded(targets.size())].second.set_size(
            DigestSize(alg) - 1);
        break;
      case 4:
        what = "unsorted or duplicate targets";
        if (targets.size() == 1) {
          targets.push_back(targets.front());
        } else {
          std::swap(targets.front(), targets.back());
        }
        break;
      case 5:
        what = "stream underflow";
        if (proof.digests.empty()) {
          targets.pop_back();  // the dropped target's slot is now missing
          if (targets.empty()) {
            targets.push_back({subset.front() == 0 ? 1u : 0u, leaves[0]});
          }
        } else {
          proof.digests.pop_back();
        }
        break;
      case 6:
        what = "unused digests";
        proof.digests.push_back(leaves[rng.NextBounded(n)]);
        break;
      case 7:
        what = "shape changed (num_leaves)";
        proof.num_leaves =
            n / 2 + 1 + static_cast<uint32_t>(rng.NextBounded(2 * n));
        break;
      case 8:
        what = "shape changed (fanout)";
        proof.fanout = 2 + static_cast<uint32_t>(rng.NextBounded(31));
        break;
      default:
        what = "target added or removed";
        if (targets.size() > 1 && rng.NextBounded(2) == 0) {
          targets.erase(targets.begin() +
                        static_cast<ptrdiff_t>(rng.NextBounded(targets.size())));
        } else {
          const uint32_t extra = static_cast<uint32_t>(rng.NextBounded(n));
          if (std::none_of(targets.begin(), targets.end(),
                           [&](const auto& t) { return t.first == extra; })) {
            targets.push_back({extra, leaves[extra]});
            std::sort(targets.begin(), targets.end(),
                      [](const auto& a, const auto& b) {
                        return a.first < b.first;
                      });
          }
        }
        break;
    }
    ExpectSameOutcome(proof, targets, scratch,
                      what + " (trial " + std::to_string(trial) + ")",
                      &rejections);
    // The scratch is reusable after a rejection: the honest proof still
    // replays to the root.
    const Result<Digest> root =
        ReconstructMerkleRoot(honest, honest_targets, scratch);
    ASSERT_TRUE(root.ok());
    EXPECT_EQ(root.value(), tree.root());
  }
  // Every rejection the verifier has was reached at least once.
  EXPECT_EQ(rejections,
            (std::set<std::string>{"empty merkle proof",
                                   "no target leaves supplied",
                                   "target leaf index out of range",
                                   "target leaf digest has wrong size",
                                   "target leaves not strictly ascending",
                                   "merkle proof digest stream underflow",
                                   "merkle proof has unused digests"}));
}

INSTANTIATE_TEST_SUITE_P(BothAlgorithms, MerkleReplayDiffTest,
                         ::testing::Values(HashAlgorithm::kSha1,
                                           HashAlgorithm::kSha256),
                         [](const auto& info) {
                           return std::string(HashAlgorithmName(info.param));
                         });

}  // namespace
}  // namespace spauth

#include "core/snapshot_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/wal.h"
#include "util/crc32.h"
#include "util/failpoint.h"

namespace spauth {

namespace {

constexpr uint32_t kSnapshotMagic = 0x4E535053;  // "SPSN"
constexpr uint32_t kSnapshotFormat = 1;
constexpr std::string_view kSnapshotPrefix = "snapshot-";
constexpr std::string_view kSnapshotSuffix = ".spsnap";

Status WriteAll(int fd, const uint8_t* data, size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::Unavailable(std::string("snapshot write failed: ") +
                                 std::strerror(errno));
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return Status::Ok();
}

/// Rebuilds the CSR graph from verified tuples: every tuple embeds its
/// coordinates and full adjacency, and each undirected edge appears in
/// both endpoints' tuples, so adding it once (u < v) reconstructs the
/// exact graph the owner certified.
Result<Graph> RebuildGraph(const std::vector<ExtendedTuple>& tuples) {
  GraphBuilder builder;
  for (const ExtendedTuple& t : tuples) {
    builder.AddNode(t.x, t.y);
  }
  for (const ExtendedTuple& t : tuples) {
    for (const NeighborEntry& n : t.neighbors) {
      if (t.id < n.id) {
        Status s = builder.AddEdge(t.id, n.id, n.weight);
        if (!s.ok()) {
          return Status::Corruption("snapshot adjacency is not a graph: " +
                                    s.message());
        }
      }
    }
  }
  auto graph = builder.Build();
  if (!graph.ok()) {
    return Status::Corruption("snapshot adjacency is not a graph: " +
                              graph.status().message());
  }
  return graph;
}

}  // namespace

void EncodeSnapshotPayload(const DijAds& ads, ByteWriter* out) {
  ads.certificate.Serialize(out);
  const uint32_t num_nodes = static_cast<uint32_t>(ads.network.num_nodes());
  out->WriteU32(num_nodes);
  for (NodeId v = 0; v < num_nodes; ++v) {
    ads.network.tuple(v).Serialize(out);
  }
  // order[pos] = node at leaf pos, inverted from the node -> leaf map.
  std::vector<NodeId> order(num_nodes);
  for (NodeId v = 0; v < num_nodes; ++v) {
    order[ads.network.LeafOf(v)] = v;
  }
  for (NodeId v : order) {
    out->WriteU32(v);
  }
}

std::vector<uint8_t> EncodeSnapshotFile(const DijAds& ads) {
  ByteWriter payload;
  EncodeSnapshotPayload(ads, &payload);
  ByteWriter header;
  header.WriteU32(kSnapshotMagic);
  header.WriteU32(kSnapshotFormat);
  std::vector<uint8_t> file = header.TakeBytes();
  AppendFramedRecord(payload.view(), &file);
  return file;
}

Result<RecoveredState> DecodeAndVerifySnapshot(
    std::span<const uint8_t> file_bytes, const RsaPublicKey& owner_key) {
  ByteReader reader(file_bytes);
  uint32_t magic = 0;
  uint32_t format = 0;
  if (!reader.ReadU32(&magic).ok() || !reader.ReadU32(&format).ok() ||
      magic != kSnapshotMagic || format != kSnapshotFormat) {
    return Status::Corruption("snapshot header is not a spauth snapshot");
  }
  std::vector<uint8_t> payload;
  if (Status s = ReadFramedRecord(&reader, &payload); !s.ok()) {
    return Status::Corruption("snapshot frame damaged: " + s.message());
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after snapshot frame");
  }

  ByteReader body{std::span<const uint8_t>(payload)};
  Certificate cert;
  if (!Certificate::DeserializeInto(&body, &cert).ok()) {
    return Status::Corruption("snapshot certificate undecodable");
  }
  if (cert.params.method != MethodKind::kDij || cert.params.has_distance_tree) {
    return Status::Corruption("snapshot certifies a non-DIJ method");
  }
  uint32_t num_nodes = 0;
  if (!body.ReadU32(&num_nodes).ok()) {
    return Status::Corruption("snapshot node count undecodable");
  }
  if (cert.params.num_network_leaves != num_nodes) {
    return Status::DataLoss(
        "snapshot tuple count does not match the certified leaf count");
  }
  std::vector<ExtendedTuple> tuples(num_nodes);
  for (uint32_t v = 0; v < num_nodes; ++v) {
    if (!ExtendedTuple::DeserializeInto(&body, &tuples[v]).ok() ||
        tuples[v].id != v) {
      return Status::Corruption("snapshot tuple " + std::to_string(v) +
                                " undecodable");
    }
  }
  std::vector<NodeId> order(num_nodes);
  std::vector<bool> seen(num_nodes, false);
  for (uint32_t pos = 0; pos < num_nodes; ++pos) {
    if (!body.ReadU32(&order[pos]).ok() || order[pos] >= num_nodes ||
        seen[order[pos]]) {
      return Status::Corruption("snapshot leaf order is not a permutation");
    }
    seen[order[pos]] = true;
  }
  if (!body.AtEnd()) {
    return Status::Corruption("trailing bytes in snapshot payload");
  }

  // Verify-on-load: nothing above is *trusted* yet. The owner signature
  // authenticates the certificate, and the recomputed Merkle root ties the
  // loaded tuples to it — a stale-certificate swap or any tuple tamper
  // that survived the CRC dies here instead of getting served.
  if (!VerifyCertificate(owner_key, cert)) {
    return Status::DataLoss("snapshot certificate signature does not verify");
  }
  SPAUTH_ASSIGN_OR_RETURN(Graph graph, RebuildGraph(tuples));
  auto network = NetworkAds::Build(std::move(tuples), std::move(order),
                                   cert.params.fanout, cert.params.alg);
  if (!network.ok()) {
    return Status::Corruption("snapshot ADS rebuild failed: " +
                              network.status().message());
  }
  if (!(network.value().root() == cert.network_root)) {
    return Status::DataLoss(
        "snapshot Merkle root does not match its signed certificate");
  }
  RecoveredState state{std::make_shared<const Graph>(std::move(graph)),
                       DijAds{std::move(network).value(), cert},
                       cert.params.version};
  return state;
}

std::string SnapshotStore::PathFor(uint32_t version) const {
  char name[40];
  std::snprintf(name, sizeof(name), "snapshot-%010u.spsnap", version);
  return dir_ + "/" + name;
}

std::vector<uint32_t> SnapshotStore::ListVersions() const {
  std::vector<uint32_t> versions;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= kSnapshotPrefix.size() + kSnapshotSuffix.size() ||
        name.compare(0, kSnapshotPrefix.size(), kSnapshotPrefix) != 0 ||
        name.compare(name.size() - kSnapshotSuffix.size(),
                     kSnapshotSuffix.size(), kSnapshotSuffix) != 0) {
      continue;  // temp files and strangers
    }
    const std::string digits =
        name.substr(kSnapshotPrefix.size(),
                    name.size() - kSnapshotPrefix.size() -
                        kSnapshotSuffix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    versions.push_back(static_cast<uint32_t>(std::stoul(digits)));
  }
  std::sort(versions.rbegin(), versions.rend());
  return versions;
}

Status SnapshotStore::Write(const MethodEngine& engine) {
  if (engine.kind() != MethodKind::kDij) {
    return Status::FailedPrecondition(
        "durable snapshots are implemented for DIJ only");
  }
  ByteWriter payload;
  SPAUTH_RETURN_IF_ERROR(engine.SerializeDurableState(&payload));
  const uint32_t version = engine.certificate().params.version;

  ByteWriter header;
  header.WriteU32(kSnapshotMagic);
  header.WriteU32(kSnapshotFormat);
  std::vector<uint8_t> file = header.TakeBytes();
  AppendFramedRecord(payload.view(), &file);

  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  const std::string final_path = PathFor(version);
  const std::string temp_path = final_path + ".tmp";
  const int fd =
      ::open(temp_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::Unavailable(std::string("cannot open ") + temp_path +
                               ": " + std::strerror(errno));
  }
  if (SPAUTH_FAILPOINT_TRIGGERED("snapshot/write")) {
    // The crash before the rename: a torn temp file is all that survives.
    // Load never looks at temp files, so the store stays on the previous
    // snapshot — exactly the real-crash outcome.
    (void)WriteAll(fd, file.data(), file.size() / 2);
    ::close(fd);
    return Status::Unavailable("fail point fired: snapshot/write");
  }
  if (Status s = WriteAll(fd, file.data(), file.size()); !s.ok()) {
    ::close(fd);
    return s;
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::Unavailable(std::string("snapshot fsync failed: ") +
                               std::strerror(errno));
  }
  ::close(fd);
  if (std::rename(temp_path.c_str(), final_path.c_str()) != 0) {
    return Status::Unavailable(std::string("snapshot rename failed: ") +
                               std::strerror(errno));
  }
  // Make the rename itself durable (the directory entry).
  const int dir_fd = ::open(dir_.c_str(), O_RDONLY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return Status::Ok();
}

Status SnapshotStore::Checkpoint(const MethodEngine& engine, Wal* wal) {
  SPAUTH_RETURN_IF_ERROR(Write(engine));
  if (wal != nullptr) {
    // Only after the rename is durable: every logged record is now covered
    // by the snapshot, so an empty log recovers to the same state.
    SPAUTH_RETURN_IF_ERROR(wal->Reset());
  }
  return Status::Ok();
}

Result<GcReport> SnapshotStore::GarbageCollect(
    size_t keep_last_n, const RsaPublicKey& owner_key) const {
  if (keep_last_n == 0) {
    return Status::InvalidArgument("gc must keep at least 1 snapshot");
  }
  const std::vector<uint32_t> versions = ListVersions();  // newest first
  GcReport report;
  if (versions.empty()) {
    return report;
  }
  // Find the newest snapshot that passes full authenticated verification:
  // that file is the floor a concurrent LoadNewest can always fall back
  // to, so it must survive every sweep. Deleting anything while NO file
  // verifies would only destroy forensic evidence.
  bool found_verified = false;
  for (uint32_t version : versions) {
    std::ifstream in(PathFor(version), std::ios::binary);
    if (!in) {
      continue;
    }
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    if (DecodeAndVerifySnapshot(bytes, owner_key).ok()) {
      report.protected_version = version;
      found_verified = true;
      break;
    }
  }
  if (!found_verified) {
    report.kept = versions.size();
    return report;
  }
  for (size_t i = 0; i < versions.size(); ++i) {
    if (i < keep_last_n || versions[i] == report.protected_version) {
      ++report.kept;
      continue;
    }
    std::error_code ec;
    if (std::filesystem::remove(PathFor(versions[i]), ec) && !ec) {
      ++report.removed;
    } else {
      ++report.kept;  // already gone or undeletable: nothing lost either way
    }
  }
  return report;
}

Result<RecoveredState> SnapshotStore::LoadNewest(
    const RsaPublicKey& owner_key) const {
  const std::vector<uint32_t> versions = ListVersions();
  if (versions.empty()) {
    return Status::NotFound("no snapshots in " + dir_);
  }
  bool saw_damage = false;
  for (uint32_t version : versions) {
    if (SPAUTH_FAILPOINT_TRIGGERED_ARG("snapshot/load", version)) {
      saw_damage = true;  // modeled unreadable file: fall back to older
      continue;
    }
    std::ifstream in(PathFor(version), std::ios::binary);
    if (!in) {
      saw_damage = true;
      continue;
    }
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    auto recovered = DecodeAndVerifySnapshot(bytes, owner_key);
    if (recovered.ok()) {
      if (recovered.value().version != version) {
        // A validly signed snapshot under the wrong file name is a
        // rollback/rename, not rot — refuse rather than fall back.
        return Status::DataLoss(
            "snapshot file name version does not match its certificate");
      }
      return recovered;
    }
    if (recovered.status().code() == StatusCode::kDataLoss) {
      // Damage that survived the checksums (root/signature mismatch) is
      // exactly what must never be served — and never retried.
      return recovered.status();
    }
    saw_damage = true;  // CRC-level damage: try the next older snapshot
  }
  (void)saw_damage;
  return Status::DataLoss("every snapshot candidate in " + dir_ +
                          " is damaged");
}

Result<RecoveryReport> RecoverDijEngine(const SnapshotStore& store,
                                        const std::string& wal_path,
                                        const EngineOptions& options,
                                        const RsaKeyPair& keys) {
  if (options.method != MethodKind::kDij) {
    return Status::InvalidArgument("recovery is implemented for DIJ only");
  }
  SPAUTH_ASSIGN_OR_RETURN(RecoveredState state,
                          store.LoadNewest(keys.public_key()));
  RecoveryReport report;
  report.snapshot_version = state.version;
  SPAUTH_ASSIGN_OR_RETURN(
      report.engine,
      MakeDijEngineFromState(options, state.graph, std::move(state.ads),
                             keys.public_key()));

  SPAUTH_ASSIGN_OR_RETURN(WalReplay replay, Wal::Read(wal_path));
  report.wal_torn_tail = replay.torn_tail;
  for (const WalRecord& record : replay.records) {
    const uint32_t current = report.engine->certificate().params.version;
    if (record.base_version > current) {
      return Status::DataLoss(
          "wal gap: record applies on version " +
          std::to_string(record.base_version) + ", recovered state is at " +
          std::to_string(current));
    }
    if (record.base_version < current) {
      if (record.base_version + record.updates.size() > current) {
        return Status::DataLoss("wal record straddles the snapshot version");
      }
      ++report.wal_records_skipped;  // already absorbed by the snapshot
      continue;
    }
    auto applied = report.engine->ApplyUpdates(&keys, record.updates);
    if (!applied.ok()) {
      return Status::DataLoss("wal replay failed at version " +
                              std::to_string(current) + ": " +
                              applied.status().message());
    }
    ++report.wal_records_replayed;
  }
  report.recovered_version = report.engine->certificate().params.version;
  return report;
}

}  // namespace spauth

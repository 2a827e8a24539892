// Update write-ahead log — the durable half of the owner's rotation path.
//
// Every ApplyUpdates batch is appended here (one CRC-framed record,
// flushed to stable storage) BEFORE the rotation publishes, so a crash at
// any point of the rotation loses at most work the caller was never told
// succeeded:
//
//   crash before the append      the batch simply never happened;
//   crash mid-append (torn tail) replay detects the torn record and stops
//                                at the last whole one;
//   crash after append, before   the batch is durable although the crashed
//   the publish                  process never served it — replay re-drives
//                                it, and deterministic signing (RSA PKCS#1
//                                v1.5) reproduces the exact certificate the
//                                uncrashed rotation would have published.
//
// Records carry the base version they apply on top of, so replay after a
// snapshot skips the prefix the snapshot already absorbed and detects
// gaps (a WAL that starts beyond the snapshot's version is data loss, not
// a torn tail). Records are TYPED: the payload leads with a kind byte, and
// every op inside leads with its op kind, so a replayer that meets a
// record or op it cannot interpret refuses with kDataLoss instead of
// mis-parsing it — an unknown kind is never silently skipped and never
// mistaken for a torn tail (a tear breaks the CRC; a CRC-clean frame was
// written whole). The writer emits one record kind for every batch; the
// older re-weight-only kind still decodes so logs written before the
// pipelines merged replay unchanged. See src/util/crc32.h for the record
// framing and src/core/snapshot_store.h for the checkpoint side.
#ifndef SPAUTH_CORE_WAL_H_
#define SPAUTH_CORE_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/byte_buffer.h"
#include "util/status.h"

namespace spauth {

/// The record-type tag leading every WAL payload. Values are part of the
/// on-disk format — never renumber, only append.
enum class WalRecordKind : uint8_t {
  // Decode only: a re-weight batch, 16 bytes per op (u32 u, u32 v, f64 w),
  // replayed as kSetWeight ops.
  kEdgeWeights = 1,
  // A batch of update ops of any kind, 33 bytes per op (u8 kind, u32 u,
  // u32 v, f64 weight, f64 x, f64 y). The only kind the writer emits.
  kUpdates = 2,
};

/// One durable update batch: the certificate version it applies on top of
/// plus the ops, in application order (ops.size() is the version delta it
/// drives).
struct WalRecord {
  uint32_t base_version = 0;
  std::vector<StructuralUpdate> updates;

  void Serialize(ByteWriter* out) const;
  /// kDataLoss when the record leads with a kind this build cannot
  /// interpret (or an op kind it cannot); Malformed for byte-level decode
  /// failures inside a known kind.
  static Status DeserializeInto(ByteReader* in, WalRecord* out);
};

/// What a recovery read of the log found.
struct WalReplay {
  std::vector<WalRecord> records;  // the clean prefix, in append order
  /// True when a torn record at the END of the log stopped the scan.
  /// Records before the tear are in `records` either way; crash recovery
  /// accepts a torn tail (it is exactly what a crash mid-append leaves),
  /// scrubbing does not. A corrupt record with further bytes behind it is
  /// NOT a torn tail — Read fails kDataLoss instead (see Read).
  bool torn_tail = false;
  /// File prefix covered by the clean records (a repair truncates here).
  size_t valid_bytes = 0;
};

/// Append-only CRC-per-record log over one file. Not thread-safe: the
/// engine's rotation lock already serializes writers.
class Wal {
 public:
  /// Opens (creating if absent) the log at `path` for appending.
  static Result<Wal> Open(std::string path);

  Wal(Wal&& other) noexcept;
  Wal& operator=(Wal&& other) noexcept;
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;
  ~Wal();

  /// Appends one framed record and flushes it to stable storage before
  /// returning. Fail points: "wal/append" fires before any byte is
  /// written (a crash before the append — the record does not exist);
  /// "wal/fsync" fires after a *prefix* of the record reaches the file
  /// but before the flush barrier (the crash that tears the tail record —
  /// replay must stop at the previous record).
  Status Append(const WalRecord& record);

  /// Truncates the log to empty — called after a successful snapshot
  /// write makes every logged record redundant (see
  /// SnapshotStore::Checkpoint, which pairs the two). Fail point
  /// "wal/reset" fires before the truncate: the crash that leaves a full
  /// log next to a snapshot that already absorbed it.
  Status Reset();

  const std::string& path() const { return path_; }
  /// Records successfully appended through this handle.
  uint64_t appended_records() const { return appended_; }

  /// Reads the clean record prefix of the log at `path`. A missing file
  /// is an empty log (not an error). A torn record at the END of the log
  /// stops the scan (WalReplay::torn_tail) and everything before it is
  /// returned — that is the crash-mid-append shape. Two corruption shapes
  /// are NOT accepted and fail kDataLoss instead of silently dropping
  /// committed records:
  ///   - a corrupt record followed by further bytes (mid-log damage — a
  ///     crash tear can only live at the tail);
  ///   - a CRC-clean record whose payload cannot be interpreted (unknown
  ///     record kind, or bytes that do not decode — the frame was written
  ///     whole, so this is damage or a format the build does not know).
  /// Fail point "wal/fsync" does not apply here — reading has no
  /// durability seam.
  static Result<WalReplay> Read(const std::string& path);

 private:
  Wal(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_ = -1;
  uint64_t appended_ = 0;
};

}  // namespace spauth

#endif  // SPAUTH_CORE_WAL_H_

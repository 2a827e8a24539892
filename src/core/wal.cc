#include "core/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#include "util/crc32.h"
#include "util/failpoint.h"

namespace spauth {

namespace {

Status WriteAll(int fd, const uint8_t* data, size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::Unavailable(std::string("wal write failed: ") +
                                 std::strerror(errno));
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

void WalRecord::Serialize(ByteWriter* out) const {
  out->WriteU8(static_cast<uint8_t>(WalRecordKind::kUpdates));
  out->WriteU32(base_version);
  out->WriteU32(static_cast<uint32_t>(updates.size()));
  for (const StructuralUpdate& op : updates) {
    // Fixed layout regardless of op kind: replay must be byte-exact, and a
    // uniform 33-byte op keeps the count-vs-remaining check trivial.
    out->WriteU8(static_cast<uint8_t>(op.kind));
    out->WriteU32(op.u);
    out->WriteU32(op.v);
    out->WriteF64(op.weight);
    out->WriteF64(op.x);
    out->WriteF64(op.y);
  }
}

Status WalRecord::DeserializeInto(ByteReader* in, WalRecord* out) {
  uint8_t kind = 0;
  SPAUTH_RETURN_IF_ERROR(in->ReadU8(&kind));
  const bool legacy = kind == static_cast<uint8_t>(WalRecordKind::kEdgeWeights);
  if (!legacy && kind != static_cast<uint8_t>(WalRecordKind::kUpdates)) {
    // A kind this build cannot interpret: the record is whole (the CRC
    // passed) but replaying around it would silently lose an update batch.
    return Status::DataLoss("wal record kind unknown to this build");
  }
  SPAUTH_RETURN_IF_ERROR(in->ReadU32(&out->base_version));
  uint32_t count = 0;
  SPAUTH_RETURN_IF_ERROR(in->ReadU32(&count));
  if (static_cast<size_t>(count) * (legacy ? 16 : 33) > in->remaining()) {
    return Status::Malformed("wal record op count exceeds payload");
  }
  out->updates.clear();
  out->updates.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    StructuralUpdate op;
    op.kind = StructuralOpKind::kSetWeight;  // the legacy kind's only op
    if (!legacy) {
      uint8_t op_kind = 0;
      SPAUTH_RETURN_IF_ERROR(in->ReadU8(&op_kind));
      if (op_kind < static_cast<uint8_t>(StructuralOpKind::kAddEdge) ||
          op_kind > static_cast<uint8_t>(StructuralOpKind::kSetWeight)) {
        return Status::DataLoss("wal op kind unknown to this build");
      }
      op.kind = static_cast<StructuralOpKind>(op_kind);
    }
    SPAUTH_RETURN_IF_ERROR(in->ReadU32(&op.u));
    SPAUTH_RETURN_IF_ERROR(in->ReadU32(&op.v));
    SPAUTH_RETURN_IF_ERROR(in->ReadF64(&op.weight));
    if (!legacy) {
      SPAUTH_RETURN_IF_ERROR(in->ReadF64(&op.x));
      SPAUTH_RETURN_IF_ERROR(in->ReadF64(&op.y));
    }
    out->updates.push_back(op);
  }
  if (!in->AtEnd()) {
    return Status::Malformed("trailing bytes after wal record");
  }
  return Status::Ok();
}

Result<Wal> Wal::Open(std::string path) {
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) {
    return Status::Unavailable(std::string("cannot open wal ") + path + ": " +
                               std::strerror(errno));
  }
  return Wal(std::move(path), fd);
}

Wal::Wal(Wal&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(std::exchange(other.fd_, -1)),
      appended_(other.appended_) {}

Wal& Wal::operator=(Wal&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    path_ = std::move(other.path_);
    fd_ = std::exchange(other.fd_, -1);
    appended_ = other.appended_;
  }
  return *this;
}

Wal::~Wal() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status Wal::Append(const WalRecord& record) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("wal is not open");
  }
  SPAUTH_FAILPOINT_RETURN("wal/append");
  ByteWriter payload;
  record.Serialize(&payload);
  std::vector<uint8_t> frame;
  AppendFramedRecord(payload.view(), &frame);
  if (SPAUTH_FAILPOINT_TRIGGERED("wal/fsync")) {
    // The crash between write and flush: an arbitrary prefix of the record
    // may have reached the disk. Persist exactly half the frame so replay
    // deterministically sees a torn tail record.
    SPAUTH_RETURN_IF_ERROR(WriteAll(fd_, frame.data(), frame.size() / 2));
    ::fsync(fd_);
    return Status::Unavailable("fail point fired: wal/fsync");
  }
  SPAUTH_RETURN_IF_ERROR(WriteAll(fd_, frame.data(), frame.size()));
  if (::fsync(fd_) != 0) {
    return Status::Unavailable(std::string("wal fsync failed: ") +
                               std::strerror(errno));
  }
  ++appended_;
  return Status::Ok();
}

Status Wal::Reset() {
  if (fd_ < 0) {
    return Status::FailedPrecondition("wal is not open");
  }
  // The crash between the snapshot publish and the truncate: the full log
  // survives next to a snapshot that already absorbed it. Recovery must
  // skip the absorbed prefix and land byte-identical anyway.
  SPAUTH_FAILPOINT_RETURN("wal/reset");
  if (::ftruncate(fd_, 0) != 0) {
    return Status::Unavailable(std::string("wal truncate failed: ") +
                               std::strerror(errno));
  }
  if (::fsync(fd_) != 0) {
    return Status::Unavailable(std::string("wal fsync failed: ") +
                               std::strerror(errno));
  }
  return Status::Ok();
}

Result<WalReplay> Wal::Read(const std::string& path) {
  WalReplay replay;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return replay;  // a log that never existed is an empty log
  }
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  ByteReader reader{std::span<const uint8_t>(bytes)};
  std::vector<uint8_t> payload;
  while (true) {
    const size_t record_start = reader.position();
    const Status frame = ReadFramedRecord(&reader, &payload);
    if (frame.code() == StatusCode::kOutOfRange) {
      break;  // clean end of log
    }
    if (!frame.ok()) {
      // A crash tear can only live at the tail: either the frame header
      // itself is truncated, or the declared frame runs to (or past) the
      // end of the file. A corrupt frame with further bytes BEHIND it is
      // mid-log damage — accepting the prefix would silently drop
      // committed records the file still holds.
      const size_t rem = bytes.size() - record_start;
      if (rem >= 8) {
        const uint32_t len = static_cast<uint32_t>(bytes[record_start]) |
                             static_cast<uint32_t>(bytes[record_start + 1]) << 8 |
                             static_cast<uint32_t>(bytes[record_start + 2]) << 16 |
                             static_cast<uint32_t>(bytes[record_start + 3]) << 24;
        const uint64_t frame_end = static_cast<uint64_t>(record_start) + 8 + len;
        if (frame_end < bytes.size()) {
          return Status::DataLoss(
              "corrupt wal record followed by " +
              std::to_string(bytes.size() - frame_end) +
              " more bytes — mid-log damage, not a crash tail");
        }
      }
      replay.torn_tail = true;  // genuine tail tear: stop, keep the prefix
      break;
    }
    WalRecord record;
    ByteReader record_reader{std::span<const uint8_t>(payload)};
    const Status decode = WalRecord::DeserializeInto(&record_reader, &record);
    if (!decode.ok()) {
      // The CRC passed, so the frame was written whole — this cannot be a
      // crash tear. An unknown kind or undecodable bytes inside a clean
      // frame means damage (or a future format): refuse, never skip.
      if (decode.code() == StatusCode::kDataLoss) {
        return decode;
      }
      return Status::DataLoss("undecodable wal record inside a CRC-clean frame: " +
                              std::string(decode.message()));
    }
    replay.records.push_back(std::move(record));
    replay.valid_bytes = reader.position();
  }
  return replay;
}

}  // namespace spauth

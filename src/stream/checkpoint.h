// Durable checkpoints of the sharded streaming engine.
//
// A stream::Checkpoint is the complete durable image of a quiesced
// ShardedEngine: every per-shard operator (sessionizers mid-session, interval
// runs mid-run, P2 markers, reorder heaps, concurrency bins), the producer's
// exact global accounting (clean screen, quarantine, duration tally,
// watermark) and the per-car acknowledgement cursors the exactly-once replay
// path dedups against. ShardedEngine::checkpoint() produces one;
// ShardedEngine::restore() resumes from one so that a killed-and-restored run
// replaying from its last acknowledged position is bitwise identical to a run
// that never stopped (see DESIGN.md §11 for the argument).
//
// On disk the image is a versioned binary file:
//
//   magic "CCKP" | u32 version
//   section*     := u32 tag | u64 payload_len | payload | u32 crc32(payload)
//
// with exactly one CONF section (config fingerprint + finished flag), one
// PROD section (producer state) and one SHRD section per shard, in shard
// order. Each SHRD payload leads with its own shard index so reordered
// sections are a kCheckpointMismatch, never a silent shard swap. Fixed-width
// integers are little-endian; P2 states and per-cell duration entries use
// LEB128 varints and a compact lossless layout (DESIGN.md §11). All
// associative state inside the payloads is sorted, so equal engine states
// encode to equal bytes.
//
// Each shard writes and loads its own SHRD section (write_shard,
// load_shard); a Checkpoint holds the framed sections as bytes.
//
// Reading obeys the same Strict/Lenient discipline as the CDR readers: a
// damaged magic/header is kBadHeader, a section whose payload overruns the
// file is kTruncatedPayload, a CRC failure is kChecksumMismatch and a
// version/geometry mismatch is kCheckpointMismatch. Strict mode throws
// util::CsvError at the first fault; lenient mode counts and quarantines it
// in the caller's IngestReport and returns std::nullopt — the caller cold
// starts instead of resuming from a corrupt image.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cdr/clean.h"
#include "cdr/integrity.h"
#include "stream/config.h"
#include "stream/operators.h"
#include "stream/report.h"
#include "util/time.h"

namespace ccms::stream {

/// The analytic-semantic subset of StreamConfig a checkpoint is only valid
/// for. Tunables that do not change analytic state (batch_records,
/// queue_batches, quarantine_cap, top_cells) are deliberately absent: a
/// checkpoint restores across them (the quarantine is re-capped to the
/// restoring engine's cap, mirroring the chunk-merge re-cap of parallel
/// ingest).
struct ConfigFingerprint {
  std::int32_t shards = 1;
  std::int64_t allowed_lateness = 0;
  std::int64_t session_gap = 0;
  std::int32_t truncation_cap = 0;
  std::int32_t clean_artifact_duration_s = 0;
  std::int32_t clean_max_plausible_duration_s = 0;
  std::uint32_t fleet_size = 0;
  std::int32_t study_days = 0;
  std::int32_t recent_bins = 0;
  bool exactly_once = false;

  friend bool operator==(const ConfigFingerprint&,
                         const ConfigFingerprint&) = default;
};

/// The fingerprint of a live config.
[[nodiscard]] ConfigFingerprint fingerprint_of(const StreamConfig& config);

/// One per-car exactly-once acknowledgement cursor: the largest
/// (start, cell, duration) delivery key seen from this car. Re-delivered
/// records at or below the cursor are dropped before any accounting.
struct AckCursor {
  std::uint32_t car = 0;
  time::Seconds start = 0;
  std::uint32_t cell = 0;
  std::int32_t duration_s = 0;

  friend bool operator==(const AckCursor&, const AckCursor&) = default;
};

/// Complete durable image of a quiesced ShardedEngine.
struct Checkpoint {
  /// v2: SHRD payloads lead with their shard index. v3: the duration
  /// tally is its histogram and P2 markers only. v4: P2 states in the
  /// compact lossless layout, per-cell duration ids delta-coded.
  static constexpr std::uint32_t kVersion = 4;

  ConfigFingerprint config;
  bool finished = false;  ///< checkpoint of an already-finished engine

  /// Producer-thread state: exact global accounting plus replay cursors.
  struct Producer {
    cdr::IngestReport ingest;
    cdr::CleanReport clean;
    DurationTally::State durations;
    time::Seconds max_start = std::numeric_limits<time::Seconds>::min();
    time::Seconds watermark = std::numeric_limits<time::Seconds>::min();
    std::uint64_t offered = 0;
    std::uint64_t routed = 0;
    std::uint64_t replayed = 0;
    std::vector<std::uint64_t> routed_per_shard;
    std::vector<AckCursor> cursors;  ///< ascending by car id
  };
  Producer producer;

  /// One framed SHRD section per shard, in shard order: tag, payload
  /// length, payload and CRC32, the bytes encode() appends.
  std::vector<std::vector<std::uint8_t>> shards;
};

/// Shard `state`'s framed SHRD section, written from its members. Equal
/// states write equal bytes. Compacts open bins: the shard's writer only.
[[nodiscard]] std::vector<std::uint8_t> write_shard(ShardState& state);

/// Replaces `state` with a SHRD section of its shard index, to resume bit
/// for bit. Throws util::CsvError on a damaged section.
void load_shard(std::span<const std::uint8_t> section, ShardState& state);

/// The skeleton every image starts from (ShardedEngine's, DistEngine's, a
/// dist worker's): `config`'s fingerprint, the finished flag,
/// producer.routed_per_shard sized to its shard count, and per shard a
/// placeholder section, an empty shard without a day table.
[[nodiscard]] Checkpoint image_skeleton(const StreamConfig& config,
                                        bool finished);

/// The one resume check: equal fingerprints, and shards and
/// producer.routed_per_shard sized to `config`'s shard count. A CRC-valid
/// image can still carry a table of the wrong length (decode does not know
/// the live shard count); resizing it would fabricate or drop state.
[[nodiscard]] bool image_fits(const Checkpoint& image,
                              const StreamConfig& config);

/// Serializes a checkpoint to its framed binary image. Deterministic: equal
/// checkpoints encode to equal bytes.
[[nodiscard]] std::vector<std::uint8_t> encode(const Checkpoint& checkpoint);

/// The same image, appended to `out` (a dist frame composes it in place).
void encode(const Checkpoint& checkpoint, std::vector<std::uint8_t>& out);

/// Parses a binary image. `options.mode` selects the fault discipline
/// (strict: throw util::CsvError; lenient: account in `report`, return
/// nullopt); `options.quarantine_cap` bounds the entries retained in
/// `report`. A clean parse leaves `report` untouched apart from
/// bytes_consumed.
/// Each SHRD section is validated by reading it into a scratch ShardState,
/// or the one of `into`'s index into `into` (discard it on a fault).
[[nodiscard]] std::optional<Checkpoint> decode(
    std::span<const std::uint8_t> bytes, const cdr::IngestOptions& options,
    cdr::IngestReport& report, ShardState* into = nullptr);

/// Writes the encoded image to `path` (truncating). Throws util::CsvError on
/// I/O failure.
void save_checkpoint(const Checkpoint& checkpoint, const std::string& path);

/// Reads and decodes `path` under the Strict/Lenient discipline of decode().
/// An unreadable file is a kBadHeader fault.
[[nodiscard]] std::optional<Checkpoint> load_checkpoint(
    const std::string& path, const cdr::IngestOptions& options,
    cdr::IngestReport& report);

}  // namespace ccms::stream

#include "stream/frontend.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace ccms::stream {

Frontend::Frontend(const StreamConfig& config)
    : config_(config), durations_(config.truncation_cap) {
  // The bound is what keeps every routed duration small enough for the
  // dense duration histogram; without it one corrupt INT32_MAX record
  // would ask for a 16 GiB tally.
  if (config_.clean.max_plausible_duration_s <= 0) {
    throw std::invalid_argument(
        "stream::Frontend: clean.max_plausible_duration_s must be > 0 (got " +
        std::to_string(config_.clean.max_plausible_duration_s) + ")");
  }
  config_.shards = std::max(1, config_.shards);
  config_.batch_records = std::max<std::size_t>(1, config_.batch_records);
  config_.queue_batches = std::max<std::size_t>(1, config_.queue_batches);
  ingest_.mode = cdr::ParseMode::kLenient;
  routed_per_shard_.assign(static_cast<std::size_t>(config_.shards), 0);
  pending_.resize(static_cast<std::size_t>(config_.shards));
  for (auto& records : pending_) records.reserve(config_.batch_records);
}

void Frontend::quarantine_late(const cdr::Connection& c) {
  ++ingest_.records_dropped;
  // The offset is the post-dedup delivery ordinal, not the raw offer count:
  // re-delivered duplicates must not shift the ordinals, or a restored
  // run's quarantine would diverge from the uninterrupted run's.
  ingest_.record_fault(
      config_.quarantine_cap, cdr::FaultClass::kOutOfOrderRecord,
      offered_ - replayed_,
      "arrived past the watermark: start " + std::to_string(c.start) + " < " +
          std::to_string(watermark_) + " (lateness " +
          std::to_string(config_.allowed_lateness) + " s)");
}

std::optional<std::size_t> Frontend::offer(const cdr::Connection& c) {
  ++offered_;

  // Stage 0 — exactly-once dedup. An at-least-once feed re-delivers from
  // its last acknowledged position after a disconnect or a restore; the
  // per-car cursor drops those duplicates before *any* accounting, so every
  // downstream counter sees the pristine record sequence exactly once.
  if (config_.exactly_once) {
    const CursorKey key{c.start, c.cell.value, c.duration_s};
    auto [it, inserted] = cursors_.try_emplace(c.car.value, key);
    if (!inserted) {
      if (key <= it->second) {
        ++replayed_;
        return std::nullopt;
      }
      it->second = key;
    }
  }
  ++ingest_.rows_read;

  // Stage 1 — the §3 clean screen: the batch cdr::clean's own rule, so the
  // CleanReport matches it record for record.
  if (!cdr::survives_clean(c, config_.clean, clean_)) return std::nullopt;

  // Stage 2 — the watermark. Only clean records advance it: a corrupt
  // timestamp must not eject a window's worth of good records.
  if (c.start < watermark_) {
    quarantine_late(c);
    return std::nullopt;
  }
  if (c.start > max_start_) {
    max_start_ = c.start;
    watermark_ = max_start_ - config_.allowed_lateness;
  }

  // Stage 3 — exact global accounting.
  ++ingest_.records_accepted;
  ++routed_;
  durations_.add(c.duration_s);

  // Stage 4 — onto the owning shard's pending batch.
  const auto shard = static_cast<std::size_t>(
      c.car.value % static_cast<std::uint32_t>(config_.shards));
  ++routed_per_shard_[shard];
  pending_[shard].push_back(c);
  if (pending_[shard].size() < config_.batch_records) return std::nullopt;
  return shard;
}

Batch Frontend::flush(std::size_t shard) {
  Batch batch;
  if (pending_[shard].empty()) return batch;
  batch.seq_of_last = routed_per_shard_[shard];
  batch.watermark = watermark_;
  batch.records.swap(pending_[shard]);
  pending_[shard].reserve(config_.batch_records);
  return batch;
}

std::vector<AckCursor> Frontend::ack_cursors() const {
  std::vector<AckCursor> cursors;
  cursors.reserve(cursors_.size());
  for (const auto& [car, key] : cursors_) {
    cursors.push_back({car, key.start, key.cell, key.duration_s});
  }
  std::sort(
      cursors.begin(), cursors.end(),
      [](const AckCursor& a, const AckCursor& b) { return a.car < b.car; });
  return cursors;
}

void Frontend::save(Checkpoint::Producer& p) const {
  p.ingest = ingest_;
  p.clean = clean_;
  p.durations = durations_.state();
  p.max_start = max_start_;
  p.watermark = watermark_;
  p.offered = offered_;
  p.routed = routed_;
  p.replayed = replayed_;
  p.routed_per_shard = routed_per_shard_;
  p.cursors = ack_cursors();
}

void Frontend::load(const Checkpoint::Producer& p) {
  ingest_ = p.ingest;
  // Re-cap the loaded quarantine to *this* engine's cap (quarantine_cap is
  // a tunable, not part of the fingerprint) — the same discipline as the
  // chunk-merge re-cap in parallel ingest.
  ingest_.cap_quarantine(config_.quarantine_cap);
  clean_ = p.clean;
  durations_.restore(p.durations);
  max_start_ = p.max_start;
  watermark_ = p.watermark;
  offered_ = p.offered;
  routed_ = p.routed;
  replayed_ = p.replayed;
  routed_per_shard_ = p.routed_per_shard;
  cursors_.clear();
  cursors_.reserve(p.cursors.size());
  for (const AckCursor& cursor : p.cursors) {
    cursors_.emplace(cursor.car,
                     CursorKey{cursor.start, cursor.cell, cursor.duration_s});
  }
}

}  // namespace ccms::stream

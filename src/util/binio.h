// Little-endian binary payload writer/reader + CRC32, shared by the
// checkpoint image codec (stream/checkpoint.cpp) and the dist wire protocol
// (dist/wire.cpp).
//
// Writer and Reader have the same method names: Writer's take a value and
// append it, Reader's take a reference and fill it. So each persisted
// layout is written once, as a field list that serves both directions:
//
//   template <class IO, binio::Is<Point> P>  // P = Point or const Point
//   void fields(IO& io, P& p) {
//     io.i64(p.x);
//     io.seq(p.tags, 4, [](auto& io, auto& tag) { io.u32(tag); });
//   }
//
// A check only the reader can make (a table size this build expects, an
// index the caller knows) is an `if constexpr (IO::kReading)` branch next
// to the field it guards. Framing (section tags and order, lengths, CRCs,
// trailing bytes) is checked by the callers around the field lists. Field
// lists are templates and lambdas, so they compile to direct calls.
//
// Reader walks a span and throws binio::Truncated the moment a field would
// run past the end, which the callers map onto their Strict/Lenient fault
// discipline (FaultClass::kTruncatedPayload). seq() validates a declared
// element count against the remaining payload *by division* before it
// allocates, so a hostile count can neither overflow the check nor trigger
// a bogus allocation. Its `min_elem_bytes` must be the element's true
// minimum encoded size (every field at its smallest, every nested sequence
// empty); a smaller floor admits, and allocates for, a count the payload
// cannot hold.
//
// All integers are little-endian regardless of host order; doubles travel as
// their IEEE-754 bit pattern. Equal values encode to equal bytes.
#pragma once

#include <array>
#include <bit>
#include <concepts>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace ccms::binio {

/// Thrown by Reader when a field or declared count overruns the payload.
struct Truncated {
  std::string reason;
};

/// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) over a payload.
inline std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  static constexpr auto kTable = [] {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t b : bytes) {
    crc = kTable[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

/// `T` is `U` or `const U`: the parameter type of a field list, which reads
/// into a `U` and writes from a `const U`.
template <class T, class U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

class Writer {
 public:
  static constexpr bool kReading = false;

  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back((v >> (8 * i)) & 0xFFu);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back((v >> (8 * i)) & 0xFFu);
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// An enum stored as one byte.
  template <class E>
  void enum8(E v) {
    u8(static_cast<std::uint8_t>(v));
  }
  void str(const std::string& s) {
    u64(s.size());
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void bytes(std::span<const std::uint8_t> b) {
    out_.insert(out_.end(), b.begin(), b.end());
  }
  /// The payload's last field: opaque bytes, unprefixed.
  void rest(std::span<const std::uint8_t> b) { bytes(b); }

  /// A u64 element count, then `fn(*this, element)` for each element.
  template <class T, class Fn>
  void seq(const std::vector<T>& v, std::uint64_t /*min_elem_bytes*/, Fn fn) {
    u64(v.size());
    for (const T& x : v) fn(*this, x);
  }
  void vec_u64(const std::vector<std::uint64_t>& v) {
    seq(v, 8, [](Writer& w, std::uint64_t x) { w.u64(x); });
  }
  void vec_u32(const std::vector<std::uint32_t>& v) {
    seq(v, 4, [](Writer& w, std::uint32_t x) { w.u32(x); });
  }

 private:
  std::vector<std::uint8_t>& out_;
};

class Reader {
 public:
  static constexpr bool kReading = true;

  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

  void u8(std::uint8_t& v) { v = static_cast<std::uint8_t>(le(1)); }
  void u32(std::uint32_t& v) { v = static_cast<std::uint32_t>(le(4)); }
  void u64(std::uint64_t& v) { v = le(8); }
  void i32(std::int32_t& v) { v = static_cast<std::int32_t>(le(4)); }
  void i64(std::int64_t& v) { v = static_cast<std::int64_t>(le(8)); }
  void f64(double& v) { v = std::bit_cast<double>(le(8)); }
  void boolean(bool& v) { v = le(1) != 0; }
  template <class E>
  void enum8(E& v) {
    v = static_cast<E>(le(1));
  }
  void str(std::string& s) {
    const std::size_t n = count(le(8), 1);
    s.assign(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
  }
  void rest(std::vector<std::uint8_t>& v) {
    v.assign(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_), bytes_.end());
    pos_ = bytes_.size();
  }

  /// Reads the u64 element count, rejects it unless `min_elem_bytes` per
  /// element fit the remaining payload, then fills a fresh vector of that
  /// many elements through `fn(*this, element)`.
  template <class T, class Fn>
  void seq(std::vector<T>& v, std::uint64_t min_elem_bytes, Fn fn) {
    const std::size_t n = count(le(8), min_elem_bytes);
    v.clear();
    v.resize(n);
    for (T& x : v) fn(*this, x);
  }
  void vec_u64(std::vector<std::uint64_t>& v) {
    seq(v, 8, [](Reader& r, std::uint64_t& x) { r.u64(x); });
  }
  void vec_u32(std::vector<std::uint32_t>& v) {
    seq(v, 4, [](Reader& r, std::uint32_t& x) { r.u32(x); });
  }

 private:
  /// The next `n` bytes as a little-endian integer.
  std::uint64_t le(std::size_t n) {
    if (n > remaining()) {
      throw Truncated{"section payload ends mid-field"};
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += n;
    return v;
  }

  /// A declared element count that cannot fit the remaining payload is a
  /// truncation fault, not an allocation of bogus size. Division (not
  /// multiplication) so a hostile count cannot overflow the check.
  std::size_t count(std::uint64_t n, std::uint64_t min_elem_bytes) {
    if (n > remaining() / min_elem_bytes) {
      throw Truncated{"declared count overruns section payload"};
    }
    return static_cast<std::size_t>(n);
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace ccms::binio

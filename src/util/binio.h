// Little-endian binary payload writer/reader, LEB128 varints and CRC32,
// shared by the checkpoint image codec (stream/checkpoint.cpp), the dist wire
// protocol (dist/wire.cpp) and the CCDR2 columnar format (cdr/columnar.cpp).
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
// Fixed-width integers are little-endian regardless of host order; uvarint()
// is LEB128, the same varint the CCDR2 columns use; doubles travel as their
// IEEE-754 bit pattern. Equal values encode to equal bytes.
#pragma once

#include <array>
#include <bit>
#include <concepts>
#include <cstddef>
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
///
/// Slicing-by-8: table k advances a byte's contribution through k further
/// zero bytes, so eight table lookups fold eight input bytes at once. The
/// words are assembled from bytes, so the result does not depend on host
/// byte order; it equals the bytewise table CRC bit for bit.
inline std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  static constexpr auto kTables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::size_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  const auto le32 = [](const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
  };
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = le32(p) ^ crc;
    const std::uint32_t hi = le32(p + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

/// Unsigned LEB128: appends 1-10 bytes to `out` (a byte vector or string).
template <class Bytes>
void put_uvarint(Bytes& out, std::uint64_t v) {
  using Byte = typename Bytes::value_type;
  while (v >= 0x80) {
    out.push_back(static_cast<Byte>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<Byte>(v));
}

/// Decodes one LEB128 value from [p, end) and advances p. Returns false on
/// truncation or a value wider than 64 bits.
[[nodiscard]] inline bool get_uvarint(const std::uint8_t*& p,
                                      const std::uint8_t* end,
                                      std::uint64_t& v) {
  v = 0;
  int shift = 0;
  while (p < end) {
    const std::uint8_t b = *p++;
    if (shift == 63 && (b & 0xFE) != 0) return false;  // > 64 bits
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return true;
    shift += 7;
    if (shift > 63) return false;
  }
  return false;  // truncated
}

/// Zigzag mapping of signed values onto unsigned varints: small magnitudes
/// of either sign get small codes.
[[nodiscard]] constexpr std::uint64_t zigzag64(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t unzigzag64(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
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
  void u32(std::uint32_t v) { le<4>(v); }
  void u64(std::uint64_t v) { le<8>(v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void uvarint(std::uint64_t v) { put_uvarint(out_, v); }
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

  /// The buffer being appended to, for a field another encoder writes in
  /// place.
  std::vector<std::uint8_t>& buffer() { return out_; }

  /// A u64 element count, for a container seq() cannot walk; the caller
  /// writes the elements.
  void count(std::size_t n, std::uint64_t /*min_elem_bytes*/) { u64(n); }

  /// A u64 element count, then `fn(*this, element)` for each element.
  template <class T, class Fn>
  void seq(const std::vector<T>& v, std::uint64_t min_elem_bytes, Fn fn) {
    count(v.size(), min_elem_bytes);
    for (const T& x : v) fn(*this, x);
  }
  void vec_u64(const std::vector<std::uint64_t>& v) {
    seq(v, 8, [](Writer& w, std::uint64_t x) { w.u64(x); });
  }
  void vec_u32(const std::vector<std::uint32_t>& v) {
    seq(v, 4, [](Writer& w, std::uint32_t x) { w.u32(x); });
  }

 private:
  /// Appends the low `N` bytes of `v`, least significant first: one resize,
  /// then byte stores the compiler merges into a single store.
  template <std::size_t N>
  void le(std::uint64_t v) {
    const std::size_t at = out_.size();
    out_.resize(at + N);
    std::uint8_t* p = out_.data() + at;
    for (std::size_t i = 0; i < N; ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

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
  void uvarint(std::uint64_t& v) {
    const std::uint8_t* p = bytes_.data() + pos_;
    if (!get_uvarint(p, bytes_.data() + bytes_.size(), v)) {
      throw Truncated{"varint is truncated or wider than 64 bits"};
    }
    pos_ = static_cast<std::size_t>(p - bytes_.data());
  }
  template <class E>
  void enum8(E& v) {
    v = static_cast<E>(le(1));
  }
  void str(std::string& s) {
    const std::size_t n = checked(le(8), 1);
    s.assign(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
  }
  void rest(std::vector<std::uint8_t>& v) {
    v.assign(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_), bytes_.end());
    pos_ = bytes_.size();
  }

  /// Reads a u64 element count and rejects it unless `min_elem_bytes` per
  /// element fit the remaining payload; the caller reads the elements.
  void count(std::size_t& n, std::uint64_t min_elem_bytes) {
    n = checked(le(8), min_elem_bytes);
  }

  /// Reads the element count as count() does, then fills a fresh vector of
  /// that many elements through `fn(*this, element)`.
  template <class T, class Fn>
  void seq(std::vector<T>& v, std::uint64_t min_elem_bytes, Fn fn) {
    std::size_t n = 0;
    count(n, min_elem_bytes);
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
  std::size_t checked(std::uint64_t n, std::uint64_t min_elem_bytes) {
    if (n > remaining() / min_elem_bytes) {
      throw Truncated{"declared count overruns section payload"};
    }
    return static_cast<std::size_t>(n);
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace ccms::binio

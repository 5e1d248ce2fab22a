#include "core/flow_codec.h"

#include <string>

#include "store/record_file.h"
#include "util/check.h"

namespace opckit::opc {
namespace {

using store::store_detail::ByteReader;
using store::store_detail::ByteWriter;

// Version 4: the layout derives from visit_flow_fields().
constexpr std::uint16_t kCodecVersion = 4;
/// A deck entry name is a short rule label; anything huge is corruption.
constexpr std::uint32_t kMaxNameBytes = 4096;

[[noreturn]] void malformed(const std::string& what) {
  throw util::InputError("flow spec codec: " + what);
}

bool in_bound(double v, FieldBound bound) {
  switch (bound) {
    case FieldBound::kAny: return true;
    case FieldBound::kNonNegative: return v >= 0.0;
    case FieldBound::kPositive: return v > 0.0;
    case FieldBound::kOpenUnit: return v > 0.0 && v < 1.0;
    case FieldBound::kJobs: return v >= 0.0 && v <= kMaxJobs;
  }
  return false;
}

// ---- one field on the wire, by C++ type -------------------------------

void put(ByteWriter& w, double v) { w.f64(v); }
void put(ByteWriter& w, int v) { w.u32(static_cast<std::uint32_t>(v)); }
void put(ByteWriter& w, geom::Coord v) { w.i64(v); }
void put(ByteWriter& w, std::uint16_t v) { w.u16(v); }
void put(ByteWriter& w, bool v) { w.u8(v ? 1 : 0); }
template <typename E>
  requires std::is_enum_v<E>
void put(ByteWriter& w, E v) {
  w.u8(static_cast<std::uint8_t>(v));
}
void put(ByteWriter& w, const mrc::Deck& deck) {
  w.u32(static_cast<std::uint32_t>(deck.size()));
  for (const mrc::Check& c : deck) {
    put(w, c.kind);
    w.i64(c.value);
    w.str(c.name);
  }
}

void get(ByteReader& r, const char*, double& v) { v = r.f64(); }
void get(ByteReader& r, const char*, int& v) {
  v = static_cast<std::int32_t>(r.u32());
}
void get(ByteReader& r, const char*, geom::Coord& v) { v = r.i64(); }
void get(ByteReader& r, const char*, std::uint16_t& v) { v = r.u16(); }
void get(ByteReader& r, const char* name, bool& v) {
  const std::uint8_t b = r.u8();
  if (b > 1) malformed(std::string("bad ") + name + " boolean value");
  v = b == 1;
}
template <typename E>
  requires std::is_enum_v<E>
void get(ByteReader& r, const char* name, E& v) {
  const std::uint8_t b = r.u8();
  if (b >= enum_count(E{}))
    malformed(std::string("bad ") + name + " enum value");
  v = static_cast<E>(b);
}
void get(ByteReader& r, const char*, mrc::Deck& deck) {
  const std::uint32_t n = r.u32();
  if (n > kMaxDeckChecks) malformed("MRC deck count exceeds the limit");
  // Each check costs at least kind + value + name length = 13 bytes;
  // pre-check so a corrupt count cannot allocate unboundedly.
  if (r.remaining() < std::uint64_t{n} * 13) malformed("truncated MRC deck");
  deck.resize(n);
  for (mrc::Check& c : deck) {
    get(r, "mrc_deck.kind", c.kind);
    c.value = r.i64();
    c.name = r.str(kMaxNameBytes);
  }
}

/// Writes the fields of one role, in list order.
struct SectionWriter {
  FieldRole section;
  ByteWriter& w;

  template <FieldRole R, typename T>
  void operator()(Role<R>, const char*, const T& field, FieldBound) const {
    if constexpr (R != FieldRole::kLocal) {
      if (R == section) put(w, field);
    }
  }
};

/// Reads the fields of one role, in list order, and checks their bounds.
struct SectionReader {
  FieldRole section;
  ByteReader& r;

  template <FieldRole R, typename T>
  void operator()(Role<R>, const char* name, T& field,
                  FieldBound bound) const {
    if constexpr (R != FieldRole::kLocal) {
      if (R != section) return;
      get(r, name, field);
      if constexpr (std::is_arithmetic_v<T>) {
        if (!in_bound(static_cast<double>(field), bound))
          malformed(std::string(name) + " out of range");
      }
    }
  }
};

}  // namespace

std::vector<std::uint8_t> encode_flow_spec(const FlowSpec& spec) {
  ByteWriter w;
  w.u16(kCodecVersion);
  visit_flow_fields(spec, SectionWriter{FieldRole::kMixed, w});
  visit_flow_fields(spec, SectionWriter{FieldRole::kCarried, w});
  return std::move(w).take();
}

FlowSpec decode_flow_spec(const std::uint8_t* data, std::size_t size) {
  ByteReader r({data, size}, malformed);
  const std::uint16_t version = r.u16();
  if (version != kCodecVersion)
    malformed("spec version " + std::to_string(version) +
              "; this build reads version " + std::to_string(kCodecVersion));
  FlowSpec spec;
  visit_flow_fields(spec, SectionReader{FieldRole::kMixed, r});
  visit_flow_fields(spec, SectionReader{FieldRole::kCarried, r});
  r.finish("spec");
  return spec;
}

std::uint64_t flow_fingerprint(const FlowSpec& spec,
                               std::string_view flow_kind) {
  // FNV-1a over the flow kind, then the codec's mixed section: the
  // identity is exactly the bytes the wire carries for the mixed fields.
  ByteWriter mixed;
  visit_flow_fields(spec, SectionWriter{FieldRole::kMixed, mixed});
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ULL;
  };
  for (char c : flow_kind) mix(static_cast<std::uint8_t>(c));
  for (std::uint8_t byte : mixed.bytes()) mix(byte);
  return h;
}

}  // namespace opckit::opc

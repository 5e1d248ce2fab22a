/// \file protocol.h
/// The opcd wire protocol: length-prefixed, CRC-framed binary messages.
///
/// ## Frame layout (version 1, little-endian)
///
/// ```
/// header (12 bytes)
///   u8[4]  magic   "OPCS"
///   u16    version (1)
///   u16    message type (MsgType)
///   u32    payload length L  (<= kMaxPayloadBytes)
/// u8[L]    payload — per-message encoding, see the *Msg structs
/// u32      crc32(payload)    — IEEE 802.3, the .ocl library polynomial
/// ```
///
/// The framing reuses the correction store's integrity discipline
/// (store::store_detail::crc32, explicit little-endian fields,
/// bounds-checked decoding): a daemon that trusts bytes off a socket
/// has exactly the store's threat model — torn writes, truncation,
/// corruption — plus hostile peers, so every validation failure maps to
/// a typed WireFault and a thrown ProtocolError, never UB, unbounded
/// allocation, or a hang. Job specs travel via core/flow_codec.h and
/// results as the `--stats json` rendering (core/render_stats_json), so
/// the daemon introduces zero new result formats.
///
/// ## Conversation
///
/// Client: kSubmit{priority, flow, paths, spec} → daemon replies
/// kAccepted{job_id, queue_depth} or kRejected{job_id, reason}. While
/// the job runs the daemon streams kProgress{phase, pass, done, total}
/// events (sourced from FlowSpec::progress), then exactly one
/// kResult{ok, stats-json | error text}. kPing/kPong echo payloads;
/// kShutdown{drain|abort} acknowledges with kShutdownAck before the
/// daemon begins draining. A malformed inbound frame earns kError and —
/// for framing faults, where resynchronization is impossible — a close.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/flow.h"
#include "util/check.h"

namespace opckit::svc {

inline constexpr std::uint8_t kMagic[4] = {'O', 'P', 'C', 'S'};
inline constexpr std::uint16_t kProtocolVersion = 1;
/// Frame payload cap. A submit carries paths + an encoded FlowSpec and a
/// result carries a stats JSON with per-tile arrays; both are far below
/// this. Anything larger is a corrupt length or a hostile peer — refuse
/// before allocating.
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;
inline constexpr std::size_t kFrameHeaderSize = 4 + 2 + 2 + 4;

/// Message types on the wire. Values are wire-stable: append, never
/// renumber.
enum class MsgType : std::uint16_t {
  kSubmit = 1,
  kAccepted = 2,
  kRejected = 3,
  kProgress = 4,
  kResult = 5,
  kShutdown = 6,
  kShutdownAck = 7,
  kPing = 8,
  kPong = 9,
  kError = 10,
};

bool is_known_type(std::uint16_t v);

/// Typed classification of a malformed frame or payload — what the
/// corrupt-frame corpus asserts on.
enum class WireFault : std::uint8_t {
  kTruncated,   ///< EOF inside a frame (header or payload)
  kBadMagic,    ///< header does not start with "OPCS"
  kBadVersion,  ///< protocol version this build does not speak
  kBadType,     ///< message type outside the MsgType table
  kOversized,   ///< payload length above kMaxPayloadBytes
  kBadCrc,      ///< payload checksum mismatch
  kBadPayload,  ///< frame intact but the payload decode failed
};

const char* to_string(WireFault fault);

/// Thrown by frame/payload decoding. Derives util::InputError so callers
/// that only care about "bad input" keep working; the daemon reads
/// fault() to build its kError reply and decide whether the stream is
/// resynchronizable (payload faults are; framing faults are not).
class ProtocolError : public util::InputError {
 public:
  ProtocolError(WireFault fault, const std::string& what)
      : util::InputError("service protocol: " + what), fault_(fault) {}
  WireFault fault() const { return fault_; }

 private:
  WireFault fault_;
};

/// Byte-stream the protocol runs over. Virtual so tests can interpose
/// partial-read/partial-write injection (the frame layer must be correct
/// for ANY legal chunking, not just the one the kernel happens to give).
class Stream {
 public:
  virtual ~Stream() = default;
  /// Read up to \p n bytes into \p buf; returns the count read, 0 on
  /// end-of-stream. Throws util::InputError on I/O error.
  virtual std::size_t read_some(void* buf, std::size_t n) = 0;
  /// Write up to \p n bytes (at least 1) from \p buf; returns the count
  /// written. Throws util::InputError on I/O error.
  virtual std::size_t write_some(const void* buf, std::size_t n) = 0;
};

/// Read exactly \p n bytes. Returns false on clean end-of-stream before
/// the first byte (only when \p eof_ok_at_start); EOF after at least one
/// byte — or when EOF is not acceptable — throws
/// ProtocolError(kTruncated).
bool read_exact(Stream& s, void* buf, std::size_t n, bool eof_ok_at_start);

/// Write all \p n bytes, looping over short writes.
void write_all(Stream& s, const void* buf, std::size_t n);

/// One decoded frame.
struct Frame {
  MsgType type = MsgType::kError;
  std::vector<std::uint8_t> payload;
};

/// Frame \p payload under \p type and write it to \p s.
void write_frame(Stream& s, MsgType type,
                 const std::vector<std::uint8_t>& payload);

/// Read one frame. Returns nullopt on clean end-of-stream at a frame
/// boundary; throws ProtocolError on anything malformed (see WireFault).
std::optional<Frame> read_frame(Stream& s);

// ---- messages ---------------------------------------------------------

/// Why a submission was refused admission.
enum class RejectReason : std::uint16_t {
  kQueueFull = 1,  ///< admission queue at max_queue
  kDraining = 2,   ///< daemon is shutting down
  kBadJob = 3,     ///< request decoded but described an unrunnable job
};

const char* to_string(RejectReason reason);

/// kSubmit — one OPC job: what `opckit opc` takes on the command line,
/// as data. The spec travels through core/flow_codec.h, so daemon and
/// single-process runs share one deserialization and one fingerprint.
struct SubmitMsg {
  std::int32_t priority = 0;  ///< higher runs first (queue + pool order)
  std::uint8_t flow = 0;      ///< 0 = flat, 1 = cell
  std::string in_path;        ///< input GDSII (daemon-local path)
  std::string out_path;       ///< output GDSII (daemon-local path)
  std::string top;            ///< top cell; empty = sole top of the library
  opc::FlowSpec spec;
};

struct AcceptedMsg {
  std::uint64_t job_id = 0;
  std::uint32_t queue_depth = 0;  ///< jobs waiting after this admission
};

struct RejectedMsg {
  std::uint64_t job_id = 0;  ///< 0 when refused before an id was assigned
  RejectReason reason = RejectReason::kBadJob;
  std::string message;
};

struct ProgressMsg {
  std::uint64_t job_id = 0;
  std::int32_t pass = 0;
  std::string phase;
  std::uint64_t tiles_done = 0;
  std::uint64_t tiles_total = 0;
};

struct ResultMsg {
  std::uint64_t job_id = 0;
  bool ok = false;
  /// ok: render_stats_json of the run. !ok: human-readable error text.
  std::string payload;
};

/// kShutdown payload.
enum class ShutdownMode : std::uint8_t {
  kDrain = 0,  ///< in-flight jobs finish; queued jobs rejected
  kAbort = 1,  ///< in-flight jobs cancelled at their next phase boundary
};

struct ShutdownMsg {
  ShutdownMode mode = ShutdownMode::kDrain;
};

struct ErrorMsg {
  std::uint16_t code = 0;  ///< WireFault value, or 100 for server errors
  std::string message;
};

inline constexpr std::uint16_t kErrorCodeServer = 100;

std::vector<std::uint8_t> encode_submit(const SubmitMsg& m);
std::vector<std::uint8_t> encode_accepted(const AcceptedMsg& m);
std::vector<std::uint8_t> encode_rejected(const RejectedMsg& m);
std::vector<std::uint8_t> encode_progress(const ProgressMsg& m);
std::vector<std::uint8_t> encode_result(const ResultMsg& m);
std::vector<std::uint8_t> encode_shutdown(const ShutdownMsg& m);
std::vector<std::uint8_t> encode_error(const ErrorMsg& m);

/// Payload decoders: throw ProtocolError(kBadPayload) on malformation —
/// truncated field, out-of-range enum, oversized string, trailing bytes.
SubmitMsg decode_submit(const std::vector<std::uint8_t>& payload);
AcceptedMsg decode_accepted(const std::vector<std::uint8_t>& payload);
RejectedMsg decode_rejected(const std::vector<std::uint8_t>& payload);
ProgressMsg decode_progress(const std::vector<std::uint8_t>& payload);
ResultMsg decode_result(const std::vector<std::uint8_t>& payload);
ShutdownMsg decode_shutdown(const std::vector<std::uint8_t>& payload);
ErrorMsg decode_error(const std::vector<std::uint8_t>& payload);

}  // namespace opckit::svc

/// Wire-protocol robustness suite for the opcd daemon (src/service).
///
/// Mirrors the store_result_store_test corruption-corpus style: every
/// way a frame can be malformed — truncated at any byte, wrong magic,
/// wrong version, unknown type, oversized length, corrupted payload or
/// CRC — must surface as a typed ProtocolError, never UB, unbounded
/// allocation, or a hang. The Chunk harness additionally replays every
/// conversation through 1–3-byte partial reads AND writes, so the frame
/// layer is proven correct for any legal stream chunking.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/flow_codec.h"
#include "service/protocol.h"

namespace opckit::svc {
namespace {

/// In-memory Stream: reads from a fixed buffer, appends writes.
class MemoryStream : public Stream {
 public:
  MemoryStream() = default;
  explicit MemoryStream(std::vector<std::uint8_t> data)
      : data_(std::move(data)) {}

  std::size_t read_some(void* buf, std::size_t n) override {
    const std::size_t take = std::min(n, data_.size() - pos_);
    std::memcpy(buf, data_.data() + pos_, take);
    pos_ += take;
    return take;
  }

  std::size_t write_some(const void* buf, std::size_t n) override {
    const auto* p = static_cast<const std::uint8_t*>(buf);
    written_.insert(written_.end(), p, p + n);
    return n;
  }

  const std::vector<std::uint8_t>& written() const { return written_; }

 private:
  std::vector<std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::vector<std::uint8_t> written_;
};

/// Partial-I/O injection: never moves more than `chunk` bytes per call,
/// on both the read and the write side.
class ChunkStream : public Stream {
 public:
  ChunkStream(std::vector<std::uint8_t> data, std::size_t chunk)
      : data_(std::move(data)), chunk_(chunk) {}

  std::size_t read_some(void* buf, std::size_t n) override {
    const std::size_t take =
        std::min({n, chunk_, data_.size() - pos_});
    std::memcpy(buf, data_.data() + pos_, take);
    pos_ += take;
    return take;
  }

  std::size_t write_some(const void* buf, std::size_t n) override {
    const std::size_t take = std::min(n, chunk_);
    const auto* p = static_cast<const std::uint8_t*>(buf);
    written_.insert(written_.end(), p, p + take);
    return take;
  }

  const std::vector<std::uint8_t>& written() const { return written_; }

 private:
  std::vector<std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::size_t chunk_;
  std::vector<std::uint8_t> written_;
};

std::vector<std::uint8_t> frame_bytes(MsgType type,
                                      const std::vector<std::uint8_t>& payload) {
  MemoryStream s;
  write_frame(s, type, payload);
  return s.written();
}

WireFault fault_of(const std::vector<std::uint8_t>& bytes) {
  MemoryStream s(bytes);
  try {
    read_frame(s);
  } catch (const ProtocolError& e) {
    return e.fault();
  }
  ADD_FAILURE() << "frame unexpectedly parsed";
  return WireFault::kBadPayload;
}

opc::FlowSpec sample_spec() {
  opc::FlowSpec spec;
  spec.sim.optics.source.grid = 5;
  spec.opc.max_iterations = 3;
  spec.halo_nm = 700;
  spec.jobs = 4;
  spec.flat_context_passes = 1;
  spec.mrc_deck.push_back(
      {mrc::CheckKind::kWidth, "mrc.width.120", geom::Coord{120}});
  spec.mrc_action = mrc::Action::kWarn;
  spec.engine = opc::CorrectionEngine::kEscalate;
  spec.ilt_escalation_epe_nm = 4.5;
  spec.ilt.max_iterations = 17;
  spec.ilt.edge_weight = 2.5;
  spec.ilt.min_space_nm = 96;
  return spec;
}

SubmitMsg sample_submit() {
  SubmitMsg m;
  m.priority = -7;
  m.flow = 1;
  m.in_path = "/tmp/in.gds";
  m.out_path = "/tmp/out.gds";
  m.top = "chip_top";
  m.spec = sample_spec();
  return m;
}

// ---- happy path -------------------------------------------------------

TEST(ServiceProtocol, FrameRoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 0, 7};
  MemoryStream s(frame_bytes(MsgType::kProgress, payload));
  const auto frame = read_frame(s);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kProgress);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_FALSE(read_frame(s).has_value());  // clean EOF at the boundary
}

TEST(ServiceProtocol, EmptyPayloadFrame) {
  MemoryStream s(frame_bytes(MsgType::kShutdownAck, {}));
  const auto frame = read_frame(s);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kShutdownAck);
  EXPECT_TRUE(frame->payload.empty());
}

TEST(ServiceProtocol, FrameSurvivesAnyChunking) {
  const std::vector<std::uint8_t> payload(301, 0xAB);
  for (std::size_t chunk = 1; chunk <= 3; ++chunk) {
    // Partial writes: write through the chunked stream until done.
    ChunkStream w({}, chunk);
    write_frame(w, MsgType::kResult, payload);
    EXPECT_EQ(w.written(), frame_bytes(MsgType::kResult, payload));

    // Partial reads of the same bytes.
    ChunkStream r(w.written(), chunk);
    const auto frame = read_frame(r);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MsgType::kResult);
    EXPECT_EQ(frame->payload, payload);
  }
}

// ---- corrupt-frame corpus ---------------------------------------------

TEST(ServiceProtocol, TruncationAtEveryByteIsTyped) {
  const auto whole = frame_bytes(MsgType::kPing, {9, 9, 9});
  for (std::size_t len = 1; len < whole.size(); ++len) {
    std::vector<std::uint8_t> cut(whole.begin(),
                                  whole.begin() + static_cast<long>(len));
    EXPECT_EQ(fault_of(cut), WireFault::kTruncated) << "prefix " << len;
  }
}

TEST(ServiceProtocol, BadMagicRejected) {
  auto bytes = frame_bytes(MsgType::kPing, {1});
  bytes[0] = 'X';
  EXPECT_EQ(fault_of(bytes), WireFault::kBadMagic);
}

TEST(ServiceProtocol, BadVersionRejected) {
  auto bytes = frame_bytes(MsgType::kPing, {1});
  bytes[4] = 0x7F;  // version lives at offset 4, little-endian
  EXPECT_EQ(fault_of(bytes), WireFault::kBadVersion);
}

TEST(ServiceProtocol, UnknownTypeRejected) {
  auto bytes = frame_bytes(MsgType::kPing, {1});
  bytes[6] = 0xEE;  // type lives at offset 6
  bytes[7] = 0x03;
  EXPECT_EQ(fault_of(bytes), WireFault::kBadType);
}

TEST(ServiceProtocol, OversizedLengthRefusedBeforeAllocating) {
  auto bytes = frame_bytes(MsgType::kPing, {1});
  const std::uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(bytes.data() + 8, &huge, 4);  // length lives at offset 8
  EXPECT_EQ(fault_of(bytes), WireFault::kOversized);
}

TEST(ServiceProtocol, CorruptPayloadFailsCrc) {
  auto bytes = frame_bytes(MsgType::kResult, {10, 20, 30, 40});
  bytes[kFrameHeaderSize + 1] ^= 0x40;
  EXPECT_EQ(fault_of(bytes), WireFault::kBadCrc);
}

TEST(ServiceProtocol, CorruptCrcTrailerDetected) {
  auto bytes = frame_bytes(MsgType::kResult, {10, 20, 30, 40});
  bytes.back() ^= 0x01;
  EXPECT_EQ(fault_of(bytes), WireFault::kBadCrc);
}

TEST(ServiceProtocol, ProtocolErrorIsInputError) {
  MemoryStream s(std::vector<std::uint8_t>{'X', 'X', 'X', 'X', 0, 0, 0, 0,
                                           0, 0, 0, 0});
  EXPECT_THROW(read_frame(s), util::InputError);
}

// ---- message round trips ----------------------------------------------

TEST(ServiceProtocol, SubmitRoundTripPreservesSpecAndFingerprint) {
  const SubmitMsg m = sample_submit();
  const SubmitMsg back = decode_submit(encode_submit(m));
  EXPECT_EQ(back.priority, m.priority);
  EXPECT_EQ(back.flow, m.flow);
  EXPECT_EQ(back.in_path, m.in_path);
  EXPECT_EQ(back.out_path, m.out_path);
  EXPECT_EQ(back.top, m.top);
  // The contract that makes daemon replay safe: a spec survives the wire
  // with its fingerprint intact, for both flow kinds.
  EXPECT_EQ(opc::flow_fingerprint(back.spec, "cell"),
            opc::flow_fingerprint(m.spec, "cell"));
  EXPECT_EQ(opc::flow_fingerprint(back.spec, "flat"),
            opc::flow_fingerprint(m.spec, "flat"));
  EXPECT_EQ(back.spec.jobs, m.spec.jobs);
  EXPECT_EQ(back.spec.mrc_deck.size(), m.spec.mrc_deck.size());
  EXPECT_EQ(back.spec.mrc_action, m.spec.mrc_action);
}

TEST(ServiceProtocol, FlowSpecReencodeIsByteIdentical) {
  const auto bytes = opc::encode_flow_spec(sample_spec());
  const opc::FlowSpec back =
      opc::decode_flow_spec(bytes.data(), bytes.size());
  EXPECT_EQ(opc::encode_flow_spec(back), bytes);
}

TEST(ServiceProtocol, AcceptedRejectedRoundTrip) {
  AcceptedMsg a;
  a.job_id = 0xDEADBEEFCAFE;
  a.queue_depth = 17;
  const AcceptedMsg a2 = decode_accepted(encode_accepted(a));
  EXPECT_EQ(a2.job_id, a.job_id);
  EXPECT_EQ(a2.queue_depth, a.queue_depth);

  RejectedMsg r;
  r.job_id = 42;
  r.reason = RejectReason::kQueueFull;
  r.message = "admission queue is full";
  const RejectedMsg r2 = decode_rejected(encode_rejected(r));
  EXPECT_EQ(r2.job_id, r.job_id);
  EXPECT_EQ(r2.reason, r.reason);
  EXPECT_EQ(r2.message, r.message);
}

TEST(ServiceProtocol, ProgressResultShutdownErrorRoundTrip) {
  ProgressMsg p;
  p.job_id = 7;
  p.pass = 1;
  p.phase = "solve";
  p.tiles_done = 3;
  p.tiles_total = 16;
  const ProgressMsg p2 = decode_progress(encode_progress(p));
  EXPECT_EQ(p2.phase, "solve");
  EXPECT_EQ(p2.pass, 1);
  EXPECT_EQ(p2.tiles_done, 3u);
  EXPECT_EQ(p2.tiles_total, 16u);

  ResultMsg res;
  res.job_id = 9;
  res.ok = true;
  res.payload = "{\"opc_runs\":4}";
  const ResultMsg res2 = decode_result(encode_result(res));
  EXPECT_EQ(res2.job_id, 9u);
  EXPECT_TRUE(res2.ok);
  EXPECT_EQ(res2.payload, res.payload);

  ShutdownMsg sd;
  sd.mode = ShutdownMode::kAbort;
  EXPECT_EQ(decode_shutdown(encode_shutdown(sd)).mode, ShutdownMode::kAbort);

  ErrorMsg err;
  err.code = kErrorCodeServer;
  err.message = "boom";
  const ErrorMsg err2 = decode_error(encode_error(err));
  EXPECT_EQ(err2.code, kErrorCodeServer);
  EXPECT_EQ(err2.message, "boom");
}

// ---- corrupt-payload corpus -------------------------------------------

template <typename Decoder>
void expect_every_prefix_rejected(const std::vector<std::uint8_t>& payload,
                                  Decoder decode) {
  for (std::size_t len = 0; len < payload.size(); ++len) {
    std::vector<std::uint8_t> cut(payload.begin(),
                                  payload.begin() + static_cast<long>(len));
    try {
      decode(cut);
      ADD_FAILURE() << "prefix of length " << len << " decoded";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.fault(), WireFault::kBadPayload) << "prefix " << len;
    }
  }
}

TEST(ServiceProtocol, TruncatedPayloadsRejectedAtEveryByte) {
  expect_every_prefix_rejected(encode_accepted({12, 3}), decode_accepted);
  expect_every_prefix_rejected(encode_shutdown({ShutdownMode::kDrain}),
                               decode_shutdown);
  RejectedMsg r;
  r.job_id = 1;
  r.reason = RejectReason::kDraining;
  r.message = "drain";
  expect_every_prefix_rejected(encode_rejected(r), decode_rejected);
  expect_every_prefix_rejected(encode_submit(sample_submit()),
                               decode_submit);
}

TEST(ServiceProtocol, TrailingBytesRejected) {
  auto payload = encode_accepted({12, 3});
  payload.push_back(0);
  EXPECT_THROW(decode_accepted(payload), ProtocolError);
}

TEST(ServiceProtocol, OutOfRangeEnumsRejected) {
  // SubmitMsg.flow must be 0 or 1; it is the first byte after priority.
  auto submit = encode_submit(sample_submit());
  submit[4] = 2;
  EXPECT_THROW(decode_submit(submit), ProtocolError);

  auto shutdown = encode_shutdown({ShutdownMode::kDrain});
  shutdown[0] = 9;
  EXPECT_THROW(decode_shutdown(shutdown), ProtocolError);

  RejectedMsg r;
  r.reason = RejectReason::kBadJob;
  auto rejected = encode_rejected(r);
  rejected[8] = 0xFF;  // reason lives after the u64 job id
  EXPECT_THROW(decode_rejected(rejected), ProtocolError);
}

TEST(ServiceProtocol, HostileStringLengthRefused) {
  // A rejected payload whose string length claims ~4 GiB must be refused
  // by the bound check, not serviced with an allocation.
  std::vector<std::uint8_t> payload(8 + 2 + 4, 0);
  payload[8] = 1;                          // reason = kQueueFull
  payload[10] = 0xFF;                      // string length = 0xFFFFFFFF
  payload[11] = 0xFF;
  payload[12] = 0xFF;
  payload[13] = 0xFF;
  try {
    decode_rejected(payload);
    ADD_FAILURE() << "hostile length decoded";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.fault(), WireFault::kBadPayload);
  }
}

TEST(ServiceProtocol, CorruptFlowSpecInsideSubmitRejected) {
  // Damage the embedded spec blob (its codec version halfword) — the
  // frame/CRC layer is bypassed, so the payload decoder must catch it.
  const SubmitMsg m = sample_submit();
  auto payload = encode_submit(m);
  // The spec blob is the final field; its first two bytes are the codec
  // version. Locate it from the end: blob = last (4 + spec_len) bytes.
  const auto spec_len = opc::encode_flow_spec(m.spec).size();
  const std::size_t version_at = payload.size() - spec_len;
  payload[version_at] = 0xEE;
  payload[version_at + 1] = 0xEE;
  EXPECT_THROW(decode_submit(payload), ProtocolError);
}

TEST(ServiceProtocol, WireFaultNamesAreStable) {
  EXPECT_STREQ(to_string(WireFault::kTruncated), "truncated");
  EXPECT_STREQ(to_string(WireFault::kBadCrc), "bad-crc");
  EXPECT_STREQ(to_string(RejectReason::kQueueFull), "queue-full");
  EXPECT_STREQ(to_string(RejectReason::kDraining), "draining");
}

}  // namespace
}  // namespace opckit::svc

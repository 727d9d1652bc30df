#include "trace/framing.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string_view>

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace sent::trace {

namespace {

constexpr std::size_t kHeaderBytes = 19;
constexpr std::size_t kTrailerBytes = 8;

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) out.push_back((v >> (8 * i)) & 0xff);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xff);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xff);
}

/// Bounds-checked little-endian reader; every read either succeeds or
/// leaves the cursor failed. No pointer arithmetic past the span.
struct Cursor {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;
  bool failed = false;

  std::size_t remaining() const { return bytes.size() - pos; }
  bool has(std::size_t n) const { return !failed && remaining() >= n; }

  /// One fixed-width little-endian field. On a little-endian host the wire
  /// order is the host order, so the field is a single load.
  template <typename T>
  T read() {
    if (!has(sizeof(T))) {
      failed = true;
      return 0;
    }
    const std::uint8_t* p = bytes.data() + pos;
    pos += sizeof(T);
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, p, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i)
        v = static_cast<T>(v | static_cast<T>(p[i]) << (8 * i));
    }
    return v;
  }

  std::uint8_t u8() { return read<std::uint8_t>(); }
  std::uint16_t u16() { return read<std::uint16_t>(); }
  std::uint32_t u32() { return read<std::uint32_t>(); }
  std::uint64_t u64() { return read<std::uint64_t>(); }
};

/// Wire size of the smallest Events record: a bug marker with an empty kind
/// string (kind code, u64 cycle, u16 length).
constexpr std::size_t kMinEventRecordBytes = 1 + 8 + 2;

void encode_payload(const Frame& frame, std::vector<std::uint8_t>& out) {
  switch (frame.type) {
    case FrameType::Hello:
      put_u32(out, frame.node_id);
      put_u32(out, frame.instr_table_size);
      put_u64(out, frame.instr_table_hash);
      break;
    case FrameType::Events:
      put_u32(out, static_cast<std::uint32_t>(frame.events.size()));
      for (const FrameEvent& ev : frame.events) {
        put_u8(out, static_cast<std::uint8_t>(ev.kind));
        switch (ev.kind) {
          case FrameEvent::Kind::Lifecycle:
            put_u8(out, static_cast<std::uint8_t>(ev.item.kind));
            put_u64(out, ev.item.cycle);
            put_u32(out, ev.item.arg);
            put_u64(out, ev.item.end_cycle);
            break;
          case FrameEvent::Kind::Instr:
            put_u64(out, ev.instr.cycle);
            put_u32(out, ev.instr.instr);
            break;
          case FrameEvent::Kind::Bug: {
            put_u64(out, ev.bug.cycle);
            SENT_REQUIRE_MSG(ev.bug.kind.size() <= 0xffff,
                             "bug kind string too long to frame");
            put_u16(out, static_cast<std::uint16_t>(ev.bug.kind.size()));
            for (char c : ev.bug.kind)
              put_u8(out, static_cast<std::uint8_t>(c));
            break;
          }
        }
      }
      break;
    case FrameType::End:
      put_u64(out, frame.run_end);
      break;
  }
}

bool decode_payload(Cursor& c, Frame& frame, std::string& error) {
  switch (frame.type) {
    case FrameType::Hello:
      frame.node_id = c.u32();
      frame.instr_table_size = c.u32();
      frame.instr_table_hash = c.u64();
      if (c.failed) error = "truncated Hello payload";
      return !c.failed;
    case FrameType::Events: {
      std::uint32_t count = c.u32();
      // Reserve no more records than the remaining bytes could hold, so a
      // corrupt count costs O(actual bytes), not O(claimed records), before
      // it is rejected.
      frame.events.reserve(std::min<std::size_t>(
          count, c.remaining() / kMinEventRecordBytes));
      for (std::uint32_t i = 0; i < count; ++i) {
        std::uint8_t kind = c.u8();
        if (kind > static_cast<std::uint8_t>(FrameEvent::Kind::Bug)) {
          error = "unknown event kind code " + std::to_string(kind);
          return false;
        }
        FrameEvent& ev = frame.events.emplace_back();
        ev.kind = static_cast<FrameEvent::Kind>(kind);
        switch (ev.kind) {
          case FrameEvent::Kind::Lifecycle: {
            std::uint8_t lk = c.u8();
            if (lk > static_cast<std::uint8_t>(LifecycleKind::Reti)) {
              error = "unknown lifecycle kind code " + std::to_string(lk);
              return false;
            }
            ev.item.kind = static_cast<LifecycleKind>(lk);
            ev.item.cycle = c.u64();
            ev.item.arg = c.u32();
            ev.item.end_cycle = c.u64();
            if (!c.failed && ev.item.kind == LifecycleKind::RunTask &&
                ev.item.end_cycle != 0 &&
                ev.item.end_cycle < ev.item.cycle) {
              error = "runTask record ends before it starts";
              return false;
            }
            break;
          }
          case FrameEvent::Kind::Instr:
            ev.instr.cycle = c.u64();
            ev.instr.instr = c.u32();
            break;
          case FrameEvent::Kind::Bug: {
            ev.bug.cycle = c.u64();
            std::uint16_t len = c.u16();
            if (!c.has(len)) {
              error = "truncated bug-marker string";
              return false;
            }
            ev.bug.kind.assign(
                reinterpret_cast<const char*>(c.bytes.data() + c.pos), len);
            c.pos += len;
            break;
          }
        }
        if (c.failed) {
          error = "truncated event record";
          return false;
        }
      }
      return true;
    }
    case FrameType::End:
      frame.run_end = c.u64();
      if (c.failed) error = "truncated End payload";
      return !c.failed;
  }
  error = "unknown frame type";
  return false;
}

std::uint64_t checksum_of(std::span<const std::uint8_t> bytes) {
  return util::fnv1a64(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  std::vector<std::uint8_t> out;
  put_u8(out, kFrameMagic);
  put_u8(out, kFrameVersion);
  put_u8(out, static_cast<std::uint8_t>(frame.type));
  put_u32(out, frame.device);
  put_u64(out, frame.seq);
  put_u32(out, 0);  // payload length patched below
  encode_payload(frame, out);
  const auto payload_len =
      static_cast<std::uint32_t>(out.size() - kHeaderBytes);
  for (int i = 0; i < 4; ++i)
    out[15 + i] = (payload_len >> (8 * i)) & 0xff;
  put_u64(out, checksum_of({out.data(), out.size()}));
  return out;
}

FrameDecodeResult decode_frame(std::span<const std::uint8_t> bytes) {
  FrameDecodeResult result;
  if (bytes.size() < kHeaderBytes + kTrailerBytes) {
    result.error = "frame too short (" + std::to_string(bytes.size()) +
                   " bytes)";
    return result;
  }
  Cursor c{bytes};
  std::uint8_t magic = c.u8();
  std::uint8_t version = c.u8();
  std::uint8_t type = c.u8();
  result.frame.device = c.u32();
  result.frame.seq = c.u64();
  std::uint32_t payload_len = c.u32();
  if (magic != kFrameMagic) {
    result.error = "bad magic byte";
    return result;
  }
  if (version != kFrameVersion) {
    result.error = "unsupported wire version " + std::to_string(version);
    return result;
  }
  if (payload_len != bytes.size() - kHeaderBytes - kTrailerBytes) {
    result.error = "payload length mismatch";
    return result;
  }
  const std::size_t body = kHeaderBytes + payload_len;
  Cursor trailer{bytes, body};
  std::uint64_t stored = trailer.u64();
  std::uint64_t computed = checksum_of(bytes.subspan(0, body));
  if (stored != computed) {
    result.error = "checksum mismatch";
    return result;
  }
  if (type < static_cast<std::uint8_t>(FrameType::Hello) ||
      type > static_cast<std::uint8_t>(FrameType::End)) {
    result.error = "unknown frame type " + std::to_string(type);
    return result;
  }
  result.frame.type = static_cast<FrameType>(type);
  Cursor payload{bytes.subspan(0, body), kHeaderBytes};
  if (!decode_payload(payload, result.frame, result.error)) {
    result.frame.events.clear();
    return result;
  }
  if (payload.pos != body) {
    result.error = "trailing bytes in payload";
    result.frame.events.clear();
    return result;
  }
  result.ok = true;
  return result;
}

std::uint64_t instr_table_fingerprint(const std::vector<InstrMeta>& table) {
  // FNV-1a64 over each row's code object, NUL, name, NUL and the cycle
  // cost as four little-endian bytes, fed row by row with no scratch copy.
  std::uint64_t h = util::kFnv1a64Basis;
  const char nul = '\0';
  for (const InstrMeta& meta : table) {
    h = util::fnv1a64(meta.code_object, h);
    h = util::fnv1a64({&nul, 1}, h);
    h = util::fnv1a64(meta.name, h);
    h = util::fnv1a64({&nul, 1}, h);
    char cycles[4];
    for (int i = 0; i < 4; ++i)
      cycles[i] = static_cast<char>((meta.cycles >> (8 * i)) & 0xff);
    h = util::fnv1a64({cycles, 4}, h);
  }
  return h;
}

std::vector<std::vector<std::uint8_t>> encode_trace(
    const NodeTrace& trace, std::uint32_t device,
    std::size_t events_per_frame) {
  SENT_REQUIRE(events_per_frame >= 1);
  std::vector<std::vector<std::uint8_t>> frames;
  std::uint64_t seq = 0;

  Frame hello;
  hello.type = FrameType::Hello;
  hello.device = device;
  hello.seq = seq++;
  hello.node_id = trace.node_id;
  hello.instr_table_size =
      static_cast<std::uint32_t>(trace.instr_table.size());
  hello.instr_table_hash = instr_table_fingerprint(trace.instr_table);
  frames.push_back(encode_frame(hello));

  // Three-way merge in cycle order; each source stream is already
  // chronological. Ties deliver lifecycle items first, then instructions,
  // then bug markers, so an interval-opening int(n) precedes the work
  // executed at the same cycle.
  std::size_t li = 0, xi = 0, bi = 0;
  Frame events;
  events.type = FrameType::Events;
  events.device = device;
  auto flush = [&]() {
    if (events.events.empty()) return;
    events.seq = seq++;
    frames.push_back(encode_frame(events));
    events.events.clear();
  };
  while (li < trace.lifecycle.size() || xi < trace.instrs.size() ||
         bi < trace.bugs.size()) {
    FrameEvent ev;
    const bool has_l = li < trace.lifecycle.size();
    const bool has_x = xi < trace.instrs.size();
    const bool has_b = bi < trace.bugs.size();
    const sim::Cycle lc = has_l ? trace.lifecycle[li].cycle : 0;
    const sim::Cycle xc = has_x ? trace.instrs[xi].cycle : 0;
    const sim::Cycle bc = has_b ? trace.bugs[bi].cycle : 0;
    if (has_l && (!has_x || lc <= xc) && (!has_b || lc <= bc)) {
      ev.kind = FrameEvent::Kind::Lifecycle;
      ev.item = trace.lifecycle[li++];
    } else if (has_x && (!has_b || xc <= bc)) {
      ev.kind = FrameEvent::Kind::Instr;
      ev.instr = trace.instrs[xi++];
    } else {
      ev.kind = FrameEvent::Kind::Bug;
      ev.bug = trace.bugs[bi++];
    }
    events.events.push_back(std::move(ev));
    if (events.events.size() >= events_per_frame) flush();
  }
  flush();

  Frame end;
  end.type = FrameType::End;
  end.device = device;
  end.seq = seq++;
  end.run_end = trace.run_end;
  frames.push_back(encode_frame(end));
  return frames;
}

}  // namespace sent::trace

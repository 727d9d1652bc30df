// Trace (de)serialization.
//
// The real Sentomist splits into a front end (an Avrora monitor that
// records the run) and a back end (offline analysis). This module gives
// the same split: save_trace writes a versioned, line-oriented text format
// a human can inspect; load_trace restores it exactly. The instruction
// stream is delta-encoded on the cycle column, which keeps long traces
// compact without sacrificing greppability.
//
// There is one writer and one parser. The writer appends the whole file
// into a single string with std::to_chars; the parser walks a string_view
// with a cursor and a line counter and reads numbers with std::from_chars,
// accepting exactly what std::stoull would (leading C-locale whitespace,
// an optional sign with negative wrap-around, base 10, whole field). The
// stream and file entry points are thin wrappers that move whole buffers.
// tests/trace_codec_test.cpp holds both to the original iostream codec's
// bytes and results.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "trace/recorder.hpp"
#include "util/assert.hpp"

namespace sent::trace {

/// Current format version, written in the header line.
inline constexpr int kTraceFormatVersion = 1;

/// The serialized form of `trace`, as one string.
std::string save_trace(const NodeTrace& trace);
/// Writes save_trace(trace) to `out` in a single write.
void save_trace(const NodeTrace& trace, std::ostream& out);

/// Parses a whole serialized trace. Bytes after the end marker are ignored.
NodeTrace load_trace(std::string_view text);
/// Reads `in` to end of stream, then parses it as above.
NodeTrace load_trace(std::istream& in);

/// File-path convenience wrappers. Throw util::PreconditionError when the
/// file cannot be opened and MalformedTraceFile on parse errors.
void save_trace_file(const NodeTrace& trace, const std::string& path);
NodeTrace load_trace_file(const std::string& path);

/// Thrown by load_trace on any structural problem in the input. The message
/// names the 1-based line the parse failed on ("line N: ...").
class MalformedTraceFile : public util::PreconditionError {
 public:
  using util::PreconditionError::PreconditionError;
};

/// Result of a lenient load: everything parsed up to the first structural
/// problem. `trace` is the salvaged prefix with run_end clamped so no
/// surviving record lies beyond it (safe to hand to the anatomizer, which
/// closes dangling intervals at run_end). When `complete` is false,
/// `error_line`/`error` describe the first problem, mirroring what the
/// strict loader would have thrown.
struct LenientLoadResult {
  NodeTrace trace;
  bool complete = true;
  std::size_t error_line = 0;  ///< 1-based; 0 when complete
  std::string error;
};

/// Salvage the valid prefix of a (possibly truncated or corrupted) trace.
/// Never throws MalformedTraceFile, whatever the bytes (hostile section
/// counts included); a trace that fails at the very first line yields an
/// empty trace with complete=false.
LenientLoadResult load_trace_lenient(std::string_view text);
/// Reads `in` to end of stream, then salvages it as above.
LenientLoadResult load_trace_lenient(std::istream& in);
LenientLoadResult load_trace_file_lenient(const std::string& path);

}  // namespace sent::trace

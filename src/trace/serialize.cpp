#include "trace/serialize.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <fstream>
#include <type_traits>

#include "util/assert.hpp"

namespace sent::trace {

namespace {

constexpr std::string_view kHeader = "SENTOMIST-TRACE v1";
static_assert(kTraceFormatVersion == 1, "kHeader spells the format version");

char kind_code(LifecycleKind kind) {
  switch (kind) {
    case LifecycleKind::PostTask: return 'P';
    case LifecycleKind::RunTask: return 'R';
    case LifecycleKind::Int: return 'I';
    case LifecycleKind::Reti: return 'X';
  }
  return '?';
}

// ---- writer ---------------------------------------------------------------

/// Builds the file in a stack buffer that spills into the output string
/// when full: a field costs a bounds check and a few stores, and the
/// string grows once per buffer instead of once per field.
class Writer {
 public:
  Writer& operator<<(std::string_view s) {
    if (s.size() > room()) {
      spill();
      if (s.size() > sizeof buf_) {
        out_.append(s);
        return *this;
      }
    }
    std::memcpy(buf_ + used_, s.data(), s.size());
    used_ += s.size();
    return *this;
  }

  Writer& operator<<(char c) {
    if (room() == 0) spill();
    buf_[used_++] = c;
    return *this;
  }

  template <typename T>
    requires std::is_unsigned_v<T>
  Writer& operator<<(T v) {
    if (room() < kMaxDigits) spill();
    used_ = static_cast<std::size_t>(
        std::to_chars(buf_ + used_, buf_ + sizeof buf_, v).ptr - buf_);
    return *this;
  }

  std::string finish() {
    spill();
    return std::move(out_);
  }

 private:
  static constexpr std::size_t kMaxDigits = 20;  ///< of a uint64_t

  std::string out_;
  char buf_[4096];
  std::size_t used_ = 0;

  std::size_t room() const { return sizeof buf_ - used_; }

  void spill() {
    out_.append(buf_, used_);
    used_ = 0;
  }
};

// ---- parser ---------------------------------------------------------------

/// A row split at tabs. Only the first kMax fields are kept; `count` is the
/// row's true field count, so arity checks see every field.
struct Fields {
  static constexpr std::size_t kMax = 4;
  std::array<std::string_view, kMax> at;
  std::size_t count = 0;
};

// Fields within a line are tab-separated; names may contain spaces but
// never tabs (CodeBuilder mnemonics are identifiers in practice).
Fields split_tabs(std::string_view line) {
  Fields fields;
  for (;;) {
    const std::size_t tab = line.find('\t');
    if (fields.count < Fields::kMax) fields.at[fields.count] = line.substr(0, tab);
    ++fields.count;
    if (tab == std::string_view::npos) return fields;
    line.remove_prefix(tab + 1);
  }
}

/// isspace() in the C locale.
bool is_c_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

// Incremental parser: fills `trace` record by record so that when a throw
// interrupts it, everything already parsed is a usable prefix (the lenient
// loader relies on this). Tracks the 1-based line number for error messages.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::size_t line_no() const { return line_no_; }

  void parse(NodeTrace& trace) {
    {
      const std::string_view header = read_line("header");
      if (header != kHeader)
        malformed("bad header: " + std::string(header));
    }

    trace.node_id = static_cast<std::uint32_t>(expect_section("node"));
    trace.run_end = expect_section("run_end");

    const std::uint64_t n_table = expect_section("instr_table");
    reserve(trace.instr_table, n_table);
    for (std::uint64_t i = 0; i < n_table; ++i) {
      const Fields f = split_tabs(read_line("instr_table"));
      if (f.count != 3) malformed("instr_table row arity");
      const auto cycles =
          static_cast<std::uint32_t>(to_u64(f.at[2], "instr cycles"));
      trace.instr_table.push_back(
          {std::string(f.at[0]), std::string(f.at[1]), cycles});
    }

    const std::uint64_t n_items = expect_section("lifecycle");
    reserve(trace.lifecycle, n_items);
    for (std::uint64_t i = 0; i < n_items; ++i) {
      const Fields f = split_tabs(read_line("lifecycle"));
      if (f.count < 3 || f.at[0].size() != 1) malformed("lifecycle row");
      LifecycleItem item{};
      switch (f.at[0][0]) {
        case 'P': item.kind = LifecycleKind::PostTask; break;
        case 'R': item.kind = LifecycleKind::RunTask; break;
        case 'I': item.kind = LifecycleKind::Int; break;
        case 'X': item.kind = LifecycleKind::Reti; break;
        default: malformed("lifecycle kind " + std::string(f.at[0]));
      }
      item.cycle = to_u64(f.at[1], "lifecycle cycle");
      item.arg = static_cast<std::uint32_t>(to_u64(f.at[2], "lifecycle arg"));
      if (item.kind == LifecycleKind::RunTask) {
        if (f.count != 4) malformed("runTask row needs end cycle");
        item.end_cycle = to_u64(f.at[3], "runTask end");
        if (item.end_cycle < item.cycle)
          malformed("runTask ends before it starts");
      } else if (f.count != 3) {
        malformed("lifecycle row arity");
      }
      trace.lifecycle.push_back(item);
    }

    const std::uint64_t n_instrs = expect_section("instrs");
    reserve(trace.instrs, n_instrs);
    sim::Cycle prev = 0;
    for (std::uint64_t i = 0; i < n_instrs; ++i) {
      std::uint64_t delta = 0, raw_id = 0;
      if (!plain_pair(delta, raw_id)) {
        const Fields f = split_tabs(read_line("instrs"));
        if (f.count != 2) malformed("instr row arity");
        delta = to_u64(f.at[0], "instr delta");
        raw_id = to_u64(f.at[1], "instr id");
      }
      prev += delta;
      const auto id = static_cast<InstrId>(raw_id);
      if (!trace.instr_table.empty() && id >= trace.instr_table.size())
        malformed("instruction id out of table range");
      trace.instrs.push_back({prev, id});
    }

    const std::uint64_t n_bugs = expect_section("bugs");
    reserve(trace.bugs, n_bugs);
    for (std::uint64_t i = 0; i < n_bugs; ++i) {
      const Fields f = split_tabs(read_line("bugs"));
      if (f.count != 2) malformed("bug row arity");
      trace.bugs.push_back({to_u64(f.at[0], "bug cycle"), std::string(f.at[1])});
    }

    if (read_line("trailer") != "end") malformed("missing end marker");
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;  ///< start of the next unread line
  std::size_t line_no_ = 0;

  [[noreturn]] void malformed(const std::string& what) const {
    throw MalformedTraceFile("malformed trace file: line " +
                             std::to_string(line_no_) + ": " + what);
  }

  /// A section's stated row count is untrusted: every row needs at least
  /// one byte of what is left, so never reserve beyond that.
  template <typename T>
  void reserve(std::vector<T>& rows, std::uint64_t stated) const {
    rows.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(stated, text_.size() - pos_)));
  }

  /// The next line without its '\n' (std::getline semantics: a final line
  /// without a newline still counts, an empty remainder is EOF).
  std::string_view read_line(const char* context) {
    ++line_no_;  // on EOF: the line that should have been there
    if (pos_ == text_.size()) malformed(std::string("EOF in ") + context);
    const char* begin = text_.data() + pos_;
    const std::size_t left = text_.size() - pos_;
    const auto* nl = static_cast<const char*>(std::memchr(begin, '\n', left));
    const std::size_t len = nl ? static_cast<std::size_t>(nl - begin) : left;
    pos_ += nl ? len + 1 : len;
    return {begin, len};
  }

  /// Fast path for the row shape the writer emits, "<digits>\t<digits>"
  /// with at most 19 digits each (no overflow possible): parses it, consumes
  /// the line and returns true. Anything else returns false and consumes
  /// nothing, leaving the row to the general path.
  bool plain_pair(std::uint64_t& a, std::uint64_t& b) {
    const char* p = text_.data() + pos_;
    const char* const end = text_.data() + text_.size();
    const char* q = digits(p, end, a);
    if (q == nullptr || q == end || *q != '\t') return false;
    q = digits(q + 1, end, b);
    if (q == nullptr || (q != end && *q != '\n')) return false;
    ++line_no_;
    pos_ = static_cast<std::size_t>(q - text_.data()) + (q != end ? 1 : 0);
    return true;
  }

  /// 1 to 19 decimal digits at p: their value, and the end of the run.
  static const char* digits(const char* p, const char* end, std::uint64_t& v) {
    const char* const start = p;
    v = 0;
    for (; p != end && static_cast<unsigned char>(*p - '0') < 10; ++p)
      v = v * 10 + static_cast<unsigned char>(*p - '0');
    const auto n = p - start;
    return n >= 1 && n <= 19 ? p : nullptr;
  }

  /// std::stoull(s, &pos) with pos == s.size() required, without the
  /// allocation or the exception.
  std::uint64_t to_u64(std::string_view s, const char* context) const {
    const char* p = s.data();
    const char* end = p + s.size();
    while (p != end && is_c_space(*p)) ++p;
    const bool negative = p != end && *p == '-';
    if (p != end && (*p == '+' || *p == '-')) ++p;
    std::uint64_t v = 0;
    const auto [stop, ec] = std::from_chars(p, end, v);
    if (ec != std::errc{} || stop != end)
      malformed(std::string("bad number in ") + context);
    return negative ? 0 - v : v;
  }

  std::uint64_t expect_section(const char* name) {
    const std::string_view line = read_line(name);
    const auto space = line.find(' ');
    if (space == std::string_view::npos || line.substr(0, space) != name)
      malformed(std::string("expected section ") + name +
                ", got: " + std::string(line));
    return to_u64(line.substr(space + 1), name);
  }
};

std::string read_all(std::istream& in) {
  std::string text;
  char chunk[1 << 14];
  while (in.read(chunk, sizeof chunk), in.gcount() > 0)
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  return text;
}

}  // namespace

std::string save_trace(const NodeTrace& trace) {
  Writer out;
  out << kHeader << '\n';
  out << "node " << trace.node_id << '\n';
  out << "run_end " << trace.run_end << '\n';

  out << "instr_table " << trace.instr_table.size() << '\n';
  for (const auto& meta : trace.instr_table)
    out << meta.code_object << '\t' << meta.name << '\t' << meta.cycles
        << '\n';

  out << "lifecycle " << trace.lifecycle.size() << '\n';
  for (const auto& item : trace.lifecycle) {
    out << kind_code(item.kind) << '\t' << item.cycle << '\t' << item.arg;
    if (item.kind == LifecycleKind::RunTask) out << '\t' << item.end_cycle;
    out << '\n';
  }

  out << "instrs " << trace.instrs.size() << '\n';
  sim::Cycle prev = 0;
  for (const auto& e : trace.instrs) {
    out << (e.cycle - prev) << '\t' << e.instr << '\n';
    prev = e.cycle;
  }

  out << "bugs " << trace.bugs.size() << '\n';
  for (const auto& bug : trace.bugs) out << bug.cycle << '\t' << bug.kind << '\n';

  out << "end\n";
  return out.finish();
}

void save_trace(const NodeTrace& trace, std::ostream& out) {
  const std::string text = save_trace(trace);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

NodeTrace load_trace(std::string_view text) {
  NodeTrace trace;
  Parser(text).parse(trace);
  return trace;
}

NodeTrace load_trace(std::istream& in) { return load_trace(read_all(in)); }

LenientLoadResult load_trace_lenient(std::string_view text) {
  LenientLoadResult result;
  Parser parser(text);
  try {
    parser.parse(result.trace);
  } catch (const MalformedTraceFile& e) {
    result.complete = false;
    result.error_line = parser.line_no();
    result.error = e.what();
  }
  // Clamp run_end over every surviving record so downstream consumers
  // (anatomizer closes dangling intervals at run_end) never see a record
  // beyond the end of the run. Applied even to files that parsed to the end
  // marker: a corrupted run_end digit yields a "complete" file whose stated
  // run_end understates its own records, and a faithful trace is unchanged.
  sim::Cycle max_cycle = result.trace.run_end;
  for (const auto& item : result.trace.lifecycle)
    max_cycle = std::max({max_cycle, item.cycle, item.end_cycle});
  for (const auto& e : result.trace.instrs)
    max_cycle = std::max(max_cycle, e.cycle);
  for (const auto& bug : result.trace.bugs)
    max_cycle = std::max(max_cycle, bug.cycle);
  result.trace.run_end = max_cycle;
  return result;
}

LenientLoadResult load_trace_lenient(std::istream& in) {
  return load_trace_lenient(read_all(in));
}

void save_trace_file(const NodeTrace& trace, const std::string& path) {
  std::ofstream out(path);
  SENT_REQUIRE_MSG(out.good(), "cannot open " << path << " for writing");
  save_trace(trace, out);
  SENT_REQUIRE_MSG(out.good(), "write to " << path << " failed");
}

NodeTrace load_trace_file(const std::string& path) {
  std::ifstream in(path);
  SENT_REQUIRE_MSG(in.good(), "cannot open " << path);
  return load_trace(in);
}

LenientLoadResult load_trace_file_lenient(const std::string& path) {
  std::ifstream in(path);
  SENT_REQUIRE_MSG(in.good(), "cannot open " << path);
  return load_trace_lenient(in);
}

}  // namespace sent::trace

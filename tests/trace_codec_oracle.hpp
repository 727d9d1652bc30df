// Test-only oracle for the text trace codec (trace/serialize).
//
// This is the original iostream writer and getline/std::stoull parser the
// production codec replaced, kept verbatim as the reference the
// differential battery (trace_codec_test.cpp) compares against: the
// production writer must emit the same bytes, and the production loaders
// must return the same trace, completeness, error line and error text for
// any input. The one edit is that the section reserves are gone: they threw
// on hostile row counts, and capacity is not part of any result.
#pragma once

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/serialize.hpp"

namespace sent::trace::oracle {

namespace detail {

inline constexpr const char* kMagic = "SENTOMIST-TRACE";

inline std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (;;) {
    std::size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

inline char kind_code(LifecycleKind kind) {
  switch (kind) {
    case LifecycleKind::PostTask: return 'P';
    case LifecycleKind::RunTask: return 'R';
    case LifecycleKind::Int: return 'I';
    case LifecycleKind::Reti: return 'X';
  }
  return '?';
}

class Parser {
 public:
  explicit Parser(std::istream& in) : in_(in) {}

  std::size_t line_no() const { return line_no_; }

  void parse(NodeTrace& trace) {
    {
      std::string header = read_line("header");
      std::ostringstream expected;
      expected << kMagic << " v" << kTraceFormatVersion;
      if (header != expected.str()) malformed("bad header: " + header);
    }

    trace.node_id = static_cast<std::uint32_t>(expect_section("node"));
    trace.run_end = expect_section("run_end");

    std::uint64_t n_table = expect_section("instr_table");
    for (std::uint64_t i = 0; i < n_table; ++i) {
      auto fields = split_tabs(read_line("instr_table"));
      if (fields.size() != 3) malformed("instr_table row arity");
      trace.instr_table.push_back(
          {fields[0], fields[1],
           static_cast<std::uint32_t>(to_u64(fields[2], "instr cycles"))});
    }

    std::uint64_t n_items = expect_section("lifecycle");
    for (std::uint64_t i = 0; i < n_items; ++i) {
      auto fields = split_tabs(read_line("lifecycle"));
      if (fields.size() < 3 || fields[0].size() != 1)
        malformed("lifecycle row");
      LifecycleItem item;
      switch (fields[0][0]) {
        case 'P': item.kind = LifecycleKind::PostTask; break;
        case 'R': item.kind = LifecycleKind::RunTask; break;
        case 'I': item.kind = LifecycleKind::Int; break;
        case 'X': item.kind = LifecycleKind::Reti; break;
        default: malformed("lifecycle kind " + fields[0]);
      }
      item.cycle = to_u64(fields[1], "lifecycle cycle");
      item.arg =
          static_cast<std::uint32_t>(to_u64(fields[2], "lifecycle arg"));
      if (item.kind == LifecycleKind::RunTask) {
        if (fields.size() != 4) malformed("runTask row needs end cycle");
        item.end_cycle = to_u64(fields[3], "runTask end");
        if (item.end_cycle < item.cycle)
          malformed("runTask ends before it starts");
      } else if (fields.size() != 3) {
        malformed("lifecycle row arity");
      }
      trace.lifecycle.push_back(item);
    }

    std::uint64_t n_instrs = expect_section("instrs");
    sim::Cycle prev = 0;
    for (std::uint64_t i = 0; i < n_instrs; ++i) {
      auto fields = split_tabs(read_line("instrs"));
      if (fields.size() != 2) malformed("instr row arity");
      prev += to_u64(fields[0], "instr delta");
      auto id = static_cast<InstrId>(to_u64(fields[1], "instr id"));
      if (!trace.instr_table.empty() && id >= trace.instr_table.size())
        malformed("instruction id out of table range");
      trace.instrs.push_back({prev, id});
    }

    std::uint64_t n_bugs = expect_section("bugs");
    for (std::uint64_t i = 0; i < n_bugs; ++i) {
      auto fields = split_tabs(read_line("bugs"));
      if (fields.size() != 2) malformed("bug row arity");
      trace.bugs.push_back({to_u64(fields[0], "bug cycle"), fields[1]});
    }

    if (read_line("trailer") != "end") malformed("missing end marker");
  }

 private:
  std::istream& in_;
  std::size_t line_no_ = 0;

  [[noreturn]] void malformed(const std::string& what) const {
    throw MalformedTraceFile("malformed trace file: line " +
                             std::to_string(line_no_) + ": " + what);
  }

  std::string read_line(const char* context) {
    std::string line;
    if (!std::getline(in_, line)) {
      ++line_no_;  // the line that should have been there
      malformed(std::string("EOF in ") + context);
    }
    ++line_no_;
    return line;
  }

  std::uint64_t to_u64(const std::string& s, const char* context) const {
    try {
      std::size_t pos = 0;
      std::uint64_t v = std::stoull(s, &pos);
      if (pos != s.size())
        malformed(std::string("bad number in ") + context);
      return v;
    } catch (const std::logic_error&) {
      malformed(std::string("bad number in ") + context);
    }
  }

  std::uint64_t expect_section(const char* name) {
    std::string line = read_line(name);
    auto space = line.find(' ');
    if (space == std::string::npos || line.substr(0, space) != name)
      malformed(std::string("expected section ") + name + ", got: " + line);
    return to_u64(line.substr(space + 1), name);
  }
};

}  // namespace detail

inline void save_trace(const NodeTrace& trace, std::ostream& out) {
  out << detail::kMagic << " v" << kTraceFormatVersion << '\n';
  out << "node " << trace.node_id << '\n';
  out << "run_end " << trace.run_end << '\n';

  out << "instr_table " << trace.instr_table.size() << '\n';
  for (const auto& meta : trace.instr_table)
    out << meta.code_object << '\t' << meta.name << '\t' << meta.cycles
        << '\n';

  out << "lifecycle " << trace.lifecycle.size() << '\n';
  for (const auto& item : trace.lifecycle) {
    out << detail::kind_code(item.kind) << '\t' << item.cycle << '\t'
        << item.arg;
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
  for (const auto& bug : trace.bugs)
    out << bug.cycle << '\t' << bug.kind << '\n';

  out << "end\n";
}

inline NodeTrace load_trace(std::istream& in) {
  NodeTrace trace;
  detail::Parser(in).parse(trace);
  return trace;
}

inline LenientLoadResult load_trace_lenient(std::istream& in) {
  LenientLoadResult result;
  detail::Parser parser(in);
  try {
    parser.parse(result.trace);
  } catch (const MalformedTraceFile& e) {
    result.complete = false;
    result.error_line = parser.line_no();
    result.error = e.what();
  }
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

}  // namespace sent::trace::oracle

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <vector>

#include "apps/scenarios.hpp"
#include "core/anatomizer.hpp"
#include "trace/serialize.hpp"
#include "util/rng.hpp"

namespace sent::trace {
namespace {

NodeTrace sample() {
  NodeTrace t;
  t.node_id = 7;
  t.run_end = 5000;
  t.instr_table = {{"handler", "a", 8}, {"task", "b", 12}};
  t.lifecycle = {{LifecycleKind::Int, 100, 5, 0},
                 {LifecycleKind::PostTask, 110, 0, 0},
                 {LifecycleKind::Reti, 120, 5, 0},
                 {LifecycleKind::RunTask, 130, 0, 180}};
  t.instrs = {{104, 0}, {140, 1}, {160, 1}};
  t.bugs = {{150, "data-pollution"}};
  return t;
}

bool traces_equal(const NodeTrace& a, const NodeTrace& b) {
  if (a.node_id != b.node_id || a.run_end != b.run_end) return false;
  if (a.instr_table.size() != b.instr_table.size()) return false;
  for (std::size_t i = 0; i < a.instr_table.size(); ++i) {
    if (a.instr_table[i].code_object != b.instr_table[i].code_object ||
        a.instr_table[i].name != b.instr_table[i].name ||
        a.instr_table[i].cycles != b.instr_table[i].cycles)
      return false;
  }
  if (a.lifecycle.size() != b.lifecycle.size()) return false;
  for (std::size_t i = 0; i < a.lifecycle.size(); ++i) {
    const auto& x = a.lifecycle[i];
    const auto& y = b.lifecycle[i];
    if (x.kind != y.kind || x.cycle != y.cycle || x.arg != y.arg)
      return false;
    if (x.kind == LifecycleKind::RunTask && x.end_cycle != y.end_cycle)
      return false;
  }
  if (a.instrs.size() != b.instrs.size()) return false;
  for (std::size_t i = 0; i < a.instrs.size(); ++i) {
    if (a.instrs[i].cycle != b.instrs[i].cycle ||
        a.instrs[i].instr != b.instrs[i].instr)
      return false;
  }
  if (a.bugs.size() != b.bugs.size()) return false;
  for (std::size_t i = 0; i < a.bugs.size(); ++i) {
    if (a.bugs[i].cycle != b.bugs[i].cycle ||
        a.bugs[i].kind != b.bugs[i].kind)
      return false;
  }
  return true;
}

TEST(Serialize, RoundTripSmall) {
  NodeTrace original = sample();
  std::stringstream buffer;
  save_trace(original, buffer);
  NodeTrace restored = load_trace(buffer);
  EXPECT_TRUE(traces_equal(original, restored));
}

TEST(Serialize, RoundTripEmptySections) {
  NodeTrace t;
  t.node_id = 1;
  t.run_end = 10;
  std::stringstream buffer;
  save_trace(t, buffer);
  NodeTrace restored = load_trace(buffer);
  EXPECT_TRUE(traces_equal(t, restored));
}

TEST(Serialize, RoundTripRealScenarioTrace) {
  apps::Case2Config config;
  config.seed = 3;
  config.run_seconds = 5.0;
  apps::Case2Result result = apps::run_case2(config);
  std::stringstream buffer;
  save_trace(result.relay_trace, buffer);
  NodeTrace restored = load_trace(buffer);
  EXPECT_TRUE(traces_equal(result.relay_trace, restored));
}

TEST(Serialize, FormatIsHumanReadable) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  std::string text = buffer.str();
  EXPECT_NE(text.find("SENTOMIST-TRACE v1"), std::string::npos);
  EXPECT_NE(text.find("node 7"), std::string::npos);
  EXPECT_NE(text.find("data-pollution"), std::string::npos);
  EXPECT_NE(text.find("\nend\n"), std::string::npos);
}

TEST(Serialize, InstrStreamIsDeltaEncoded) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  std::string text = buffer.str();
  // Cycles 104, 140, 160 encode as deltas 104, 36, 20.
  EXPECT_NE(text.find("104\t0"), std::string::npos);
  EXPECT_NE(text.find("36\t1"), std::string::npos);
  EXPECT_NE(text.find("20\t1"), std::string::npos);
}

TEST(Serialize, RejectsBadHeader) {
  std::stringstream buffer("GARBAGE v1\n");
  EXPECT_THROW(load_trace(buffer), MalformedTraceFile);
  std::stringstream v2("SENTOMIST-TRACE v2\n");
  EXPECT_THROW(load_trace(v2), MalformedTraceFile);
}

TEST(Serialize, RejectsTruncatedFile) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  std::string text = buffer.str();
  std::stringstream truncated(text.substr(0, text.size() / 2));
  EXPECT_THROW(load_trace(truncated), MalformedTraceFile);
}

TEST(Serialize, RejectsOutOfRangeInstructionId) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  std::string text = buffer.str();
  // Corrupt an instruction id beyond the 2-entry table.
  auto pos = text.find("104\t0");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "104\t9");
  std::stringstream corrupted(text);
  EXPECT_THROW(load_trace(corrupted), MalformedTraceFile);
}

TEST(Serialize, RejectsMissingEndMarker) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  std::string text = buffer.str();
  text.replace(text.rfind("end\n"), 4, "eof\n");
  std::stringstream corrupted(text);
  EXPECT_THROW(load_trace(corrupted), MalformedTraceFile);
}

TEST(Serialize, RejectsNonNumericFields) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  std::string text = buffer.str();
  auto pos = text.find("run_end 5000");
  text.replace(pos, 12, "run_end xyz5");
  std::stringstream corrupted(text);
  EXPECT_THROW(load_trace(corrupted), MalformedTraceFile);
}

TEST(Serialize, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "sentomist_roundtrip.trace";
  save_trace_file(sample(), path);
  NodeTrace restored = load_trace_file(path);
  EXPECT_TRUE(traces_equal(sample(), restored));
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_trace_file("/nonexistent/dir/x.trace"),
               util::PreconditionError);
  NodeTrace t = sample();
  EXPECT_THROW(save_trace_file(t, "/nonexistent/dir/x.trace"),
               util::PreconditionError);
}

// Loaded traces must be analyzable exactly like fresh ones.
TEST(Serialize, LoadedTraceAnalyzesIdentically) {
  apps::Case2Config config;
  config.seed = 3;
  config.run_seconds = 5.0;
  apps::Case2Result result = apps::run_case2(config);
  std::stringstream buffer;
  save_trace(result.relay_trace, buffer);
  NodeTrace restored = load_trace(buffer);

  ::sent::core::Anatomizer original(result.relay_trace);
  ::sent::core::Anatomizer reloaded(restored);
  auto a = original.intervals_for(os::irq::kRadioSpi);
  auto b = reloaded.intervals_for(os::irq::kRadioSpi);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start_cycle, b[i].start_cycle);
    EXPECT_EQ(a[i].end_cycle, b[i].end_cycle);
    EXPECT_EQ(a[i].task_count, b[i].task_count);
  }
}

// ---- error line numbers ---------------------------------------------------

// The strict loader names the 1-based line a parse fails on, so a corrupted
// multi-megabyte trace is debuggable.
TEST(SerializeErrors, MessagesCarryLineNumbers) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  std::string text = buffer.str();
  // sample() serializes: header(1) node(2) run_end(3) instr_table(4)
  // rows(5-6) lifecycle(7) rows(8-11) instrs(12) ...
  auto pos = text.find("run_end 5000");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 12, "run_end xyz5");
  std::stringstream corrupted(text);
  try {
    load_trace(corrupted);
    FAIL() << "expected MalformedTraceFile";
  } catch (const MalformedTraceFile& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(SerializeErrors, EofNamesTheMissingLine) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  // Keep exactly the first 5 lines (through the first instr_table row).
  std::string text = buffer.str();
  std::size_t cut = 0;
  for (int i = 0; i < 5; ++i) cut = text.find('\n', cut) + 1;
  std::stringstream truncated(text.substr(0, cut));
  try {
    load_trace(truncated);
    FAIL() << "expected MalformedTraceFile";
  } catch (const MalformedTraceFile& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("line 6"), std::string::npos) << what;
    EXPECT_NE(what.find("EOF"), std::string::npos) << what;
  }
}

// ---- lenient loading (DESIGN.md §9) ---------------------------------------

TEST(SerializeLenient, CompleteTraceLoadsUnchanged) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  LenientLoadResult result = load_trace_lenient(buffer);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.error_line, 0u);
  EXPECT_TRUE(traces_equal(sample(), result.trace));
}

// Truncation at every possible byte offset must salvage without throwing —
// the exhaustive corpus the chaos bench's truncation fault draws from.
TEST(SerializeLenient, SalvagesEveryTruncationPoint) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  const std::string text = buffer.str();
  // Dropping only the final newline of "end\n" loses no records — that one
  // cut still parses as complete.
  {
    std::stringstream almost(text.substr(0, text.size() - 1));
    EXPECT_TRUE(load_trace_lenient(almost).complete);
  }
  for (std::size_t cut = 0; cut + 1 < text.size(); ++cut) {
    std::stringstream truncated(text.substr(0, cut));
    LenientLoadResult result = load_trace_lenient(truncated);
    EXPECT_FALSE(result.complete) << "cut=" << cut;
    EXPECT_GT(result.error_line, 0u) << "cut=" << cut;
    EXPECT_FALSE(result.error.empty()) << "cut=" << cut;
    // The salvaged prefix never claims more than the full trace has.
    EXPECT_LE(result.trace.lifecycle.size(), sample().lifecycle.size());
    EXPECT_LE(result.trace.instrs.size(), sample().instrs.size());
    // run_end covers every surviving record (anatomizer safety).
    for (const auto& item : result.trace.lifecycle) {
      EXPECT_LE(item.cycle, result.trace.run_end);
      EXPECT_LE(item.end_cycle, result.trace.run_end);
    }
    for (const auto& e : result.trace.instrs)
      EXPECT_LE(e.cycle, result.trace.run_end);
  }
}

TEST(SerializeLenient, SalvagedPrefixKeepsParsedRecords) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  std::string text = buffer.str();
  // Cut just before the instrs section: lifecycle fully parsed.
  std::size_t pos = text.find("instrs ");
  ASSERT_NE(pos, std::string::npos);
  std::stringstream truncated(text.substr(0, pos));
  LenientLoadResult result = load_trace_lenient(truncated);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.trace.node_id, 7u);
  EXPECT_EQ(result.trace.lifecycle.size(), sample().lifecycle.size());
  EXPECT_TRUE(result.trace.instrs.empty());
}

// A corrupted byte mid-file salvages everything before the bad line.
TEST(SerializeLenient, SalvagesPrefixBeforeCorruption) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  std::string text = buffer.str();
  auto pos = text.find("104\t0");  // first instr row
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "1X4\t0");
  std::stringstream corrupted(text);
  LenientLoadResult result = load_trace_lenient(corrupted);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.trace.lifecycle.size(), sample().lifecycle.size());
  EXPECT_TRUE(result.trace.instrs.empty());
  EXPECT_NE(result.error.find("bad number"), std::string::npos);
}

// The salvage must be consumable by the anatomizer end to end: a real
// scenario trace truncated mid-stream still yields intervals (dangling
// handlers close at run_end).
TEST(SerializeLenient, SalvagedRealTraceIsAnalyzable) {
  apps::Case2Config config;
  config.seed = 3;
  config.run_seconds = 5.0;
  apps::Case2Result result = apps::run_case2(config);
  std::stringstream buffer;
  save_trace(result.relay_trace, buffer);
  const std::string text = buffer.str();
  std::stringstream truncated(text.substr(0, (text.size() * 3) / 4));
  LenientLoadResult salvaged = load_trace_lenient(truncated);
  EXPECT_FALSE(salvaged.complete);
  ::sent::core::Anatomizer anatomizer(salvaged.trace);
  auto intervals = anatomizer.intervals_for(os::irq::kRadioSpi);
  EXPECT_FALSE(intervals.empty());
}

// ---- hostile section counts -----------------------------------------------

// A section count is untrusted input: a count far beyond what the file can
// hold must end in an ordinary salvage, not escape the lenient loader as
// std::length_error or std::bad_alloc from a reserve sized by the count.
LenientLoadResult load_with_count(const std::string& section,
                                  const std::string& count) {
  std::string text = save_trace(sample());
  const std::size_t at = text.find("\n" + section + " ");
  EXPECT_NE(at, std::string::npos) << section;
  const std::size_t value = at + section.size() + 2;
  text.replace(value, text.find('\n', value) - value, count);
  LenientLoadResult result;
  EXPECT_NO_THROW(result = load_trace_lenient(text)) << section << " " << count;
  return result;
}

TEST(SerializeHostile, HugeInstrCountSalvages) {
  LenientLoadResult r = load_with_count("instrs", "18446744073709551615");
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.trace.lifecycle.size(), sample().lifecycle.size());
  EXPECT_EQ(r.trace.instrs.size(), sample().instrs.size());
}

TEST(SerializeHostile, HugeLifecycleCountSalvages) {
  LenientLoadResult r = load_with_count("lifecycle", "4000000000000");
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.trace.instr_table.size(), sample().instr_table.size());
  EXPECT_NE(r.error.find("lifecycle"), std::string::npos) << r.error;
}

TEST(SerializeHostile, HugeInstrTableCountSalvages) {
  LenientLoadResult r = load_with_count("instr_table", "99999999999");
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.trace.node_id, 7u);
  EXPECT_TRUE(r.trace.lifecycle.empty());
}

// ---- fuzz-ish robustness (seeded byte mutations) --------------------------

// Apply one random mutation drawn from the kinds a crashing node or a bad
// flash sector realistically produces: truncation, byte corruption, a
// spliced-in duplicate chunk, and whole-line deletion/duplication.
std::string mutate_once(std::string text, util::Rng& rng) {
  switch (rng.below(5)) {
    case 0:  // truncate at an arbitrary byte
      text.resize(static_cast<std::size_t>(rng.below(text.size() + 1)));
      break;
    case 1: {  // overwrite one byte with an arbitrary value
      if (text.empty()) break;
      text[rng.below(text.size())] = static_cast<char>(rng.below(256));
      break;
    }
    case 2: {  // splice a random chunk into a random position
      if (text.size() < 2) break;
      const std::size_t from = rng.below(text.size());
      const std::size_t len = rng.below(text.size() - from);
      const std::size_t to = rng.below(text.size());
      text.insert(to, text.substr(from, len));
      break;
    }
    case 3: {  // delete one whole line
      std::vector<std::size_t> starts{0};
      for (std::size_t i = 0; i + 1 < text.size(); ++i)
        if (text[i] == '\n') starts.push_back(i + 1);
      const std::size_t begin = starts[rng.below(starts.size())];
      std::size_t end = text.find('\n', begin);
      end = end == std::string::npos ? text.size() : end + 1;
      text.erase(begin, end - begin);
      break;
    }
    case 4: {  // duplicate one whole line in place
      std::vector<std::size_t> starts{0};
      for (std::size_t i = 0; i + 1 < text.size(); ++i)
        if (text[i] == '\n') starts.push_back(i + 1);
      const std::size_t begin = starts[rng.below(starts.size())];
      std::size_t end = text.find('\n', begin);
      end = end == std::string::npos ? text.size() : end + 1;
      text.insert(begin, text.substr(begin, end - begin));
      break;
    }
  }
  return text;
}

/// The robustness contract: whatever the bytes, the lenient loader returns
/// (no crash, no hang), its salvage satisfies the NodeTrace invariants, and
/// the salvage survives a strict save/load round-trip losslessly.
void check_salvage(const std::string& mutated, const std::string& context) {
  LenientLoadResult result;
  std::stringstream in(mutated);
  ASSERT_NO_THROW(result = load_trace_lenient(in)) << context;

  const NodeTrace& t = result.trace;
  for (const auto& item : t.lifecycle) {
    EXPECT_LE(item.cycle, t.run_end) << context;
    EXPECT_LE(item.end_cycle, t.run_end) << context;
  }
  for (const auto& e : t.instrs) {
    EXPECT_LE(e.cycle, t.run_end) << context;
    if (!t.instr_table.empty()) {
      EXPECT_LT(e.instr, t.instr_table.size()) << context;
    }
  }

  std::stringstream out;
  ASSERT_NO_THROW(save_trace(t, out)) << context;
  NodeTrace reloaded;
  ASSERT_NO_THROW(reloaded = load_trace(out)) << context;
  EXPECT_TRUE(traces_equal(t, reloaded)) << context;
}

TEST(SerializeFuzz, MutatedSmallTracesNeverCrashAndSalvageRoundTrips) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  const std::string pristine = buffer.str();
  util::Rng rng(0xF022ED);
  for (int round = 0; round < 400; ++round) {
    std::string text = pristine;
    const std::size_t mutations = 1 + rng.below(3);
    for (std::size_t m = 0; m < mutations; ++m) text = mutate_once(text, rng);
    check_salvage(text, "round " + std::to_string(round));
  }
}

TEST(SerializeFuzz, MutatedRealTraceNeverCrashesAndSalvageRoundTrips) {
  apps::Case2Config config;
  config.seed = 11;
  config.run_seconds = 2.0;
  apps::Case2Result result = apps::run_case2(config);
  std::stringstream buffer;
  save_trace(result.relay_trace, buffer);
  const std::string pristine = buffer.str();
  util::Rng rng(0xF022EE);
  for (int round = 0; round < 40; ++round) {
    std::string text = pristine;
    const std::size_t mutations = 1 + rng.below(3);
    for (std::size_t m = 0; m < mutations; ++m) text = mutate_once(text, rng);
    check_salvage(text, "real round " + std::to_string(round));
  }
}

// An undamaged trace run through the mutation harness with zero mutations
// stays complete — guards the harness itself against accidental damage.
TEST(SerializeFuzz, HarnessBaselineIsComplete) {
  std::stringstream buffer;
  save_trace(sample(), buffer);
  LenientLoadResult result = load_trace_lenient(buffer);
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(traces_equal(sample(), result.trace));
}

TEST(SerializeLenient, FileWrapper) {
  std::string path = ::testing::TempDir() + "sentomist_lenient.trace";
  save_trace_file(sample(), path);
  LenientLoadResult result = load_trace_file_lenient(path);
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(traces_equal(sample(), result.trace));
  std::remove(path.c_str());
  EXPECT_THROW(load_trace_file_lenient("/nonexistent/dir/x.trace"),
               util::PreconditionError);
}

}  // namespace
}  // namespace sent::trace

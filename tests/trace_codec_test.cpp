// The text trace codec against its oracle, and frozen trace bytes.
//
// Differential battery: the production writer and parser (trace/serialize)
// must agree with the original iostream/std::stoull codec kept in
// trace_codec_oracle.hpp — the same saved bytes, and for any input the same
// LenientLoadResult (trace, complete, error_line, error text) and the same
// strict outcome. Inputs: the Fig-5 traces, every truncation point of a
// case-II trace, perturb_trace_text over a seeded plan sweep, seeded
// arbitrary-byte mutations biased toward the bytes std::stoull treats
// specially, and a table of hand-written number fields.
//
// Golden digests: an FNV-1a digest of the save_trace bytes of every seeded
// Fig-5 trace, checked against tests/golden/trace_digests.txt, so any codec
// or simulator change that moves a trace byte fails here. Regenerate after
// an intentional change with:
//   SENT_UPDATE_GOLDEN=1 ./trace_codec_test --gtest_filter='TraceDigests.*'
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/scenarios.hpp"
#include "fault/injector.hpp"
#include "trace/serialize.hpp"
#include "trace_codec_oracle.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace sent::trace {
namespace {

// ---- fixtures ---------------------------------------------------------------

struct NamedTrace {
  std::string name;
  NodeTrace trace;
};

/// The driver-default Fig-5 runs (the configurations golden_fig5_test
/// reruns): every trace they record, named by case, run and node.
const std::vector<NamedTrace>& fig5_traces() {
  static const std::vector<NamedTrace> traces = [] {
    std::vector<NamedTrace> out;
    apps::Case1Config c1;
    c1.seed = 5;
    apps::Case1Result r1 = apps::run_case1(c1);
    for (std::size_t r = 0; r < r1.runs.size(); ++r)
      out.push_back({"fig5a.run" + std::to_string(r),
                     std::move(r1.runs[r].sensor_trace)});
    apps::Case2Config c2;
    c2.seed = 3;
    out.push_back({"fig5b.relay", apps::run_case2(c2).relay_trace});
    apps::Case3Config c3;
    c3.seed = 5;
    apps::Case3Result r3 = apps::run_case3(c3);
    for (std::size_t n = 0; n < r3.traces.size(); ++n)
      out.push_back({"fig5c.node" + std::to_string(n),
                     std::move(r3.traces[n])});
    return out;
  }();
  return traces;
}

/// A short case-II relay trace (every section non-empty) for the
/// quadratic batteries: every truncation point and the mutation sweeps.
const std::string& short_case2_text() {
  static const std::string text = [] {
    apps::Case2Config config;
    config.seed = 3;
    config.run_seconds = 1.0;
    return save_trace(apps::run_case2(config).relay_trace);
  }();
  return text;
}

std::string oracle_save(const NodeTrace& t) {
  std::ostringstream os;
  oracle::save_trace(t, os);
  return os.str();
}

// ---- comparison -------------------------------------------------------------

/// First field where two traces differ, or "" when they are identical in
/// every field (end_cycle included for every lifecycle kind).
std::string first_difference(const NodeTrace& a, const NodeTrace& b) {
  if (a.node_id != b.node_id) return "node_id";
  if (a.run_end != b.run_end) return "run_end";
  if (a.instr_table.size() != b.instr_table.size()) return "instr_table size";
  for (std::size_t i = 0; i < a.instr_table.size(); ++i) {
    const InstrMeta& x = a.instr_table[i];
    const InstrMeta& y = b.instr_table[i];
    if (x.code_object != y.code_object || x.name != y.name ||
        x.cycles != y.cycles)
      return "instr_table[" + std::to_string(i) + "]";
  }
  if (a.lifecycle.size() != b.lifecycle.size()) return "lifecycle size";
  for (std::size_t i = 0; i < a.lifecycle.size(); ++i) {
    const LifecycleItem& x = a.lifecycle[i];
    const LifecycleItem& y = b.lifecycle[i];
    if (x.kind != y.kind || x.cycle != y.cycle || x.arg != y.arg ||
        x.end_cycle != y.end_cycle)
      return "lifecycle[" + std::to_string(i) + "]";
  }
  if (a.instrs.size() != b.instrs.size()) return "instrs size";
  for (std::size_t i = 0; i < a.instrs.size(); ++i) {
    if (a.instrs[i].cycle != b.instrs[i].cycle ||
        a.instrs[i].instr != b.instrs[i].instr)
      return "instrs[" + std::to_string(i) + "]";
  }
  if (a.bugs.size() != b.bugs.size()) return "bugs size";
  for (std::size_t i = 0; i < a.bugs.size(); ++i) {
    if (a.bugs[i].cycle != b.bugs[i].cycle || a.bugs[i].kind != b.bugs[i].kind)
      return "bugs[" + std::to_string(i) + "]";
  }
  return "";
}

/// Strict-load outcome: the trace, or the exception text.
struct StrictResult {
  NodeTrace trace;
  std::string error;
};

template <typename Load>
StrictResult strict(Load load) {
  StrictResult r;
  try {
    r.trace = load();
  } catch (const MalformedTraceFile& e) {
    r.error = e.what();
  }
  return r;
}

/// Every observable of both loaders, production vs oracle, on `text`; the
/// salvaged trace must also save to the oracle's bytes.
::testing::AssertionResult agrees_with_oracle(const std::string& text) {
  std::istringstream oracle_in(text);
  const LenientLoadResult want = oracle::load_trace_lenient(oracle_in);
  const LenientLoadResult got = load_trace_lenient(text);
  if (got.complete != want.complete || got.error_line != want.error_line ||
      got.error != want.error)
    return ::testing::AssertionFailure()
           << "lenient status: got {" << got.complete << ", "
           << got.error_line << ", '" << got.error << "'} want {"
           << want.complete << ", " << want.error_line << ", '" << want.error
           << "'}";
  if (std::string d = first_difference(got.trace, want.trace); !d.empty())
    return ::testing::AssertionFailure() << "lenient trace differs at " << d;
  if (save_trace(got.trace) != oracle_save(want.trace))
    return ::testing::AssertionFailure() << "salvage saves different bytes";

  std::istringstream oracle_strict_in(text);
  const StrictResult want_strict =
      strict([&] { return oracle::load_trace(oracle_strict_in); });
  const StrictResult got_strict = strict([&] { return load_trace(text); });
  if (got_strict.error != want_strict.error)
    return ::testing::AssertionFailure()
           << "strict error: got '" << got_strict.error << "' want '"
           << want_strict.error << "'";
  if (std::string d = first_difference(got_strict.trace, want_strict.trace);
      !d.empty())
    return ::testing::AssertionFailure() << "strict trace differs at " << d;
  return ::testing::AssertionSuccess();
}

/// Stop a sweep at its first disagreement instead of flooding the log.
#define ASSERT_AGREES(text, context)                         \
  do {                                                       \
    ::testing::AssertionResult ok = agrees_with_oracle(text); \
    ASSERT_TRUE(ok) << context;                              \
  } while (0)

// ---- writer -----------------------------------------------------------------

TEST(TraceCodecOracle, SaveBytesMatchOnFig5Traces) {
  ASSERT_FALSE(fig5_traces().empty());
  for (const NamedTrace& t : fig5_traces()) {
    const std::string want = oracle_save(t.trace);
    EXPECT_EQ(save_trace(t.trace), want) << t.name;
    std::ostringstream streamed;
    save_trace(t.trace, streamed);
    EXPECT_EQ(streamed.str(), want) << t.name;
    ASSERT_AGREES(want, t.name);
  }
}

TEST(TraceCodecOracle, SaveBytesMatchOnExtremeValues) {
  NodeTrace t;
  t.node_id = UINT32_MAX;
  t.run_end = UINT64_MAX;
  t.instr_table = {{"", "", 0}, {"a b", "c\rd", UINT32_MAX}};
  t.lifecycle = {{LifecycleKind::RunTask, 0, UINT32_MAX, UINT64_MAX},
                 {LifecycleKind::Reti, UINT64_MAX, 0, 0},
                 {LifecycleKind::Int, 1, 2, 0},
                 {LifecycleKind::PostTask, 7, 3, 0}};
  // Decreasing cycles wrap the delta column around 2^64.
  t.instrs = {{UINT64_MAX, 1}, {0, 0}, {5, 1}};
  t.bugs = {{UINT64_MAX, ""}, {0, "kind with spaces"}};
  EXPECT_EQ(save_trace(t), oracle_save(t));
  ASSERT_AGREES(save_trace(t), "extreme values");
}

// ---- parser -----------------------------------------------------------------

TEST(TraceCodecOracle, EveryTruncationPointOfACaseIITrace) {
  const std::string& text = short_case2_text();
  for (std::size_t cut = 0; cut <= text.size(); ++cut)
    ASSERT_AGREES(text.substr(0, cut), "cut=" << cut);
}

TEST(TraceCodecOracle, PerturbTraceTextPlanSweep) {
  const std::string& text = short_case2_text();
  std::vector<fault::FaultPlan> plans;
  for (double intensity : {0.25, 0.5, 1.0})
    plans.push_back(fault::FaultPlan::at_intensity(intensity));
  fault::FaultPlan truncate_only, corrupt_only, both;
  truncate_only.trace_truncate_prob = 1.0;
  corrupt_only.trace_corrupt_prob = 1.0;
  both.trace_truncate_prob = both.trace_corrupt_prob = 1.0;
  plans.insert(plans.end(), {truncate_only, corrupt_only, both});
  for (std::size_t p = 0; p < plans.size(); ++p) {
    for (std::uint64_t seed = 0; seed < 150; ++seed) {
      util::Rng rng = util::Rng(seed).substream("trace-faults");
      const std::string perturbed =
          fault::FaultInjector::perturb_trace_text(text, plans[p], rng);
      ASSERT_AGREES(perturbed, "plan " << p << " seed " << seed);
    }
  }
}

/// Bytes std::stoull and the line/field splitter treat specially.
constexpr char kSpecialBytes[] = {' ', '+', '-', '\t', '\n', '\r', '\v',
                                  '\f', '0', '9', 'X', 'R', '\0'};

char draw_byte(util::Rng& rng) {
  if (rng.chance(0.5)) return static_cast<char>(rng.below(256));
  return kSpecialBytes[rng.below(sizeof(kSpecialBytes))];
}

TEST(TraceCodecOracle, ArbitraryByteMutations) {
  const std::string& pristine = short_case2_text();
  util::Rng rng(0xD1FF);
  for (int round = 0; round < 1500; ++round) {
    std::string text = pristine;
    const std::size_t edits = 1 + rng.below(4);
    for (std::size_t e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t at = rng.below(text.size());
      switch (rng.below(4)) {
        case 0: text[at] = draw_byte(rng); break;
        case 1: text.insert(at, 1, draw_byte(rng)); break;
        case 2: text.erase(at, 1); break;
        case 3: text.resize(rng.below(text.size() + 1)); break;
      }
    }
    ASSERT_AGREES(text, "round " << round);
  }
}

/// A small trace whose numeric fields, in file order, are `n`.
std::string small_trace(const std::vector<std::string>& n) {
  return "SENTOMIST-TRACE v1\nnode " + n[0] + "\nrun_end " + n[1] +
         "\ninstr_table " + n[2] + "\nh\ta\t" + n[3] + "\nlifecycle " +
         n[4] + "\nI\t" + n[5] + "\t" + n[6] + "\nR\t" + n[7] + "\t" + n[8] +
         "\t" + n[9] + "\ninstrs " + n[10] + "\n" + n[11] + "\t" + n[12] +
         "\nbugs " + n[13] + "\n" + n[14] + "\tbusy-drop\nend\n";
}

// Every numeric field in turn (section counts, header values, each row
// column) swapped for each candidate spelling.
TEST(TraceCodecOracle, NumberFieldsFollowStoull) {
  const std::vector<std::string> fields = {"3",  "100", "1", "4", "2",
                                           "10", "5",   "20", "1", "30",
                                           "1",  "12",  "0", "1", "40"};
  ASSERT_TRUE(load_trace_lenient(small_trace(fields)).complete);
  const std::vector<std::string> numbers = {
      "0", "7", "007", "+7", "-7", "-0", "+0", " 7", "\t7", "\v\f\r 7",
      "\n7", "7 ", "7\t", "7\r", "", " ", "+", "-", "+-7", "-+7", "--7",
      "0x10", "1e3", "7a", "a7", "\xa0" "7", std::string("\0" "7", 2),
      std::string("7\0", 2), "4294967295", "4294967296",
      // 19 digits still take the parser's instruction-row fast path; 20 not.
      "9999999999999999999", "0000000000000000007", "10000000000000000000",
      "18446744073709551615", "18446744073709551616",
      "-18446744073709551615", "-18446744073709551616",
      "000000000000000000000000000018446744073709551615",
      "99999999999999999999999"};
  for (std::size_t f = 0; f < fields.size(); ++f) {
    for (const std::string& number : numbers) {
      std::vector<std::string> swapped = fields;
      swapped[f] = number;
      ASSERT_AGREES(small_trace(swapped),
                    "field " << f << " number '" << number << "'");
    }
  }
}

// A stream holding a whole trace plus trailing bytes loads the same through
// the istream wrapper as through the view (the wrapper reads to the end).
TEST(TraceCodecOracle, StreamWrappersMatchViews) {
  const std::string text = short_case2_text() + "trailing garbage\n";
  std::istringstream in(text);
  const LenientLoadResult streamed = load_trace_lenient(in);
  const LenientLoadResult viewed = load_trace_lenient(text);
  EXPECT_TRUE(streamed.complete);
  EXPECT_EQ(first_difference(streamed.trace, viewed.trace), "");
  std::istringstream strict_in(text);
  EXPECT_EQ(first_difference(load_trace(strict_in), viewed.trace), "");
  ASSERT_AGREES(text, "trailing bytes");
}

// ---- golden digests -----------------------------------------------------------

std::string digest_lines() {
  std::string out;
  for (const NamedTrace& t : fig5_traces()) {
    const std::string bytes = save_trace(t.trace);
    char line[128];
    std::snprintf(line, sizeof line, "%s %016" PRIx64 " %zu\n",
                  t.name.c_str(), util::fnv1a64(bytes), bytes.size());
    out += line;
  }
  return out;
}

TEST(TraceDigests, Fig5SeededTraces) {
  const std::string path = std::string(SENT_GOLDEN_DIR) + "/trace_digests.txt";
  const std::string actual = digest_lines();
  if (std::getenv("SENT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing fixture " << path
                  << " (regenerate with SENT_UPDATE_GOLDEN=1)";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "trace bytes moved; if intended, regenerate with "
         "SENT_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace sent::trace

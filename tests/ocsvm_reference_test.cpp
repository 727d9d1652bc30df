// Cross-validation of the SMO one-class SVM against an independent
// reference solver (projected gradient descent on the same dual with exact
// projection onto the capped simplex). On small problems the two must
// agree on the optimal objective value and on the resulting ranking.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "apps/scenarios.hpp"
#include "core/detector.hpp"
#include "ml/kernel.hpp"
#include "ml/ocsvm.hpp"
#include "ml/scaler.hpp"
#include "ml/synthetic.hpp"
#include "obs/metrics.hpp"
#include "pipeline/sentomist.hpp"
#include "util/rng.hpp"

namespace sent::ml {
namespace {

using Rows = std::vector<std::vector<double>>;

// Projection of x onto {a : 0 <= a_i <= c, sum a = 1} via bisection on the
// shift tau in a_i = clip(x_i - tau, 0, c).
std::vector<double> project_capped_simplex(std::vector<double> x, double c) {
  auto sum_at = [&](double tau) {
    double s = 0.0;
    for (double v : x) s += std::clamp(v - tau, 0.0, c);
    return s;
  };
  double lo = -2.0, hi = 2.0;
  for (double v : x) {
    lo = std::min(lo, v - c - 1.0);
    hi = std::max(hi, v + 1.0);
  }
  for (int iter = 0; iter < 200; ++iter) {
    double mid = (lo + hi) / 2.0;
    if (sum_at(mid) > 1.0)
      lo = mid;
    else
      hi = mid;
  }
  double tau = (lo + hi) / 2.0;
  for (double& v : x) v = std::clamp(v - tau, 0.0, c);
  return x;
}

struct Reference {
  std::vector<double> alpha;
  double objective;
};

// Slow but independent: projected gradient descent on 1/2 a'Qa.
Reference reference_solve(const Rows& z, const KernelSpec& spec,
                          double gamma, double nu) {
  std::size_t n = z.size();
  double c = 1.0 / (nu * static_cast<double>(n));
  std::vector<double> q(n * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      q[i * n + j] = kernel_eval(spec, gamma, z[i], z[j]);

  // Step size from the Lipschitz constant of the gradient (largest
  // eigenvalue of Q, estimated by power iteration) — guarantees monotone
  // convergence of projected gradient descent.
  double lipschitz = 1.0;
  {
    std::vector<double> v(n, 1.0 / std::sqrt(static_cast<double>(n)));
    for (int iter = 0; iter < 50; ++iter) {
      std::vector<double> w(n, 0.0);
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) w[i] += q[i * n + j] * v[j];
      double norm = 0.0;
      for (double x : w) norm += x * x;
      norm = std::sqrt(norm);
      if (norm < 1e-14) break;
      for (std::size_t i = 0; i < n; ++i) v[i] = w[i] / norm;
      lipschitz = norm;
    }
  }
  double step = 0.9 / lipschitz;

  std::vector<double> alpha(n, 1.0 / static_cast<double>(n));
  alpha = project_capped_simplex(alpha, c);
  for (int iter = 0; iter < 200000; ++iter) {
    std::vector<double> grad(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        grad[i] += q[i * n + j] * alpha[j];
    std::vector<double> next(n);
    for (std::size_t i = 0; i < n; ++i) next[i] = alpha[i] - step * grad[i];
    next = project_capped_simplex(std::move(next), c);
    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      delta = std::max(delta, std::abs(next[i] - alpha[i]));
    alpha = std::move(next);
    if (delta < 1e-13) break;
  }
  double objective = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      objective += alpha[i] * q[i * n + j] * alpha[j];
  return {alpha, objective / 2.0};
}

// 1/2 a'Qa for a given dual vector.
double dual_objective(const Rows& z, const KernelSpec& spec, double gamma,
                      const std::vector<double>& alpha) {
  double objective = 0.0;
  for (std::size_t i = 0; i < z.size(); ++i) {
    if (alpha[i] == 0.0) continue;
    for (std::size_t j = 0; j < z.size(); ++j)
      objective += alpha[i] * alpha[j] * kernel_eval(spec, gamma, z[i], z[j]);
  }
  return objective / 2.0;
}

Rows standardized_blob(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Rows rows;
  for (std::size_t i = 0; i < n; ++i)
    rows.push_back({rng.normal(0, 1), rng.normal(0, 2), rng.normal(1, 1)});
  StandardScaler scaler;
  scaler.fit(rows);
  return scaler.transform(rows);
}

class OcsvmVsReference
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(OcsvmVsReference, ObjectivesAndRankingsAgree) {
  auto [n, nu] = GetParam();
  Rows z = standardized_blob(n, 1234 + n);
  KernelSpec spec;  // rbf
  double gamma = resolve_gamma(spec, z[0].size());

  // Reference solution.
  Reference ref = reference_solve(z, spec, gamma, nu);

  // SMO solution (standardization off: rows are already standardized).
  OcsvmParams params;
  params.nu = nu;
  params.standardize = false;
  OneClassSvm svm(params);
  std::vector<double> scores = svm.score(z);
  ASSERT_TRUE(svm.converged());

  // Both solvers minimize the same dual; the optima must coincide (the
  // SMO solution may be marginally better — never worse beyond tolerance).
  double smo_obj = dual_objective(z, spec, gamma, svm.alpha());
  EXPECT_NEAR(smo_obj, ref.objective, 1e-4) << "n=" << n << " nu=" << nu;
  EXPECT_LE(smo_obj, ref.objective + 1e-6);
  // The SMO solution must be feasible.
  double sum = 0.0;
  double c = 1.0 / (nu * static_cast<double>(n));
  for (double a : svm.alpha()) {
    EXPECT_GE(a, -1e-12);
    EXPECT_LE(a, c + 1e-12);
    sum += a;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);

  // Rankings agree on the clear extremes: the bottom-3 sample sets match.
  std::vector<double> ref_scores(n);
  {
    // Reference decision values: f_i = (Q alpha)_i - rho_ref with rho_ref
    // the mean gradient over free support vectors.
    double c = 1.0 / (nu * static_cast<double>(n));
    std::vector<double> grad(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        grad[i] += kernel_eval(spec, gamma, z[i], z[j]) * ref.alpha[j];
    double rho = 0.0;
    std::size_t free_count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (ref.alpha[i] > 1e-8 && ref.alpha[i] < c - 1e-8) {
        rho += grad[i];
        ++free_count;
      }
    }
    if (free_count > 0) rho /= static_cast<double>(free_count);
    for (std::size_t i = 0; i < n; ++i) ref_scores[i] = grad[i] - rho;
  }
  // Q alpha is unique at the optimum (Q is PSD), so the two score vectors
  // must agree up to the additive rho convention: compare centred.
  double mean_smo = 0.0, mean_ref = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mean_smo += scores[i];
    mean_ref += ref_scores[i];
  }
  mean_smo /= static_cast<double>(n);
  mean_ref /= static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(scores[i] - mean_smo, ref_scores[i] - mean_ref, 2e-4)
        << "sample " << i << " n=" << n << " nu=" << nu;
  }
  // (The elementwise check above is the strong guarantee; exact rank
  // order can differ among near-tied bound samples, so it is not
  // asserted.)
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, OcsvmVsReference,
    ::testing::Values(std::make_tuple(std::size_t{25}, 0.2),
                      std::make_tuple(std::size_t{40}, 0.1),
                      std::make_tuple(std::size_t{60}, 0.15)));

// ---- Optimized path vs retained reference path -----------------------------
//
// OcsvmParams::reference replays the pre-optimization code end to end
// (per-element Gram build, first-order pair selection, full-training-set
// decision sums). The optimized path (norm-cached blocked Gram, WSS2 +
// shrinking, compact-SV decision) must land on the same solution: at a
// tight tolerance the dual is solved to well below the comparison
// threshold, so alpha, rho and every decision value agree to 1e-9.

class FlatVsReference
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

// Rows of `x` grouped by equal values, in first-occurrence order. With
// `bitwise` the key is the row's bytes, so +0.0 and -0.0 differ; without
// it they are one value, as the kernel sees them.
std::vector<std::vector<std::size_t>> row_groups(const Matrix& x,
                                                 bool bitwise) {
  std::map<std::string, std::size_t> index;
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    std::vector<double> key = x.row_vector(i);
    if (!bitwise)
      for (double& v : key) v = v == 0.0 ? 0.0 : v;
    auto [it, fresh] = index.try_emplace(
        std::string(reinterpret_cast<const char*>(key.data()),
                    key.size() * sizeof(double)),
        groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  return groups;
}

// Fit `x` on both paths (nu 0.1, tol 1e-12) and require alpha, rho and
// the decision values on the training rows and on `queries` to agree.
// Rows with equal values have equal kernel rows, so the dual only fixes
// the SUM of alpha over each such group (the solvers may split it
// differently); alpha is compared as those sums, which for rows without
// duplicates is alpha itself.
void expect_flat_matches_reference(const Matrix& x, const Matrix& queries,
                                   bool standardize = true) {
  OcsvmParams params;
  params.nu = 0.1;
  params.tol = 1e-12;
  params.standardize = standardize;

  params.reference = true;
  OneClassSvm ref(params);
  ref.fit(x);
  ASSERT_TRUE(ref.converged());

  params.reference = false;
  OneClassSvm opt(params);
  opt.fit(x);
  ASSERT_TRUE(opt.converged());

  const std::size_t l = x.rows();
  ASSERT_EQ(ref.alpha().size(), l);
  ASSERT_EQ(opt.alpha().size(), l);
  for (const std::vector<std::size_t>& group : row_groups(x, false)) {
    double ref_sum = 0.0, opt_sum = 0.0;
    for (std::size_t i : group) {
      ref_sum += ref.alpha()[i];
      opt_sum += opt.alpha()[i];
    }
    EXPECT_NEAR(ref_sum, opt_sum, 1e-9)
        << "alpha over the " << group.size() << " row(s) like row "
        << group.front();
  }
  EXPECT_NEAR(ref.rho(), opt.rho(), 1e-9);

  // Decisions on the training rows and on unseen queries: the compact-SV
  // evaluation must match the full-training-set sums.
  std::vector<double> ref_train = ref.decision_batch(x);
  std::vector<double> opt_train = opt.decision_batch(x);
  std::vector<double> ref_query = ref.decision_batch(queries);
  std::vector<double> opt_query = opt.decision_batch(queries);
  for (std::size_t i = 0; i < l; ++i)
    EXPECT_NEAR(ref_train[i], opt_train[i], 1e-9) << "train row " << i;
  for (std::size_t i = 0; i < queries.rows(); ++i)
    EXPECT_NEAR(ref_query[i], opt_query[i], 1e-9) << "query row " << i;
}

TEST_P(FlatVsReference, AlphaRhoAndDecisionsAgree) {
  auto [l, d] = GetParam();
  Matrix x = normal_matrix(l, d, 0x5e11 + l * 31 + d);
  expect_flat_matches_reference(x, normal_matrix(32, d, 0xab + d));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FlatVsReference,
    ::testing::Values(std::make_tuple(std::size_t{60}, std::size_t{6}),
                      std::make_tuple(std::size_t{120}, std::size_t{10}),
                      std::make_tuple(std::size_t{200}, std::size_t{17})));

// ---- Distinct-row Gram ------------------------------------------------------
//
// The optimized path builds the Gram over the bitwise-distinct rows and
// reads Q(i, j) through a row -> distinct-row map. These shapes pin it to
// the reference path's dense l x l build at every duplicate ratio, and
// read the ml.kernel_* counters to see how many rows were merged.

struct GramCounts {
  std::uint64_t rows = 0;   // ml.kernel_rows_distinct
  std::uint64_t cells = 0;  // ml.kernel_cells_built
};

// One optimized fit with the global registry recording.
GramCounts count_gram(const Matrix& x, bool standardize = true) {
  obs::Registry& reg = obs::Registry::global();
  const bool was_enabled = reg.enabled();
  reg.reset();
  reg.set_enabled(true);
  OcsvmParams params;
  params.standardize = standardize;
  OneClassSvm svm(params);
  svm.fit(x);
  obs::Snapshot snap = reg.snapshot();
  reg.set_enabled(was_enabled);
  reg.reset();
  return {snap.counter_value("ml.kernel_rows_distinct"),
          snap.counter_value("ml.kernel_cells_built")};
}

TEST(DistinctRowGram, DuplicateHeavyMatchesReference) {
  Matrix x = duplicated_matrix(400, 15, 30, 0xd0b1);
  expect_flat_matches_reference(x, normal_matrix(32, 15, 0xd0b2));
  GramCounts counts = count_gram(x);
  EXPECT_EQ(counts.rows, 30u);
  EXPECT_EQ(counts.cells, 30u * 30u);
}

TEST(DistinctRowGram, AllRowsIdenticalMatchesReference) {
  Matrix x = duplicated_matrix(60, 6, 1, 0xa11);
  expect_flat_matches_reference(x, normal_matrix(16, 6, 0xa12));
  GramCounts counts = count_gram(x);
  EXPECT_EQ(counts.rows, 1u);
  EXPECT_EQ(counts.cells, 1u);
}

TEST(DistinctRowGram, NoDuplicatesMatchesReference) {
  Matrix x = normal_matrix(150, 8, 0x0d0);
  expect_flat_matches_reference(x, normal_matrix(16, 8, 0x0d1));
  GramCounts counts = count_gram(x);
  EXPECT_EQ(counts.rows, 150u);
  EXPECT_EQ(counts.cells, 150u * 150u);
}

// Without standardization the rows reach the Gram as given. A row and its
// copy with +0.0 flipped to -0.0 compare equal as doubles but differ in
// their bytes, so they must stay two distinct rows.
TEST(DistinctRowGram, SignedZerosAreNotMerged) {
  Matrix pool = normal_matrix(10, 4, 0x5160);
  Matrix x(120, 4);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    std::span<const double> src = pool.row(i % 10);
    std::copy(src.begin(), src.end(), x.row(i).begin());
    x(i, 0) = (i / 10) % 2 == 0 ? 0.0 : -0.0;
    x(i, 2) = 0.0;
  }
  ASSERT_EQ(x(0, 0), x(10, 0));
  ASSERT_TRUE(std::signbit(x(10, 0)));
  expect_flat_matches_reference(x, normal_matrix(16, 4, 0x5161),
                                /*standardize=*/false);
  GramCounts counts = count_gram(x, /*standardize=*/false);
  EXPECT_EQ(counts.rows, 20u);
  EXPECT_EQ(counts.cells, 20u * 20u);
}

// Identical feature rows must get bit-identical scores, and a tie must
// rank in sample-index order (rank_ascending is stable). Groups rows by
// their bytes and checks both for every group in `x`.
void expect_ties_in_index_order(const Matrix& x,
                                const std::vector<double>& scores,
                                const std::vector<std::size_t>& ranking) {
  ASSERT_EQ(scores.size(), x.rows());
  ASSERT_EQ(ranking.size(), x.rows());
  std::vector<std::size_t> position(x.rows());
  for (std::size_t p = 0; p < ranking.size(); ++p) position[ranking[p]] = p;

  std::size_t duplicated = 0;
  for (const std::vector<std::size_t>& members : row_groups(x, true)) {
    if (members.size() < 2) continue;
    ++duplicated;
    const std::size_t first = members.front();
    for (std::size_t k = 1; k < members.size(); ++k) {
      const std::size_t i = members[k];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(scores[i]),
                std::bit_cast<std::uint64_t>(scores[first]))
          << "rows " << first << " and " << i << " are identical but score "
          << scores[first] << " vs " << scores[i];
      EXPECT_LT(position[members[k - 1]], position[i])
          << "tied rows " << members[k - 1] << " and " << i
          << " rank out of index order";
    }
  }
  EXPECT_GT(duplicated, 0u);
}

TEST(DistinctRowGram, IdenticalRowsScoreIdenticallyInIndexOrder) {
  // Instruction-counter-like rows: small integer counts, 30 distinct
  // patterns over 257 samples, default detector parameters. l = 257 is
  // not a multiple of the blocked Gram build's 4-row step, so copies of
  // one row land on both its blocked and its remainder paths.
  Matrix x = duplicated_matrix(257, 7, 30, 1);
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (double& v : x.row(i)) v = std::round(std::abs(v) * 4.0);
  OneClassSvm svm;
  std::vector<double> scores = svm.score(x);
  std::vector<std::size_t> ranking;
  for (const core::RankedSample& r : core::rank_ascending(scores))
    ranking.push_back(r.index);
  expect_ties_in_index_order(x, scores, ranking);
}

// The same property on real Sentomist features: clean case-II relay runs
// whose intervals mostly repeat one execution path.
TEST(DistinctRowGram, Case2DuplicateGroupsRankInIndexOrder) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    apps::Case2Config config;
    config.seed = seed;
    config.run_seconds = 5.0;
    apps::Case2Result r = apps::run_case2(config);
    pipeline::AnalysisOptions options;
    options.keep_features = true;
    pipeline::AnalysisReport report =
        pipeline::analyze({{&r.relay_trace, 0}}, os::irq::kRadioSpi, options);
    std::vector<std::size_t> ranking;
    for (const pipeline::RankedEntry& e : report.ranking)
      ranking.push_back(e.sample_index);
    expect_ties_in_index_order(report.features.values, report.scores,
                               ranking);
  }
}

// Figure 5(a) end to end: the ranking table must be identical whether the
// detector runs the reference or the optimized path — up to numerical
// ties. Many intervals share identical (or symmetric) feature rows, so
// their decision values coincide in exact arithmetic; their relative order
// then depends on floating-point summation order and is interchangeable.
// Every pair separated beyond the noise band must rank identically.
TEST(FlatVsReferencePipeline, Fig5aRankingOrderIdentical) {
  apps::Case1Config config;
  config.seed = 11;
  config.sample_periods_ms = {20, 60};
  config.run_seconds = 5.0;
  apps::Case1Result r = apps::run_case1(config);

  std::vector<pipeline::TaggedTrace> traces;
  for (std::size_t i = 0; i < r.runs.size(); ++i)
    traces.push_back({&r.runs[i].sensor_trace, i});

  auto ranking_with = [&](bool reference) {
    OcsvmParams params;
    params.reference = reference;
    pipeline::AnalysisOptions options;
    options.detector = std::make_shared<OneClassSvm>(params);
    pipeline::AnalysisReport report =
        pipeline::analyze(traces, os::irq::kAdc, options);
    return report.ranking;
  };

  auto ref = ranking_with(true);
  auto opt = ranking_with(false);
  ASSERT_GT(ref.size(), 100u);
  ASSERT_EQ(ref.size(), opt.size());

  // Split the reference ranking into tie classes: a gap larger than the
  // noise band starts a new class. Within each class the two rankings must
  // hold the same set of samples; the class sequence itself is the table.
  constexpr double kTieEps = 1e-7;  // 10x the default solver tolerance
  std::size_t start = 0;
  std::size_t classes = 0;
  for (std::size_t pos = 1; pos <= ref.size(); ++pos) {
    if (pos < ref.size() &&
        ref[pos].score - ref[pos - 1].score < kTieEps)
      continue;
    std::vector<std::size_t> ref_ids, opt_ids;
    for (std::size_t k = start; k < pos; ++k) {
      ref_ids.push_back(ref[k].sample_index);
      opt_ids.push_back(opt[k].sample_index);
    }
    std::sort(ref_ids.begin(), ref_ids.end());
    std::sort(opt_ids.begin(), opt_ids.end());
    EXPECT_EQ(ref_ids, opt_ids) << "tie class at rank " << start + 1;
    start = pos;
    ++classes;
  }
  // The interesting part of the table is not one giant tie.
  EXPECT_GE(classes, 4u);
}

// Figures 5(b) and 5(c): the buggy intervals land at the same ranks on
// both paths. (The clean intervals of these cases form near-degenerate
// duplicate groups whose decision values tie within ~sqrt(tol), so their
// internal order is noise; the figures' content is where the bugs rank.)
TEST(FlatVsReferencePipeline, Fig5bcBugRanksIdentical) {
  auto bug_ranks_with = [](const std::vector<pipeline::TaggedTrace>& traces,
                           std::uint8_t line, bool reference) {
    OcsvmParams params;
    params.reference = reference;
    pipeline::AnalysisOptions options;
    options.detector = std::make_shared<OneClassSvm>(params);
    return pipeline::analyze(traces, line, options).bug_ranks();
  };
  {
    apps::Case2Config config;
    config.seed = 3;
    apps::Case2Result r = apps::run_case2(config);
    std::vector<pipeline::TaggedTrace> traces{{&r.relay_trace, 0}};
    auto ref = bug_ranks_with(traces, os::irq::kRadioSpi, true);
    auto opt = bug_ranks_with(traces, os::irq::kRadioSpi, false);
    ASSERT_FALSE(ref.empty());
    EXPECT_EQ(ref, opt);
  }
  {
    apps::Case3Config config;
    config.seed = 5;
    apps::Case3Result r = apps::run_case3(config);
    std::vector<pipeline::TaggedTrace> traces;
    for (net::NodeId src : r.sources) traces.push_back({&r.traces[src], 0});
    auto ref = bug_ranks_with(traces, r.report_line, true);
    auto opt = bug_ranks_with(traces, r.report_line, false);
    EXPECT_EQ(ref, opt);
  }
}

}  // namespace
}  // namespace sent::ml

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "pca/brent.hpp"
#include "pca/refine.hpp"
#include "propagation/kepler_solver.hpp"
#include "propagation/two_body.hpp"
#include "util/constants.hpp"

namespace scod {
namespace {

TEST(Brent, QuadraticMinimum) {
  const auto f = [](double x) { return (x - 3.5) * (x - 3.5) + 2.0; };
  const MinimizeResult r = brent_minimize(f, 0.0, 10.0, 1e-10);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 3.5, 1e-8);
  EXPECT_NEAR(r.value, 2.0, 1e-12);
}

TEST(Brent, NonSmoothFunction) {
  const auto f = [](double x) { return std::abs(x - 1.25) + 0.5; };
  const MinimizeResult r = brent_minimize(f, -4.0, 6.0, 1e-9);
  EXPECT_NEAR(r.x, 1.25, 1e-7);
  EXPECT_NEAR(r.value, 0.5, 1e-7);
}

TEST(Brent, CosineMinimum) {
  const MinimizeResult r = brent_minimize([](double x) { return std::cos(x); },
                                          2.0, 5.0, 1e-12);
  EXPECT_NEAR(r.x, kPi, 1e-8);
  EXPECT_NEAR(r.value, -1.0, 1e-12);
}

TEST(Brent, ReversedBoundsAccepted) {
  const auto f = [](double x) { return x * x; };
  const MinimizeResult r = brent_minimize(f, 2.0, -2.0, 1e-10);
  EXPECT_NEAR(r.x, 0.0, 1e-8);
}

TEST(Brent, MinimumAtBoundary) {
  // Monotone increasing: minimum is the left endpoint.
  const MinimizeResult r = brent_minimize([](double x) { return x; }, 1.0, 4.0, 1e-10);
  EXPECT_NEAR(r.x, 1.0, 1e-6);
  EXPECT_NEAR(r.value, r.x, 1e-12);
}

TEST(Brent, UsesFewerEvaluationsThanGolden) {
  // On smooth functions the parabolic steps should beat pure golden
  // section by a wide margin.
  const auto f = [](double x) { return std::pow(x - 2.0, 4) + (x - 2.0) * (x - 2.0); };
  const MinimizeResult brent = brent_minimize(f, -10.0, 10.0, 1e-10);
  const MinimizeResult golden = golden_section_minimize(f, -10.0, 10.0, 1e-10);
  EXPECT_NEAR(brent.x, golden.x, 1e-6);
  EXPECT_LT(brent.iterations, golden.iterations);
}

class BrentVsGolden : public testing::TestWithParam<double> {};

TEST_P(BrentVsGolden, AgreeOnShiftedQuartics) {
  const double shift = GetParam();
  const auto f = [shift](double x) {
    return std::pow(x - shift, 4) - 2.0 * std::pow(x - shift, 2) + 0.3 * (x - shift);
  };
  // This function has two local minima; restrict to a unimodal bracket
  // right of the maximum.
  const MinimizeResult b = brent_minimize(f, shift, shift + 3.0, 1e-10);
  const MinimizeResult g = golden_section_minimize(f, shift, shift + 3.0, 1e-10);
  EXPECT_NEAR(b.x, g.x, 1e-6);
  EXPECT_NEAR(b.value, g.value, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Shifts, BrentVsGolden,
                         testing::Values(-20.0, -1.0, 0.0, 0.7, 5.0, 300.0));

TEST(GridSearchRadius, TwoCellCrossingTime) {
  EXPECT_DOUBLE_EQ(grid_search_radius(10.0, 5.0), 4.0);
  EXPECT_DOUBLE_EQ(grid_search_radius(9.8, 7.8), 2.0 * 9.8 / 7.8);
}

class RefineFixture : public testing::Test {
 protected:
  RefineFixture() {
    // Two circular orbits in perpendicular planes with equal radius: they
    // intersect on a line, and with the right phasing the satellites pass
    // the intersection nearly simultaneously -> a deep, well-defined PCA.
    sats_.push_back({0, {7000.0, 0.0001, 0.0, 0.0, 0.0, 0.0}});
    sats_.push_back({1, {7000.0, 0.0001, kPi / 2.0, 0.0, 0.0, 0.01}});
    prop_ = std::make_unique<TwoBodyPropagator>(sats_, solver_);
    // Locate the true minimum with a fine scan.
    for (double t = 1000.0; t < 4000.0; t += 0.5) {
      const double d = distance(t);
      if (d < best_d_) {
        best_d_ = d;
        best_t_ = t;
      }
    }
  }

  double distance(double t) const { return prop_->distance(0, 1, t); }
  auto distance_fn() const {
    return [this](double t) { return distance(t); };
  }

  NewtonKeplerSolver solver_;
  std::vector<Satellite> sats_;
  std::unique_ptr<TwoBodyPropagator> prop_;
  double best_t_ = 0.0;
  double best_d_ = 1e300;
};

TEST_F(RefineFixture, FindsInteriorMinimum) {
  // refine_candidate_fn finds the minimum from a nearby sample point.
  const auto enc = refine_candidate_fn(distance_fn(), best_t_ + 3.0, 30.0, 0.0, 5000.0);
  ASSERT_TRUE(enc.has_value());
  EXPECT_NEAR(enc->tca, best_t_, 1.0);
  EXPECT_LE(enc->pca, best_d_ + 1e-6);
}

TEST_F(RefineFixture, SpanBoundaryMinimumIsClamped) {
  // If the span itself ends before the approach completes, the clamped
  // edge minimum must be reported, not discarded (there is no neighbouring
  // interval beyond the span).
  const double span_end = best_t_ - 20.0;  // span ends while still approaching
  const auto enc =
      refine_candidate_fn(distance_fn(), span_end - 5.0, 10.0, 0.0, span_end);
  ASSERT_TRUE(enc.has_value());
  EXPECT_NEAR(enc->tca, span_end, 1.0);
}

TEST_F(RefineFixture, SpanBeginMinimumIsClamped) {
  // The same at the other end: the span begins after the approach, so the
  // distance already grows from t_min on.
  const double span_begin = best_t_ + 20.0;
  const auto enc =
      refine_candidate_fn(distance_fn(), span_begin + 5.0, 10.0, span_begin, 5000.0);
  ASSERT_TRUE(enc.has_value());
  EXPECT_NEAR(enc->tca, span_begin, 1.0);
}

TEST_F(RefineFixture, RefineOnIntervalAgrees) {
  const auto enc = refine_on_interval_fn(distance_fn(), best_t_ - 40.0, best_t_ + 40.0);
  ASSERT_TRUE(enc.has_value());
  EXPECT_NEAR(enc->tca, best_t_, 1.0);

  // Degenerate interval.
  EXPECT_FALSE(refine_on_interval_fn(distance_fn(), 10.0, 10.0).has_value());
  EXPECT_FALSE(refine_on_interval_fn(distance_fn(), 10.0, 5.0).has_value());
}

enum class Entry { kCandidate, kInterval };
enum class Edge { kLeft, kRight };

/// The boundary-discard rule of Section IV-C through both entry points, at
/// both interval edges: when the distance still falls beyond the edge the
/// search stopped at, the neighbouring interval owns the minimum and the
/// search reports nothing.
class RefineEdgeDiscard : public RefineFixture,
                          public testing::WithParamInterface<std::tuple<Entry, Edge>> {};

TEST_P(RefineEdgeDiscard, DiscardsMinimumOwnedByNeighbourInterval) {
  const auto [entry, edge] = GetParam();
  // A 100 s interval whose centre lies 100 s from the minimum, on the side
  // that puts the minimum beyond `edge`.
  const double center = edge == Edge::kLeft ? best_t_ + 100.0 : best_t_ - 100.0;
  const std::optional<Encounter> enc =
      entry == Entry::kCandidate
          ? refine_candidate_fn(distance_fn(), center, 50.0, 0.0, 5000.0)
          : refine_on_interval_fn(distance_fn(), center - 50.0, center + 50.0);
  EXPECT_FALSE(enc.has_value());
}

std::string entry_edge_name(const testing::TestParamInfo<std::tuple<Entry, Edge>>& info) {
  const auto [entry, edge] = info.param;
  return std::string(entry == Entry::kCandidate ? "Candidate" : "Interval") +
         (edge == Edge::kLeft ? "Left" : "Right");
}

INSTANTIATE_TEST_SUITE_P(EntriesAndEdges, RefineEdgeDiscard,
                         testing::Combine(testing::Values(Entry::kCandidate,
                                                          Entry::kInterval),
                                          testing::Values(Edge::kLeft, Edge::kRight)),
                         entry_edge_name);

TEST(MergeEncounters, CollapsesNearbyMinima) {
  std::vector<Encounter> raw{{100.0, 5.0}, {100.3, 4.0}, {500.0, 7.0}, {99.8, 6.0}};
  const auto merged = merge_encounters(raw, 1.0);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_NEAR(merged[0].tca, 100.3, 1e-12);  // kept the smallest PCA
  EXPECT_DOUBLE_EQ(merged[0].pca, 4.0);
  EXPECT_DOUBLE_EQ(merged[1].tca, 500.0);
}

TEST(MergeEncounters, EmptyAndSingle) {
  EXPECT_TRUE(merge_encounters({}, 1.0).empty());
  const auto one = merge_encounters({{42.0, 1.0}}, 1.0);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0].tca, 42.0);
}

}  // namespace
}  // namespace scod

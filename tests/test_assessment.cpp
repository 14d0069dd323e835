#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "assessment/cdm.hpp"
#include "assessment/geometry.hpp"
#include "assessment/probability.hpp"
#include "assessment/rtn.hpp"
#include "core/screener.hpp"
#include "propagation/kepler_solver.hpp"
#include "propagation/two_body.hpp"
#include "scenario_helpers.hpp"
#include "util/constants.hpp"
#include "util/rng.hpp"

namespace scod {
namespace {

TEST(RtnFrame, IsOrthonormalRightHanded) {
  const StateVector state{{7000.0, 100.0, -200.0}, {0.5, 7.4, 0.3}};
  const RtnFrame frame = rtn_frame(state);
  EXPECT_NEAR(frame.radial.norm(), 1.0, 1e-12);
  EXPECT_NEAR(frame.transverse.norm(), 1.0, 1e-12);
  EXPECT_NEAR(frame.normal.norm(), 1.0, 1e-12);
  EXPECT_NEAR(frame.radial.dot(frame.transverse), 0.0, 1e-12);
  EXPECT_NEAR(frame.radial.dot(frame.normal), 0.0, 1e-12);
  EXPECT_NEAR(frame.radial.cross(frame.transverse).distance(frame.normal), 0.0, 1e-12);
}

TEST(RtnFrame, RoundTripsVectors) {
  const StateVector state{{6800.0, -1200.0, 900.0}, {1.2, 7.1, -0.4}};
  const RtnFrame frame = rtn_frame(state);
  const Vec3 v{3.0, -4.0, 5.0};
  EXPECT_NEAR(frame.to_eci(frame.to_rtn(v)).distance(v), 0.0, 1e-12);
  // The satellite's own position is purely radial.
  const Vec3 rtn = frame.to_rtn(state.position);
  EXPECT_NEAR(rtn.x, state.position.norm(), 1e-9);
  EXPECT_NEAR(rtn.y, 0.0, 1e-9);
  EXPECT_NEAR(rtn.z, 0.0, 1e-9);
}

TEST(RtnFrame, TransverseAlignsWithVelocityForCircularOrbit) {
  // Circular orbit: velocity is exactly along-track.
  const NewtonKeplerSolver solver;
  const std::vector<Satellite> sats{{0, {7000.0, 1e-9, 0.8, 1.0, 0.0, 2.0}}};
  const TwoBodyPropagator prop(sats, solver);
  const StateVector s = prop.state(0, 500.0);
  const RtnFrame frame = rtn_frame(s);
  EXPECT_GT(frame.transverse.dot(s.velocity.normalized()), 0.99999);
}

TEST(BesselI0, MatchesKnownValues) {
  EXPECT_NEAR(bessel_i0(0.0), 1.0, 1e-15);
  EXPECT_NEAR(bessel_i0(1.0), 1.2660658777520084, 1e-12);
  EXPECT_NEAR(bessel_i0(2.5), 3.2898391440501231, 1e-11);
  EXPECT_NEAR(bessel_i0(-2.5), bessel_i0(2.5), 1e-15);  // even function
  // At the series/asymptotic switch point (x = 15) both branches must give
  // the right value: I0(15) ~ 3.39649e5.
  EXPECT_NEAR(bessel_i0(14.9999999) / 339649.5, 1.0, 2e-4);
  EXPECT_NEAR(bessel_i0(15.0000001) / 339649.5, 1.0, 2e-4);
  // Large-argument sanity: I0(50) ~ 2.93e20.
  EXPECT_NEAR(bessel_i0(50.0) / 2.93255378e20, 1.0, 1e-4);
}

TEST(CollisionProbability, ZeroMissAnalyticCase) {
  // m = 0: Pc = 1 - exp(-R^2 / (2 sigma^2)) exactly.
  for (double sigma : {0.05, 0.5, 2.0}) {
    for (double radius : {0.01, 0.1, 1.0}) {
      const double expected =
          1.0 - std::exp(-radius * radius / (2.0 * sigma * sigma));
      EXPECT_NEAR(collision_probability_isotropic(0.0, sigma, radius), expected,
                  1e-9)
          << "sigma=" << sigma << " R=" << radius;
    }
  }
}

TEST(CollisionProbability, MonotonicInMissDistance) {
  double previous = 1.0;
  for (double miss : {0.0, 0.1, 0.5, 1.0, 2.0, 5.0}) {
    const double pc = collision_probability_isotropic(miss, 0.5, 0.02);
    EXPECT_LE(pc, previous + 1e-15);
    previous = pc;
  }
}

TEST(CollisionProbability, DilutionRegion) {
  // The classic dilution effect: for a fixed miss distance, Pc is not
  // monotone in sigma — tiny sigma pins the miss as certain (Pc -> 0),
  // huge sigma spreads the probability thin (Pc -> 0), with a maximum at
  // sigma ~ m / sqrt(2) for small R.
  const double miss = 1.0, radius = 0.01;
  const double low = collision_probability_isotropic(miss, 0.05, radius);
  const double peak = collision_probability_isotropic(miss, miss / std::sqrt(2.0), radius);
  const double high = collision_probability_isotropic(miss, 50.0, radius);
  EXPECT_GT(peak, low);
  EXPECT_GT(peak, high);
}

TEST(CollisionProbability, LargeMissUnderflowsGracefully) {
  const double pc = collision_probability_isotropic(500.0, 0.5, 0.02);
  EXPECT_GE(pc, 0.0);
  EXPECT_LT(pc, 1e-30);
}

TEST(CollisionProbability, RejectsInvalidSigma) {
  EXPECT_THROW(collision_probability_isotropic(1.0, 0.0, 0.1), std::invalid_argument);
  EXPECT_THROW(collision_probability_2d(1.0, 0.0, -1.0, 1.0, 0.1),
               std::invalid_argument);
  EXPECT_DOUBLE_EQ(collision_probability_isotropic(1.0, 1.0, 0.0), 0.0);
}

class Isotropic2dAgreement : public testing::TestWithParam<double> {};

TEST_P(Isotropic2dAgreement, TwoImplementationsMatch) {
  // When sx == sy the 2-D quadrature must reproduce the Rician integral.
  const double miss = GetParam();
  const double sigma = 0.4, radius = 0.05;
  const double iso = collision_probability_isotropic(miss, sigma, radius);
  // Split the miss across both axes to exercise the 2-D geometry.
  const double both = collision_probability_2d(miss / std::sqrt(2.0),
                                               miss / std::sqrt(2.0), sigma,
                                               sigma, radius);
  EXPECT_NEAR(both, iso, 1e-6 + iso * 1e-3);
}

INSTANTIATE_TEST_SUITE_P(MissDistances, Isotropic2dAgreement,
                         testing::Values(0.0, 0.2, 0.5, 1.0, 2.0));

TEST(CollisionProbability, AnisotropyMatters) {
  // Miss along the tight axis is less likely to be an error than along the
  // loose axis.
  const double tight = collision_probability_2d(1.0, 0.0, 0.1, 2.0, 0.02);
  const double loose = collision_probability_2d(0.0, 1.0, 0.1, 2.0, 0.02);
  EXPECT_LT(tight, loose);
}

TEST(CombinedSigma, RootSumSquare) {
  EXPECT_DOUBLE_EQ(combined_sigma(3.0, 4.0), 5.0);
  EXPECT_DOUBLE_EQ(combined_sigma(0.0, 2.0), 2.0);
}

class GeometryFixture : public testing::Test {
 protected:
  GeometryFixture() {
    Rng rng(0xA55E55);
    KeplerElements target{7000.0, 1e-4, 0.9, 0.5, 0.0, 1.0};
    sats_.push_back({0, target});
    sats_.push_back(testutil::make_interceptor(target, 2000.0, 1.5, rng, 1));
    prop_ = std::make_unique<TwoBodyPropagator>(sats_, solver_);

    // Refine the engineered encounter to its exact TCA.
    double best_t = 0.0, best_d = 1e300;
    for (double t = 1900.0; t < 2100.0; t += 0.25) {
      const double d = prop_->distance(0, 1, t);
      if (d < best_d) {
        best_d = d;
        best_t = t;
      }
    }
    tca_ = best_t;
    pca_ = best_d;
  }

  NewtonKeplerSolver solver_;
  std::vector<Satellite> sats_;
  std::unique_ptr<TwoBodyPropagator> prop_;
  double tca_ = 0.0;
  double pca_ = 0.0;
};

TEST_F(GeometryFixture, MissVectorConsistent) {
  const EncounterGeometry g = encounter_geometry(*prop_, 0, 1, tca_);
  EXPECT_NEAR(g.miss_distance, pca_, 0.01);
  EXPECT_NEAR(g.miss_rtn.norm(), g.miss_distance, 1e-9);
  EXPECT_GT(g.relative_speed, 0.1);  // different planes: a real fly-by
  EXPECT_GE(g.approach_angle, 0.0);
  EXPECT_LE(g.approach_angle, kPi);
}

TEST_F(GeometryFixture, MissPerpendicularToRelativeVelocityAtTca) {
  // At a distance minimum d/dt |dr|^2 = 2 dr . dv = 0.
  const EncounterGeometry g = encounter_geometry(*prop_, 0, 1, tca_);
  const Vec3 miss_eci = g.state_b.position - g.state_a.position;
  const double cosine = miss_eci.normalized().dot(
      g.relative_velocity_eci / g.relative_speed);
  EXPECT_NEAR(cosine, 0.0, 0.01);
}

TEST_F(GeometryFixture, EncounterPlaneCapturesFullMiss) {
  const EncounterGeometry g = encounter_geometry(*prop_, 0, 1, tca_);
  const EncounterPlane plane = encounter_plane(g);
  // At TCA the miss vector lies in the encounter plane, so its in-plane
  // components reconstruct the full miss distance.
  const double in_plane =
      std::sqrt(plane.miss_x * plane.miss_x + plane.miss_y * plane.miss_y);
  EXPECT_NEAR(in_plane, g.miss_distance, g.miss_distance * 0.01 + 1e-6);
  // Basis orthonormality.
  EXPECT_NEAR(plane.axis_x.dot(plane.axis_y), 0.0, 1e-12);
  EXPECT_NEAR(plane.axis_x.dot(plane.axis_z), 0.0, 1e-12);
  EXPECT_NEAR(plane.axis_x.norm(), 1.0, 1e-12);
}

TEST_F(GeometryFixture, AssessmentPipelineEndToEnd) {
  ScreeningConfig cfg;
  cfg.threshold_km = 5.0;
  cfg.t_end = 4000.0;
  const ScreeningReport report = make_screener(Variant::kGrid)->screen(sats_, cfg);
  ASSERT_FALSE(report.conjunctions.empty());

  std::vector<CdmObject> objects(2);
  objects[0] = {"TARGET-0001", 0.01, 0.3};
  objects[1] = {"CHASER-0002", 0.005, 0.2};
  const auto assessments = assess_conjunctions(*prop_, report, objects);
  ASSERT_EQ(assessments.size(), report.conjunctions.size());

  const ConjunctionAssessment& a = assessments.front();
  EXPECT_NEAR(a.geometry.miss_distance, a.conjunction.pca, 0.01);
  EXPECT_DOUBLE_EQ(a.combined_hard_body_km, 0.015);
  EXPECT_NEAR(a.combined_sigma_km, std::sqrt(0.09 + 0.04), 1e-12);
  EXPECT_GT(a.collision_probability, 0.0);
  EXPECT_LT(a.collision_probability, 1.0);
}

TEST_F(GeometryFixture, CdmWriterEmitsAllFields) {
  ScreeningConfig cfg;
  cfg.threshold_km = 5.0;
  cfg.t_end = 4000.0;
  const ScreeningReport report = make_screener(Variant::kGrid)->screen(sats_, cfg);
  ASSERT_FALSE(report.conjunctions.empty());
  const auto assessments = assess_conjunctions(*prop_, report);

  std::ostringstream os;
  CdmObject a{"OBJECT-A", 0.01, 0.5};
  CdmObject b{"OBJECT-B", 0.01, 0.5};
  write_cdm(os, assessments.front(), a, b);
  const std::string cdm = os.str();

  for (const char* key :
       {"CCSDS_CDM_VERS", "TCA", "MISS_DISTANCE", "RELATIVE_SPEED",
        "RELATIVE_POSITION_R", "RELATIVE_POSITION_T", "RELATIVE_POSITION_N",
        "COLLISION_PROBABILITY", "OBJECT1_OBJECT_DESIGNATOR",
        "OBJECT2_OBJECT_DESIGNATOR", "OBJECT1_X_DOT", "OBJECT2_Z"}) {
    EXPECT_NE(cdm.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_NE(cdm.find("OBJECT-A"), std::string::npos);
  EXPECT_NE(cdm.find("OBJECT-B"), std::string::npos);
}

TEST(Assessment, DefaultsUsedWhenMetadataMissing) {
  const NewtonKeplerSolver solver;
  Rng rng(0xFACE);
  KeplerElements target{7000.0, 1e-4, 1.1, 0.2, 0.0, 0.5};
  std::vector<Satellite> sats{{0, target},
                              testutil::make_interceptor(target, 1500.0, 1.0, rng, 1)};
  const TwoBodyPropagator prop(sats, solver);

  ScreeningReport report;
  report.conjunctions.push_back({0, 1, 1500.0, 1.0});
  const auto assessments = assess_conjunctions(prop, report);  // no metadata
  ASSERT_EQ(assessments.size(), 1u);
  EXPECT_GT(assessments[0].combined_sigma_km, 0.0);
  EXPECT_GT(assessments[0].combined_hard_body_km, 0.0);
}

}  // namespace
}  // namespace scod
